"""Command-line front end.

Single-value subcommands (exact, ratio, fjn, krank, nonkary) print one JSON
document with the exact quantity, its enclosure, and the containment flag;
verify runs a named sweep (or all of them) and reports per-suite outcomes,
optionally dumping per-case rows to CSV.  Exit codes: 0 all checks passed,
1 a verification failed, 2 usage or precondition error (an input past a
ceiling, a negative --n-max/--j-max, an --n-max, --j-max or --seed for a
suite that reads none, or an unwritable --json/--csv path).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from . import __version__
from .enclosure import DEFAULT_PRECISION, Enclosure
from .errors import PartboundsError, PreconditionError
from .estimates import (
    fjn_licensed,
    fjn_ratio_interval,
    krank_boundary_value,
    krank_diff_interval,
    krank_ratio_interval,
    nonkary_diff_check,
    ratio_interval,
)
from .exact import ENUMERATION_BOUND, f_jn, nu_k, p_enumerate_oracle, p_exact
from .inequalities import DEFAULT_SEED, _lookup
from .reports import (
    ReportDocument,
    fraction_str,
    interval_payload,
    optional_float,
    write_csv,
)
from .verify import J_MAX_SUITES, N_MAX_SUITES, SUITE_NAMES, run_suite

PRECISION_ENV = "PARTBOUNDS_PRECISION"
# Largest working precision accepted, in bits (about 1233 decimal digits).
MAX_PRECISION = 4096

# parameters, results, passed, CSV rows
_Handled = Tuple[Dict[str, Any], Dict[str, Any], bool, List[Dict[str, Any]]]


def _resolve_precision(value: Optional[int]) -> int:
    """Flag wins, then the environment variable, then the library default."""
    if value is None:
        raw = os.environ.get(PRECISION_ENV)
        if raw is None:
            return DEFAULT_PRECISION
        try:
            value = int(raw)
        except ValueError:
            raise PreconditionError(
                f"{PRECISION_ENV} must be an integer, got {raw!r}"
            ) from None
    if value < 16:
        raise PreconditionError("requires precision >= 16")
    if value > MAX_PRECISION:
        raise PreconditionError(f"requires precision <= {MAX_PRECISION}")
    return value


def _interval_block(enclosure: Enclosure, exact: Fraction) -> Dict[str, Any]:
    block = interval_payload(enclosure)
    block["contained"] = enclosure.containment_margin(exact) >= 0
    return block


def _cmd_exact(args: argparse.Namespace) -> _Handled:
    n = args.n
    if n < 0:
        raise PreconditionError("requires n >= 0")
    # the oracle refuses n past its bound before the table grows to n
    expected = p_enumerate_oracle(n) if args.oracle else None
    value = p_exact(n)
    results: Dict[str, Any] = {"n": n, "p": str(value), "digits": len(str(value))}
    passed = True
    if args.oracle:
        passed = value == expected
        results["enumeration"] = str(expected)
        results["agreement"] = passed
    return {"n": n, "oracle": bool(args.oracle)}, results, passed, []


def _margin_results(enclosure: Enclosure, exact: Fraction) -> Dict[str, Any]:
    """The exact value, its enclosure, and where it lies in it."""
    margin = enclosure.containment_margin(exact)
    return {
        "exact": fraction_str(exact),
        "interval": {**interval_payload(enclosure), "contained": margin >= 0},
        "relative_width": optional_float(enclosure.relative_width()),
        "containment_margin": float(margin),
    }


def _cmd_ratio(args: argparse.Namespace) -> _Handled:
    prec = _resolve_precision(args.precision)
    n, j = args.n, args.j
    estimate = ratio_interval(n, j, prec)
    # p(n) first: an n past the ceiling exits before the table grows to n - j
    pn = p_exact(n)
    results = {"n": n, "j": j,
               **_margin_results(estimate.product, Fraction(p_exact(n - j), pn))}
    passed = results["interval"]["contained"]
    return {"n": n, "j": j, "precision": prec}, results, passed, []


def _cmd_fjn(args: argparse.Namespace) -> _Handled:
    prec = _resolve_precision(args.precision)
    n, j = args.n, args.j
    estimate = fjn_ratio_interval(n, j, prec)
    difference = f_jn(n, j)
    exact = Fraction(difference, p_exact(n))
    results = {"n": n, "j": j, "difference": str(difference),
               **_margin_results(estimate.total, exact)}
    passed = results["interval"]["contained"]
    return {"n": n, "j": j, "precision": prec}, results, passed, []


def _cmd_krank(args: argparse.Namespace) -> _Handled:
    prec = _resolve_precision(args.precision)
    k, m, n = args.k, args.m, args.n
    enc_ratio = krank_ratio_interval(k, m, n, prec)
    enc_diff = krank_diff_interval(k, m, n, prec)
    denom = p_exact(n - k - m + 1)
    count = krank_boundary_value(k, m, n)
    ratio_exact = Fraction(count, denom)
    diff_exact = Fraction(count - krank_boundary_value(k, m + 1, n), denom)
    results = {
        "k": k,
        "m": m,
        "n": n,
        "ell_prime": n - k - m,
        "boundary_count": str(count),
        "ratio": {
            "exact": fraction_str(ratio_exact),
            "interval": _interval_block(enc_ratio, ratio_exact),
        },
        "difference": {
            "exact": fraction_str(diff_exact),
            "interval": _interval_block(enc_diff, diff_exact),
            "lower_positive": enc_diff.strictly_positive(),
        },
    }
    passed = (
        results["ratio"]["interval"]["contained"]
        and results["difference"]["interval"]["contained"]
    )
    return {"k": k, "m": m, "n": n, "precision": prec}, results, passed, []


def _cmd_nonkary(args: argparse.Namespace) -> _Handled:
    prec = _resolve_precision(args.precision)
    n, k = args.n, args.k
    value = nu_k(n, k)
    results: Dict[str, Any] = {"n": n, "k": k, "nu": str(value)}
    passed = True
    licensed = fjn_licensed(n, k)
    if n >= 2 and 2 * k <= n:
        positive = nonkary_diff_check(n, k)
        results["difference"] = str(f_jn(n, k))
        results["difference_positive"] = positive
        if licensed:
            passed = positive
    if licensed:
        estimate = fjn_ratio_interval(n, k, prec)
        exact = Fraction(f_jn(n, k), p_exact(n))
        results["ratio_exact"] = fraction_str(exact)
        results["ratio_interval"] = _interval_block(estimate.total, exact)
        passed = passed and results["ratio_interval"]["contained"]
    return {"n": n, "k": k, "precision": prec}, results, passed, []


def _cmd_verify(args: argparse.Namespace) -> _Handled:
    prec = _resolve_precision(args.precision)
    if args.case is not None:
        if args.suite not in ("inequalities", "all"):
            raise PreconditionError("--case requires the inequalities suite")
        # an unknown case exits before any suite runs, not after the others
        _lookup(args.case)
    collect = args.csv is not None
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = [
        run_suite(
            name,
            # `all` restricts the suites that read n_max, j_max or the seed;
            # one suite that reads none of them is refused by run_suite
            n_max=None if args.suite == "all" and name not in N_MAX_SUITES else args.n_max,
            j_max=None if args.suite == "all" and name not in J_MAX_SUITES else args.j_max,
            prec=prec,
            seed=None if args.suite == "all" and name != "inequalities" else args.seed,
            case=args.case if name == "inequalities" else None,
            collect_rows=collect,
        )
        for name in names
    ]
    rows = [
        {"suite": report.suite, **row} for report in reports for row in report.rows
    ]
    parameters = {
        "suite": args.suite,
        "n_max": args.n_max,
        "j_max": args.j_max,
        "precision": prec,
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
        "case": args.case,
    }
    results = {"suites": [report.summary() for report in reports]}
    return parameters, results, all(report.passed for report in reports), rows


def _add_precision_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        metavar="BITS",
        help=f"binary working precision (default: ${PRECISION_ENV} or {DEFAULT_PRECISION})",
    )


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="also write the JSON document to this file",
    )


@lru_cache(maxsize=1)  # built once per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partbounds",
        description=(
            "Exact partition numbers with certified interval enclosures "
            "for their ratios, shifted differences, and rank statistics."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser(
        "exact", help="exact p(n), optionally cross-checked by enumeration"
    )
    cmd.add_argument("n", type=int)
    cmd.add_argument(
        "--oracle",
        action="store_true",
        help="recount by bounded enumeration and compare",
    )
    _add_json_flag(cmd)
    cmd.set_defaults(handler=_cmd_exact)

    cmd = sub.add_parser(
        "ratio", help="enclosure of p(n-j)/p(n) checked against the exact rational"
    )
    cmd.add_argument("n", type=int)
    cmd.add_argument("j", type=int)
    _add_precision_flag(cmd)
    _add_json_flag(cmd)
    cmd.set_defaults(handler=_cmd_ratio)

    cmd = sub.add_parser(
        "fjn",
        help="enclosure of (p(n) - 2p(n-j) + p(n-2j))/p(n) against the exact rational",
    )
    cmd.add_argument("n", type=int)
    cmd.add_argument("j", type=int)
    _add_precision_flag(cmd)
    _add_json_flag(cmd)
    cmd.set_defaults(handler=_cmd_fjn)

    cmd = sub.add_parser(
        "krank", help="rank-count enclosures on the collapsed range m > n/2"
    )
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--m", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)
    _add_precision_flag(cmd)
    _add_json_flag(cmd)
    cmd.set_defaults(handler=_cmd_krank)

    cmd = sub.add_parser(
        "nonkary", help="partitions avoiding part k: count, growth, enclosure"
    )
    cmd.add_argument("n", type=int)
    cmd.add_argument("k", type=int)
    _add_precision_flag(cmd)
    _add_json_flag(cmd)
    cmd.set_defaults(handler=_cmd_nonkary)

    cmd = sub.add_parser("verify", help="run a verification sweep")
    cmd.add_argument("suite", choices=SUITE_NAMES + ("all",))
    cmd.add_argument(
        "--n-max", type=int, default=None, metavar="N",
        help=f"largest n swept; oracles clamps it at {ENUMERATION_BOUND}, "
             "the enumeration oracle's bound",
    )
    cmd.add_argument("--j-max", type=int, default=None, metavar="J")
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument(
        "--case", default=None, help="restrict the inequalities suite to one case"
    )
    cmd.add_argument(
        "--csv", metavar="PATH", default=None, help="write per-case rows to CSV"
    )
    _add_precision_flag(cmd)
    _add_json_flag(cmd)
    cmd.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        parameters, results, passed, rows = args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PartboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    doc = ReportDocument(
        command=args.command,
        parameters=parameters,
        results=results,
        passed=passed,
        exit_code=0 if passed else 1,
        seconds=round(time.perf_counter() - started, 6),
    )
    text = doc.to_json()
    print(text)
    try:
        if args.json_path is not None:
            with open(args.json_path, "w") as handle:
                handle.write(text + "\n")
        if getattr(args, "csv", None) is not None:
            write_csv(args.csv, rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return doc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())

"""Verification sweeps: each suite exercises one block of the library at
full scale and reports counted cases, failures, and worst observed margins.

Default ranges are the ones the package promises to satisfy, so running
every suite back to back is the complete verification gate; the acceptance
tests read these reports instead of sweeping a second time.  Sweep loops
are deterministic; only the inequality registry fans out across worker
processes.  Its cases are dispatched longest first, one at a time, and the
results are reassembled in registry order, so parallel and sequential runs
produce identical reports.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .enclosure import DEFAULT_PRECISION, Enclosure
from .errors import PreconditionError
from .estimates import (
    RATIO_RADIUS_1,
    RATIO_RADIUS_2,
    CertificateKind,
    convexity_certificate,
    fjn_j_top,
    fjn_ratio_interval,
    injection_inequality,
    injection_map_check,
    krank_boundary_value,
    krank_diff_interval,
    krank_ratio_interval,
    nonkary_diff_check,
    prop21_j_top,
    ratio_interval,
    ratio_j_top,
)
from .exact import (
    ENUMERATION_BOUND,
    default_table,
    dyson_rank_count,
    f_jn,
    p_enumerate_oracle,
    p_exact,
)
from .inequalities import (
    CASE_INDEX,
    CASES,
    DEFAULT_SEED,
    InequalityResult,
    _lookup,
    _min_lo,
    run_case,
)
from .rademacher import proposition21_interval, rademacher_round
from .reports import SuiteReport, fraction_str, optional_float
from .special import (
    bessel_I32_closed,
    bessel_I32_quadrature,
    dedekind_sum,
    kloosterman_A,
    kloosterman_imag_residue,
    to_fraction,
)

FAILURE_CAP = 200

# x values for closed-form vs quadrature Bessel agreement; spans the
# small-argument cancellation regime through series-scale arguments.
BESSEL_GRID = (
    Fraction(1, 10),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(5),
    Fraction(12),
    Fraction(50),
    Fraction(120),
    Fraction(500),
    Fraction(1000),
)

# relative half-width of the two-factor ratio enclosure is budgeted by the
# two stated radii over N; the recorded constant divides by their mass
RATIO_RADIUS_MASS = RATIO_RADIUS_1 + RATIO_RADIUS_2

# the one unguarded triple where p(n-ell) - p(n-ell-j) <= p(n) - p(n-j)
# fails: the empty partition avoids every part, but (1) does not avoid 1
INJECTION_COUNTEREXAMPLE = (1, 1, 1)


class _Recorder:
    """Counts cases and collects failure descriptions up to a cap."""

    __slots__ = ("cases", "failures", "overflow")

    def __init__(self) -> None:
        self.cases = 0
        self.failures: List[str] = []
        self.overflow = 0

    def check(self, passed: bool, message: str, *args: Any) -> None:
        """Count one case; a failed one records message % args, formatted
        only then, so passing cases pay no float conversion."""
        if passed:
            self.cases += 1
        else:
            self.fail(message % args)

    def fail(self, message: str) -> None:
        self.cases += 1
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(message)
        else:
            self.overflow += 1

    def close(self) -> None:
        if self.overflow:
            self.failures.append(f"... plus {self.overflow} more failures")


@dataclass
class SweepOptions:
    n_max: Optional[int] = None
    j_max: Optional[int] = None
    prec: int = DEFAULT_PRECISION
    seed: int = DEFAULT_SEED
    case: Optional[str] = None
    collect_rows: bool = False

    def j_cap(self, j_top: int) -> int:
        return j_top if self.j_max is None else min(j_top, self.j_max)


_Outcome = Tuple[_Recorder, Dict[str, Any], List[Dict[str, Any]]]


def _suite_oracles(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    rows: List[Dict[str, Any]] = []
    top = min(o.n_max if o.n_max is not None else 60, ENUMERATION_BOUND)
    for n in range(top + 1):
        expected = p_enumerate_oracle(n)
        got = p_exact(n)
        rec.check(got == expected, "p(%d): recurrence %d != enumeration %d",
                  n, got, expected)
        if o.collect_rows:
            rows.append(
                {"check": "partition-enumeration", "n": n, "value": str(got),
                 "passed": got == expected}
            )

    pairs = 0
    for k in range(1, 51):
        for h in range(1, k + 1):
            if math.gcd(h, k) != 1:
                continue
            pairs += 1
            lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
            rhs = Fraction(-1, 4) + (
                Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
            ) / 12
            rec.check(lhs == rhs, "reciprocity fails at (h, k) = (%d, %d)", h, k)

    residue_bound = Fraction(1, 2**64)
    max_residue = Fraction(0)
    for k in range(1, 51):
        for n in range(0, 201):
            amp = abs(to_fraction(kloosterman_A(k, n, o.prec)))
            residue = abs(to_fraction(kloosterman_imag_residue(k, n, o.prec)))
            max_residue = max(max_residue, residue)
            rec.check(
                amp <= k and residue < residue_bound,
                "A_%d(%d): |A| = %.3f (cap %d), residue = %.3e",
                k, n, amp, k, residue,
            )

    rel_bound = Fraction(1, 10**15)
    max_rel = Fraction(0)
    for x in BESSEL_GRID:
        closed = to_fraction(bessel_I32_closed(x, o.prec))
        quad = to_fraction(bessel_I32_quadrature(x, o.prec))
        rel = abs(closed - quad) / abs(closed)
        max_rel = max(max_rel, rel)
        ok = rel <= rel_bound
        rec.check(ok, "Bessel closed vs quadrature at x = %s: rel %.3e", x, rel)
        if o.collect_rows:
            rows.append(
                {"check": "bessel-agreement", "x": fraction_str(x),
                 "rel_error": float(rel), "passed": ok}
            )

    info = {
        "enumeration_top": top,
        "reciprocity_pairs": pairs,
        "max_kloosterman_residue": float(max_residue),
        "max_bessel_rel_error": float(max_rel),
    }
    return rec, info, rows


def _suite_rademacher(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    rows: List[Dict[str, Any]] = []
    rounds_top = o.n_max if o.n_max is not None else 2000
    prop_top = (3 * rounds_top) // 2
    default_table().ensure(prop_top)

    for n in range(1, rounds_top + 1):
        got = rademacher_round(n, o.prec)
        want = p_exact(n)
        rec.check(got == want, "round(%d) = %d, off by %d", n, got, got - want)
        if o.collect_rows:
            rows.append({"check": "round", "n": n, "passed": got == want})

    # the one-term truncation interval depends on (n, j) only through n - j,
    # so containment is decided once per distinct difference
    memo: Dict[int, Fraction] = {}
    for n in range(1, prop_top + 1):
        for j in range(0, o.j_cap(prop21_j_top(n)) + 1):
            m = n - j
            if m < 2:
                continue
            margin = memo.get(m)
            if margin is None:
                enc = proposition21_interval(n, j, o.prec)
                margin = memo[m] = enc.containment_margin(p_exact(m))
                if o.collect_rows:
                    rows.append(
                        {"check": "one-term-truncation", "m": m,
                         "contained": margin >= 0, "margin": float(margin)}
                    )
            rec.check(margin >= 0, "p(%d) escapes its one-term truncation interval", m)

    info = {
        "rounds_top": rounds_top,
        "truncation_top": prop_top,
        "worst_truncation_margin": optional_float(min(memo.values(), default=None)),
    }
    return rec, info, rows


def _suite_containment_ratio(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    rows: List[Dict[str, Any]] = []
    top = o.n_max if o.n_max is not None else 5000
    default_table().ensure(top)
    worst: Optional[Fraction] = None
    max_c: Optional[Fraction] = None
    max_c_at: Optional[Tuple[int, int]] = None
    for n in range(14, top + 1):
        pn = p_exact(n)
        for j in range(0, o.j_cap(ratio_j_top(n)) + 1):
            est = ratio_interval(n, j, o.prec)
            margin = est.product.containment_margin(Fraction(p_exact(n - j), pn))
            worst = margin if worst is None else min(worst, margin)
            rel = est.product.relative_width()
            # the relative half-width in units of the radius mass over N
            c = None if rel is None else rel * est.N / (2 * RATIO_RADIUS_MASS)
            if c is not None and (max_c is None or c > max_c):
                max_c, max_c_at = c, (n, j)
            rec.check(margin >= 0, "ratio(%d, %d): exact value escapes the enclosure", n, j)
            if o.collect_rows:
                rows.append(
                    {"n": n, "j": j, "contained": margin >= 0, "margin": float(margin),
                     "width_constant": optional_float(c)}
                )
    if max_c is not None and max_c > 2:
        rec.fail(
            f"relative width constant {float(max_c):.4f} at {max_c_at} exceeds 2"
        )
    info = {
        "n_top": top,
        "worst_margin": optional_float(worst),
        "max_width_constant": optional_float(max_c),
        "max_width_constant_at": None if max_c_at is None else str(max_c_at),
    }
    return rec, info, rows


def _suite_containment_fjn(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    rows: List[Dict[str, Any]] = []
    top = o.n_max if o.n_max is not None else 5000
    default_table().ensure(top)
    worst: Optional[Fraction] = None
    least: Optional[Enclosure] = None
    for n in range(14, top + 1):
        pn = p_exact(n)
        for j in range(1, o.j_cap(fjn_j_top(n)) + 1):
            total = fjn_ratio_interval(n, j, o.prec).total
            margin = total.containment_margin(Fraction(f_jn(n, j), pn))
            worst = margin if worst is None else min(worst, margin)
            least = _min_lo(least, total)
            rec.check(margin >= 0, "fjn(%d, %d): exact value escapes the enclosure", n, j)
            if o.collect_rows:
                rows.append(
                    {"n": n, "j": j, "contained": margin >= 0, "margin": float(margin)}
                )
    info = {
        "n_top": top,
        "worst_margin": optional_float(worst),
        "min_lower_endpoint": None if least is None else float(least.lo_fraction),
    }
    return rec, info, rows


def _suite_convexity(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    rows: List[Dict[str, Any]] = []
    top = o.n_max if o.n_max is not None else 10_000
    default_table().ensure(top)
    inj_top = min(top, 2000)

    # n <= 13 has no analytic license; every case must settle exactly
    for n in range(2, min(13, top) + 1):
        for j in range(1, o.j_cap(n // 2) + 1):
            cert = convexity_certificate(n, j, o.prec)
            rec.check(
                cert.holds and cert.kind is CertificateKind.EXACT,
                "convexity(%d, %d): holds=%s, kind=%s", n, j, cert.holds, cert.kind.value,
            )

    licensed = 0
    analytic = 0
    for n in range(14, top + 1):
        for j in range(1, o.j_cap(fjn_j_top(n)) + 1):
            cert = convexity_certificate(n, j, o.prec)
            licensed += 1
            if cert.kind is CertificateKind.ANALYTIC:
                analytic += 1
            rec.check(cert.holds, "convexity(%d, %d) does not hold", n, j)
            if o.collect_rows:
                rows.append({"n": n, "j": j, "kind": cert.kind.value, "holds": cert.holds})

    fraction_analytic = analytic / licensed if licensed else 0.0

    for n in range(0, inj_top + 1):
        for j in range(1, o.j_cap(20) + 1):
            for ell in range(0, 21):
                if (n, j, ell) == INJECTION_COUNTEREXAMPLE:
                    continue
                rec.check(
                    injection_inequality(n, j, ell),
                    "injection inequality fails at (n, j, ell) = (%d, %d, %d)", n, j, ell,
                )

    map_checks = 0
    for n in range(6, min(inj_top, 30) + 1, 3):
        for j in (1, 2, 3, 5):
            for ell in (0, j, j + 2):
                if ell >= n:
                    continue
                map_checks += 1
                mc = injection_map_check(n, j, ell)
                rec.check(
                    mc.injective and mc.preserves_avoidance,
                    "shift map at (n, j, ell) = (%d, %d, %d): injective=%s, preserves=%s",
                    n, j, ell, mc.injective, mc.preserves_avoidance,
                )

    info = {
        "n_top": top,
        "licensed_cases": licensed,
        "analytic_cases": analytic,
        "analytic_fraction": fraction_analytic,
        "analytic_target": 0.9,
        "analytic_target_met": fraction_analytic >= 0.9,
        "injection_top": inj_top,
        "unguarded_origin_triple": str(INJECTION_COUNTEREXAMPLE),
        "unguarded_origin_holds": injection_inequality(*INJECTION_COUNTEREXAMPLE),
        "map_instances": map_checks,
    }
    return rec, info, rows


def _suite_krank(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    rows: List[Dict[str, Any]] = []
    top = o.n_max if o.n_max is not None else 500
    # the largest index read is p(ell' + 1), ell' = n - k - m <= ceil(n/2) - 2
    default_table().ensure((top + 1) // 2 - 1)

    for n in range(4, min(30, top) + 1):
        for m in range(n // 2 + 1, n + 2):
            got = krank_boundary_value(2, m, n)
            want = dyson_rank_count(n, m)
            rec.check(
                got == want, "rank count at (m, n) = (%d, %d): %d != %d", m, n, got, want
            )

    # both enclosures and both exact values depend only on ell' = n - k - m,
    # so each distinct difference is decided once and replayed per (k, m, n)
    memo: Dict[int, Tuple[Fraction, Fraction]] = {}
    for k in range(1, 6):
        for n in range(2 * k + 33, top + 1):
            for m in range(n // 2 + 1, n - k - 16 + 1):
                lp = n - k - m
                margins = memo.get(lp)
                if margins is None:
                    denom = p_exact(lp + 1)
                    count = krank_boundary_value(k, m, n)
                    diff = count - krank_boundary_value(k, m + 1, n)
                    enc_r = krank_ratio_interval(k, m, n, o.prec)
                    enc_d = krank_diff_interval(k, m, n, o.prec)
                    margins = memo[lp] = (
                        enc_r.containment_margin(Fraction(count, denom)),
                        enc_d.containment_margin(Fraction(diff, denom)),
                    )
                    if o.collect_rows:
                        rows.append(
                            {"ell_prime": lp, "ratio_contained": margins[0] >= 0,
                             "ratio_margin": float(margins[0]),
                             "diff_contained": margins[1] >= 0,
                             "diff_margin": float(margins[1])}
                        )
                # a margin's sign is its numerator's; over half a million
                # replays that int test is far cheaper than margin >= 0
                margin_r, margin_d = margins
                where = (k, m, n)
                rec.check(margin_r.numerator >= 0,
                          "rank ratio at (k, m, n) = %s not contained", where)
                rec.check(margin_d.numerator >= 0,
                          "rank difference at (k, m, n) = %s not contained", where)

    # positivity of the difference enclosure's lower endpoint at the stated
    # floor ell' = 10^4; the numbers come out negative there (the radii are
    # far larger than the centered gap), which is reported, not failed
    probe = krank_diff_interval(1, 10_002, 20_003, o.prec)
    worst_ratio = min((r for r, _ in memo.values()), default=None)
    worst_diff = min((d for _, d in memo.values()), default=None)
    info = {
        "n_top": top,
        "distinct_differences": len(memo),
        "worst_ratio_margin": optional_float(worst_ratio),
        "worst_diff_margin": optional_float(worst_diff),
        "diff_lower_at_floor": float(probe.lo_fraction),
        "diff_positive_at_floor": probe.strictly_positive(),
    }
    return rec, info, rows


def _suite_nonkary(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    rows: List[Dict[str, Any]] = []
    top = o.n_max if o.n_max is not None else 10_000
    default_table().ensure(top)
    identity_top = min(top, 500)

    for n in range(2, identity_top + 1):
        for k in range(1, o.j_cap(n // 2) + 1):
            error = None
            try:
                nonkary_diff_check(n, k)
            except AssertionError as exc:
                error = exc
            rec.check(error is None, "identity at (n, k) = (%d, %d): %s", n, k, error)

    positives = 0
    for n in range(2, top + 1):
        for k in range(1, o.j_cap(fjn_j_top(n)) + 1):
            positives += 1
            rec.check(
                nonkary_diff_check(n, k),
                "avoided-part count not increasing at (n, k) = (%d, %d)", n, k,
            )

    info = {"identity_top": identity_top, "n_top": top, "licensed_cases": positives}
    return rec, info, rows


def _ineq_case_task(args: Tuple[str, int, int]) -> InequalityResult:
    name, prec, seed = args
    return run_case(name, prec=prec, seed=seed)


def _dispatch_order(names: List[str]) -> List[int]:
    """Indices of `names`, longest case first; equal costs keep their order."""
    return sorted(range(len(names)), key=lambda i: -CASE_INDEX[names[i]].cost)


def _run_inequality_cases(
    names: List[str], prec: int, seed: int
) -> List[InequalityResult]:
    workers = min(len(names), os.cpu_count() or 1)
    pool = None
    if workers > 1:
        # only a pool that cannot start falls back; a case's error propagates
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (ImportError, OSError, ValueError):
            pass
    if pool is None:
        return [run_case(name, prec=prec, seed=seed) for name in names]
    # longest-processing-time first, one case per task, so the longest case
    # does not start last behind a chunk of short ones
    order = _dispatch_order(names)
    with pool:
        done = pool.map(
            _ineq_case_task, [(names[i], prec, seed) for i in order], chunksize=1
        )
    by_index = dict(zip(order, done))
    return [by_index[i] for i in range(len(names))]


def _point_str(point: Tuple) -> str:
    return "(" + ", ".join(fraction_str(x) for x in point) + ")"


def _suite_inequalities(o: SweepOptions) -> _Outcome:
    rec = _Recorder()
    if o.case is not None:
        _lookup(o.case)
        names = [o.case]
    else:
        names = [case.name for case in CASES]
    results = _run_inequality_cases(names, o.prec, o.seed)
    rows: List[Dict[str, Any]] = []
    min_margin: Optional[Fraction] = None
    min_case = ""
    for result in results:
        point = _point_str(result.worst_point)
        rec.check(result.passed, "%s: worst margin %.3e at %s",
                  result.name, result.worst_margin, point)
        if min_margin is None or result.worst_margin < min_margin:
            min_margin, min_case = result.worst_margin, result.name
        rows.append(
            {
                "case": result.name,
                "points": result.points,
                "worst_margin": float(result.worst_margin),
                "worst_margin_exact": fraction_str(result.worst_margin),
                "worst_point": point,
                "passed": result.passed,
            }
        )
    info = {
        "cases": len(results),
        "min_margin": float(min_margin) if min_margin is not None else None,
        "min_margin_case": min_case,
        "seed": o.seed,
    }
    return rec, info, rows


_SUITES: Dict[str, Callable[[SweepOptions], _Outcome]] = {
    "oracles": _suite_oracles,
    "rademacher": _suite_rademacher,
    "containment-ratio": _suite_containment_ratio,
    "containment-fjn": _suite_containment_fjn,
    "convexity": _suite_convexity,
    "krank": _suite_krank,
    "nonkary": _suite_nonkary,
    "inequalities": _suite_inequalities,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    *,
    n_max: Optional[int] = None,
    j_max: Optional[int] = None,
    prec: int = DEFAULT_PRECISION,
    seed: int = DEFAULT_SEED,
    case: Optional[str] = None,
    collect_rows: bool = False,
) -> SuiteReport:
    """Run one named sweep and return its report."""
    runner = _SUITES.get(name)
    if runner is None:
        raise PreconditionError(
            f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
        )
    if case is not None and name != "inequalities":
        raise PreconditionError("--case only applies to the inequalities suite")
    if n_max is not None and n_max < 0:
        raise PreconditionError("requires n_max >= 0")
    if j_max is not None and j_max < 0:
        raise PreconditionError("requires j_max >= 0")
    options = SweepOptions(
        n_max=n_max,
        j_max=j_max,
        prec=prec,
        seed=seed,
        case=case,
        collect_rows=collect_rows,
    )
    started = time.perf_counter()
    rec, info, rows = runner(options)
    rec.close()
    return SuiteReport(
        suite=name,
        cases=rec.cases,
        failures=rec.failures,
        info=info,
        rows=rows,
        seconds=time.perf_counter() - started,
    )

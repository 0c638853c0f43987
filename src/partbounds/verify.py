"""Verification sweeps: each suite exercises one block of the library at
full scale and reports counted cases, failures, and worst observed margins.

Default ranges are the ones the package promises to satisfy, so running
every suite back to back is the complete verification gate; the acceptance
tests read these reports instead of sweeping a second time.  Sweep loops
are deterministic; only the inequality registry fans out across worker
processes.  Its cases are dispatched longest first, one at a time, and the
results are reassembled in registry order, so parallel and sequential runs
produce identical reports.

Where a checked value depends on its indices only through one key (m = n - j
for the one-term truncation, ell' = n - k - m for the k-rank estimates,
n mod k for A_k(n)), each distinct key is decided once and counts, by a
closed form, every index tuple it stands for.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

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
    _min_lo,
    run_case,
)
from .rademacher import proposition21_interval, rademacher_round
from .reports import SuiteReport, fraction_str, optional_float
from .special import (
    bessel_I32_closed,
    bessel_I32_series,
    dedekind_sum,
    kloosterman_A,
    kloosterman_imag_residue,
    to_fraction,
)

FAILURE_CAP = 200

# x values for closed-form vs power-series Bessel agreement; spans the
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


@dataclass
class _Sweep:
    """One run of a suite: its ranges and precision, the cases it counted,
    its failure descriptions up to a cap, and its CSV rows (None unless
    asked for)."""

    n_max: Optional[int] = None
    j_max: Optional[int] = None
    prec: int = DEFAULT_PRECISION
    seed: int = DEFAULT_SEED
    case: Optional[str] = None
    rows: Optional[List[Dict[str, Any]]] = None
    cases: int = 0
    failures: List[str] = field(default_factory=list)
    overflow: int = 0

    def j_cap(self, j_top: int) -> int:
        return j_top if self.j_max is None else min(j_top, self.j_max)

    def check(self, passed: bool, message: str, *args: Any, count: int = 1) -> None:
        """Count `count` cases decided by one verdict; a failed one records
        message % args, formatted only then, so passing cases pay no float
        conversion."""
        if passed:
            self.cases += count
        else:
            self.fail(message % args, count)

    def fail(self, message: str, count: int = 1) -> None:
        self.cases += count
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(message)
        else:
            self.overflow += 1

    def close(self) -> None:
        if self.overflow:
            self.failures.append(f"... plus {self.overflow} more failures")


def _suite_oracles(sweep: _Sweep) -> Dict[str, Any]:
    top = min(sweep.n_max, ENUMERATION_BOUND)
    for n in range(top + 1):
        expected = p_enumerate_oracle(n)
        got = p_exact(n)
        sweep.check(got == expected, "p(%d): recurrence %d != enumeration %d",
                    n, got, expected)
        if sweep.rows is not None:
            sweep.rows.append(
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
            sweep.check(lhs == rhs, "reciprocity fails at (h, k) = (%d, %d)", h, k)

    # A_k(n) depends on n only through r = n mod k, so each (k, r) is
    # decided once and counts the (200 - r) // k + 1 values n <= 200 it stands for
    residue_bound = Fraction(1, 2**64)
    max_residue = Fraction(0)
    for k in range(1, 51):
        for r in range(k):
            amp = abs(to_fraction(kloosterman_A(k, r, sweep.prec)))
            residue = abs(to_fraction(kloosterman_imag_residue(k, r, sweep.prec)))
            max_residue = max(max_residue, residue)
            count = (200 - r) // k + 1
            sweep.check(
                amp <= k and residue < residue_bound,
                "A_%d(n) for n = %d mod %d: |A| = %.3f (cap %d), residue = %.3e at %d bits "
                "(%d values of n <= 200, first %d)",
                k, r, k, amp, k, residue, sweep.prec, count, r, count=count,
            )

    rel_bound = Fraction(1, 10**15)
    max_rel = Fraction(0)
    for x in BESSEL_GRID:
        closed = to_fraction(bessel_I32_closed(x, sweep.prec))
        series = to_fraction(bessel_I32_series(x, sweep.prec))
        rel = abs(closed - series) / abs(closed)
        max_rel = max(max_rel, rel)
        ok = rel <= rel_bound
        sweep.check(ok, "Bessel closed vs series at x = %s: rel %.3e", x, rel)
        if sweep.rows is not None:
            sweep.rows.append(
                {"check": "bessel-agreement", "x": fraction_str(x),
                 "rel_error": float(rel), "passed": ok}
            )

    return {
        "enumeration_top": top,
        "reciprocity_pairs": pairs,
        "max_kloosterman_residue": float(max_residue),
        "max_bessel_rel_error": float(max_rel),
    }


def _suite_rademacher(sweep: _Sweep) -> Dict[str, Any]:
    rounds_top = sweep.n_max
    prop_top = (3 * rounds_top) // 2
    default_table().ensure(prop_top)

    for n in range(1, rounds_top + 1):
        got = rademacher_round(n, sweep.prec)
        want = p_exact(n)
        sweep.check(got == want, "round(%d) = %d, off by %d", n, got, got - want)
        if sweep.rows is not None:
            sweep.rows.append({"check": "round", "n": n, "passed": got == want})

    # the one-term truncation interval depends on (n, j) only through
    # m = n - j, so each m is decided once, at (m, 0), and counts the pairs it
    # stands for: j^2 < m + j, i.e. j <= (1 + isqrt(4m - 3)) // 2, and n <= prop_top
    worst: Optional[Fraction] = None
    for m in range(2, prop_top + 1):
        pairs = min(sweep.j_cap((1 + math.isqrt(4 * m - 3)) // 2), prop_top - m) + 1
        margin = proposition21_interval(m, 0, sweep.prec).containment_margin(p_exact(m))
        worst = margin if worst is None else min(worst, margin)
        sweep.check(
            margin >= 0,
            "p(%d) escapes its one-term truncation interval, margin %.3e at %d bits "
            "(%d pairs (n, j) with n - j = %d)",
            m, margin, sweep.prec, pairs, m, count=pairs,
        )
        if sweep.rows is not None:
            sweep.rows.append(
                {"check": "one-term-truncation", "m": m,
                 "contained": margin >= 0, "margin": float(margin)}
            )

    return {
        "rounds_top": rounds_top,
        "truncation_top": prop_top,
        "worst_truncation_margin": optional_float(worst),
    }


def _suite_containment_ratio(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    default_table().ensure(top)
    worst: Optional[Fraction] = None
    max_c: Optional[Fraction] = None
    max_c_at: Optional[Tuple[int, int]] = None
    for n in range(14, top + 1):
        pn = p_exact(n)
        for j in range(0, sweep.j_cap(ratio_j_top(n)) + 1):
            est = ratio_interval(n, j, sweep.prec)
            margin = est.product.containment_margin(Fraction(p_exact(n - j), pn))
            worst = margin if worst is None else min(worst, margin)
            rel = est.product.relative_width()
            # the relative half-width in units of the radius mass over N
            c = None if rel is None else rel * est.N / (2 * RATIO_RADIUS_MASS)
            if c is not None and (max_c is None or c > max_c):
                max_c, max_c_at = c, (n, j)
            sweep.check(
                margin >= 0,
                "ratio(%d, %d): exact value escapes the enclosure, margin %.3e at %d bits",
                n, j, margin, sweep.prec,
            )
            if sweep.rows is not None:
                sweep.rows.append(
                    {"n": n, "j": j, "contained": margin >= 0, "margin": float(margin),
                     "width_constant": optional_float(c)}
                )
    if max_c is not None and max_c > 2:
        sweep.fail(
            f"relative width constant {float(max_c):.4f} at {max_c_at} exceeds 2"
        )
    return {
        "n_top": top,
        "worst_margin": optional_float(worst),
        "max_width_constant": optional_float(max_c),
        "max_width_constant_at": None if max_c_at is None else str(max_c_at),
    }


def _suite_containment_fjn(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    default_table().ensure(top)
    worst: Optional[Fraction] = None
    least: Optional[Enclosure] = None
    for n in range(14, top + 1):
        pn = p_exact(n)
        for j in range(1, sweep.j_cap(fjn_j_top(n)) + 1):
            total = fjn_ratio_interval(n, j, sweep.prec).total
            margin = total.containment_margin(Fraction(f_jn(n, j), pn))
            worst = margin if worst is None else min(worst, margin)
            least = _min_lo(least, total)
            sweep.check(
                margin >= 0,
                "fjn(%d, %d): exact value escapes the enclosure, margin %.3e at %d bits",
                n, j, margin, sweep.prec,
            )
            if sweep.rows is not None:
                sweep.rows.append(
                    {"n": n, "j": j, "contained": margin >= 0, "margin": float(margin)}
                )
    return {
        "n_top": top,
        "worst_margin": optional_float(worst),
        "min_lower_endpoint": None if least is None else float(least.lo_fraction),
    }


def _suite_convexity(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    default_table().ensure(top)
    inj_top = min(top, 2000)

    # n <= 13 has no analytic license; every case must settle exactly
    for n in range(2, min(13, top) + 1):
        for j in range(1, sweep.j_cap(n // 2) + 1):
            cert = convexity_certificate(n, j, sweep.prec)
            sweep.check(
                cert.holds and cert.kind is CertificateKind.EXACT,
                "convexity(%d, %d): holds=%s, kind=%s", n, j, cert.holds, cert.kind.value,
            )

    licensed = 0
    analytic = 0
    for n in range(14, top + 1):
        for j in range(1, sweep.j_cap(fjn_j_top(n)) + 1):
            cert = convexity_certificate(n, j, sweep.prec)
            licensed += 1
            if cert.kind is CertificateKind.ANALYTIC:
                analytic += 1
            sweep.check(cert.holds, "convexity(%d, %d) does not hold", n, j)
            if sweep.rows is not None:
                sweep.rows.append(
                    {"n": n, "j": j, "kind": cert.kind.value, "holds": cert.holds}
                )

    fraction_analytic = analytic / licensed if licensed else 0.0

    for n in range(0, inj_top + 1):
        for j in range(1, sweep.j_cap(20) + 1):
            for ell in range(0, 21):
                if (n, j, ell) == INJECTION_COUNTEREXAMPLE:
                    continue
                sweep.check(
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
                sweep.check(
                    mc.injective and mc.preserves_avoidance,
                    "shift map at (n, j, ell) = (%d, %d, %d): injective=%s, preserves=%s",
                    n, j, ell, mc.injective, mc.preserves_avoidance,
                )

    return {
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


def _suite_krank(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    # the largest index read is p(ell' + 1), ell' = n - k - m <= ceil(n/2) - 2
    default_table().ensure((top + 1) // 2 - 1)

    for n in range(4, min(30, top) + 1):
        for m in range(n // 2 + 1, n + 2):
            got = krank_boundary_value(2, m, n)
            want = dyson_rank_count(n, m)
            sweep.check(
                got == want, "rank count at (m, n) = (%d, %d): %d != %d", m, n, got, want
            )

    # both enclosures and both exact values depend on (k, m, n) only through
    # ell' = n - k - m, so each ell' >= 16 is decided once, at the triple
    # (1, ell' + 2, 2 ell' + 3), and counts the triples it stands for: for
    # each k <= 5, every n <= top with m > n/2, i.e. n >= 2(ell' + k) + 1
    worst_ratio: Optional[Fraction] = None
    worst_diff: Optional[Fraction] = None
    shifts = range(16, (top + 1) // 2 - 1)
    for lp in shifts:
        triples = sum(max(0, top - 2 * (lp + k)) for k in range(1, 6))
        m, n = lp + 2, 2 * lp + 3
        denom = p_exact(lp + 1)
        count = krank_boundary_value(1, m, n)
        diff = count - krank_boundary_value(1, m + 1, n)
        margin_r = krank_ratio_interval(1, m, n, sweep.prec).containment_margin(
            Fraction(count, denom)
        )
        margin_d = krank_diff_interval(1, m, n, sweep.prec).containment_margin(
            Fraction(diff, denom)
        )
        worst_ratio = margin_r if worst_ratio is None else min(worst_ratio, margin_r)
        worst_diff = margin_d if worst_diff is None else min(worst_diff, margin_d)
        for what, margin in (("ratio", margin_r), ("difference", margin_d)):
            sweep.check(
                margin >= 0,
                "rank %s at ell' = %d not contained, margin %.3e at %d bits "
                "(%d triples (k, m, n), first (1, %d, %d))",
                what, lp, margin, sweep.prec, triples, m, n, count=triples,
            )
        if sweep.rows is not None:
            sweep.rows.append(
                {"ell_prime": lp, "ratio_contained": margin_r >= 0,
                 "ratio_margin": float(margin_r),
                 "diff_contained": margin_d >= 0,
                 "diff_margin": float(margin_d)}
            )

    # positivity of the difference enclosure's lower endpoint at the stated
    # floor ell' = 10^4; the numbers come out negative there (the radii are
    # far larger than the centered gap), which is reported, not failed
    probe = krank_diff_interval(1, 10_002, 20_003, sweep.prec)
    return {
        "n_top": top,
        "distinct_differences": len(shifts),
        "worst_ratio_margin": optional_float(worst_ratio),
        "worst_diff_margin": optional_float(worst_diff),
        "diff_lower_at_floor": float(probe.lo_fraction),
        "diff_positive_at_floor": probe.strictly_positive(),
    }


def _suite_nonkary(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    default_table().ensure(top)
    identity_top = min(top, 500)

    for n in range(2, identity_top + 1):
        for k in range(1, sweep.j_cap(n // 2) + 1):
            error = None
            try:
                nonkary_diff_check(n, k)
            except AssertionError as exc:
                error = exc
            sweep.check(error is None, "identity at (n, k) = (%d, %d): %s", n, k, error)

    positives = 0
    for n in range(2, top + 1):
        for k in range(1, sweep.j_cap(fjn_j_top(n)) + 1):
            positives += 1
            sweep.check(
                nonkary_diff_check(n, k),
                "avoided-part count not increasing at (n, k) = (%d, %d)", n, k,
            )

    return {"identity_top": identity_top, "n_top": top, "licensed_cases": positives}


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


def _suite_inequalities(sweep: _Sweep) -> Dict[str, Any]:
    names = [case.name for case in CASES] if sweep.case is None else [sweep.case]
    results = _run_inequality_cases(names, sweep.prec, sweep.seed)
    # one row per case is the registry's report, so the rows are always kept
    sweep.rows = []
    min_margin: Optional[Fraction] = None
    min_case = ""
    for result in results:
        point = _point_str(result.worst_point)
        sweep.check(result.passed, "%s: worst margin %.3e at %s",
                    result.name, result.worst_margin, point)
        if min_margin is None or result.worst_margin < min_margin:
            min_margin, min_case = result.worst_margin, result.name
        sweep.rows.append(
            {
                "case": result.name,
                "points": result.points,
                "worst_margin": float(result.worst_margin),
                "worst_margin_exact": fraction_str(result.worst_margin),
                "worst_point": point,
                "passed": result.passed,
            }
        )
    return {
        "cases": len(results),
        "min_margin": float(min_margin) if min_margin is not None else None,
        "min_margin_case": min_case,
        "seed": sweep.seed,
    }


# name: (suite, default n_max, largest accepted n_max or None).  A ceiling
# keeps its suite under 300 s on a 2-vCPU VM.  Extrapolated from the cost at
# the default range (rademacher's rounds grow about linearly in n; ratio
# 0.26 ms, fjn 0.34 ms and convexity 0.08 ms a licensed case), one run at
# each ceiling took 180, 138, 153 and 181 s.  The others fit at the table
# ceiling: krank took 59 s at n_max 200001, nonkary 33 s at 100000.
_SUITES = {
    "oracles": (_suite_oracles, 60, None),  # clamps at ENUMERATION_BOUND
    "rademacher": (_suite_rademacher, 2000, 6000),
    "containment-ratio": (_suite_containment_ratio, 5000, 15_000),
    "containment-fjn": (_suite_containment_fjn, 5000, 20_000),
    "convexity": (_suite_convexity, 10_000, 50_000),
    "krank": (_suite_krank, 500, None),
    "nonkary": (_suite_nonkary, 10_000, None),
    "inequalities": (_suite_inequalities, None, None),  # reads no n_max
}

SUITE_NAMES = tuple(_SUITES)

# the suites whose ranges --n-max and --j-max restrict; the others never read them
N_MAX_SUITES = tuple(name for name, (_, default, _) in _SUITES.items() if default is not None)
J_MAX_SUITES = ("rademacher", "containment-ratio", "containment-fjn", "convexity", "nonkary")


def run_suite(
    name: str,
    *,
    n_max: Optional[int] = None,
    j_max: Optional[int] = None,
    prec: int = DEFAULT_PRECISION,
    seed: Optional[int] = None,
    case: Optional[str] = None,
    collect_rows: bool = False,
) -> SuiteReport:
    """Run one named sweep and return its report.  n_max None takes the
    suite's default range, seed None the registry's DEFAULT_SEED; one past
    the suite's ceiling, or any n_max, j_max or seed for a suite that reads
    none, exits before any case."""
    if name not in _SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
        )
    runner, default_n_max, ceiling = _SUITES[name]
    if case is not None and name != "inequalities":
        raise PreconditionError("--case only applies to the inequalities suite")
    if n_max is not None and n_max < 0:
        raise PreconditionError("requires n_max >= 0")
    if n_max is not None and ceiling is not None and n_max > ceiling:
        raise PreconditionError(f"suite {name} requires n_max <= {ceiling} (suite ceiling)")
    if j_max is not None and j_max < 0:
        raise PreconditionError("requires j_max >= 0")
    if j_max is not None and name not in J_MAX_SUITES:
        raise PreconditionError(f"suite {name} reads no j_max; --j-max applies to "
                                f"{', '.join(J_MAX_SUITES)}")
    if n_max is not None and name not in N_MAX_SUITES:
        raise PreconditionError(f"suite {name} reads no n_max; --n-max applies to "
                                f"{', '.join(N_MAX_SUITES)}")
    if seed is not None and name != "inequalities":
        raise PreconditionError(f"suite {name} reads no seed; --seed applies to inequalities")
    sweep = _Sweep(
        n_max=default_n_max if n_max is None else n_max,
        j_max=j_max,
        prec=prec,
        seed=DEFAULT_SEED if seed is None else seed,
        case=case,
        rows=[] if collect_rows else None,
    )
    started = time.perf_counter()
    info = runner(sweep)
    sweep.close()
    return SuiteReport(
        suite=name,
        cases=sweep.cases,
        failures=sweep.failures,
        info=info,
        rows=sweep.rows or [],
        seconds=time.perf_counter() - started,
    )

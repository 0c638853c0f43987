"""Verification sweeps: each suite exercises one block of the library at
full scale and reports counted cases, failures, and worst observed margins.

Default ranges are the ones the package promises to satisfy, so running
every suite back to back is the complete verification gate; the acceptance
tests read these reports instead of sweeping a second time.  Sweep loops
are deterministic; only the inequality registry fans out across worker
processes.  The pool's unit is a domain, the cases that share one sampler
and budget and so one sweep of its points (inequalities.run_domain).  The
domains are dispatched longest first, by the summed cost of their cases, one
at a time, and the results are collected in registry order, so parallel and
sequential runs produce identical reports.  A run of one --case calls
inequalities.run_case, the same sweep over that one name.

Each row of _SUITES names the parameters its suite reads, the one source
of their routing: run_suites refuses bad input (an unread parameter, a
negative bound, an n_max past a ceiling, an unknown case) for every named
suite before the first case of the first one runs, then runs each suite
through run_suite with only the n_max, j_max, seed and case it reads.

Every check that an exact value lies in its enclosure is decided in
_Sweep.contained, by one exact containment margin: its sign is the verdict,
its least value per check goes to the report, and a failure names it with
the precision.

The convexity suite owns the two shift checks behind the paper's convexity
property: the injection inequality p(n - ell) - p(n - ell - j) <= p(n) -
p(n - j), decided on difference lists read from the exact table, and the map
that witnesses it, adding ell to the largest part, run on partition listings
the suite checks itself.

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
from functools import partial
from itertools import repeat
from operator import contains, eq
from typing import Any, Dict, List, Optional, Sequence, Tuple

from mpmath import libmp

from .enclosure import DEFAULT_PRECISION, Enclosure, fraction_from_raw
from .errors import PreconditionError
from .estimates import (
    RATIO_RADIUS_1,
    RATIO_RADIUS_2,
    CertificateKind,
    convexity_certificate,
    fjn_j_top,
    fjn_ratio_interval,
    krank_boundary_value,
    krank_diff_interval,
    krank_ratio_interval,
    nonkary_diff_check,
    ratio_interval,
    ratio_j_top,
)
from .exact import (
    ENUMERATION_BOUND,
    TABLE_CEILING,
    default_table,
    dyson_rank_count,
    enumerate_partitions,
    f_jn,
    nu_k,
    p_enumerate_oracle,
    p_exact,
    series_delta_coeffs,
    shifted_index,
)
from .inequalities import (
    CASE_INDEX,
    CASES,
    DEFAULT_SEED,
    InequalityResult,
    _lookup,
    group_by_domain,
    run_case,
    run_domain,
)
from .rademacher import proposition21_interval, rademacher_round
from .reports import SuiteReport, fraction_str, optional_float
from .special import (
    _dedekind_scaled,
    bessel_I32_closed,
    bessel_I32_series,
    kloosterman_A,
    kloosterman_imag_residue,
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

# Selberg's form of A_k(n) in floats agrees with kloosterman_A to 5.3e-15 for
# every k <= 50; each of its at most 2k = 100 float cosines and the scale
# sqrt(k/3) <= 4.1 are rounded to within a few units in 2^-53, so 10^-12
# leaves room and still fails any value off by a wrong residue class
SELBERG_TOLERANCE = 1e-12

# relative half-width of the two-factor ratio enclosure is budgeted by the
# two stated radii over N; the recorded constant divides by their mass
RATIO_RADIUS_MASS = RATIO_RADIUS_1 + RATIO_RADIUS_2

# the one unguarded triple where p(n-ell) - p(n-ell-j) <= p(n) - p(n-j)
# fails: the empty partition avoids every part, but (1) does not avoid 1
INJECTION_COUNTEREXAMPLE = (1, 1, 1)


@dataclass
class _Sweep:
    """One run of a suite: its ranges and precision, the cases it counted,
    its failure descriptions up to a cap, the least containment margin of
    each of its containment checks, and its CSV rows (None unless asked
    for)."""

    n_max: Optional[int] = None
    j_max: Optional[int] = None
    prec: int = DEFAULT_PRECISION
    seed: int = DEFAULT_SEED
    case: Optional[str] = None
    rows: Optional[List[Dict[str, Any]]] = None
    cases: int = 0
    failures: List[str] = field(default_factory=list)
    overflow: int = 0
    worst: Dict[str, Fraction] = field(default_factory=dict)

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

    def contained(self, key: str, enclosure: Enclosure, exact: Any, message: str,
                  *args: Any, tail: Tuple = ("",), count: int = 1) -> Fraction:
        """Decide that the exact value lies in the enclosure, keep the least
        margin under `key` in `worst`, and count `count` cases; a failure
        records message % args, the margin and the precision, then the
        format tail[0] % tail[1:].  Returns the margin."""
        margin = enclosure.containment_margin(exact)
        self.worst[key] = min(self.worst.get(key, margin), margin)
        self.check(margin >= 0, message + ", margin %.3e at %d bits" + tail[0],
                   *args, margin, self.prec, *tail[1:], count=count)
        return margin

    def row(self, **fields: Any) -> None:
        """Keep one CSV row, when rows were asked for."""
        if self.rows is not None:
            self.rows.append(fields)

    def fail(self, message: str, count: int = 1) -> None:
        self.cases += count
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(message)
        else:
            self.overflow += 1

    def close(self) -> None:
        if self.overflow:
            self.failures.append(f"... plus {self.overflow} more failures")


def _selberg_values(k: int) -> List[float]:
    """A_k(r) for r = 0..k-1 by Selberg's formula (Johansson 2012, sec. 2),
        A_k(n) = sqrt(k/3) sum (-1)^l cos((6l + 1) pi / 6k)
    over 0 <= l < 2k with (3l^2 + l)/2 = -n mod k, in floats: one pass over l
    adds each term to the sum of its residue class.  No Dedekind sum enters,
    so it is independent of kloosterman_A."""
    sums = [0.0] * k
    for l in range(2 * k):
        term = math.cos((6 * l + 1) * math.pi / (6 * k))
        sums[-(3 * l * l + l) // 2 % k] += -term if l & 1 else term
    scale = math.sqrt(k / 3)
    return [scale * total for total in sums]


def _suite_oracles(sweep: _Sweep) -> Dict[str, Any]:
    top = min(sweep.n_max, ENUMERATION_BOUND)
    for n in range(top + 1):
        expected = p_enumerate_oracle(n)
        got = p_exact(n)
        sweep.check(got == expected, "p(%d): recurrence %d != enumeration %d",
                    n, got, expected)
        sweep.row(check="partition-enumeration", n=n, value=str(got), passed=got == expected)

    # s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/hk)/12 times 12h^2k^2, on the
    # integers 4k^2 s(h,k) that the Kloosterman phases read
    pairs = 0
    for k in range(1, 51):
        for h in range(1, k + 1):
            if math.gcd(h, k) != 1:
                continue
            pairs += 1
            lhs = 3 * h * h * _dedekind_scaled(h % k, k) + 3 * k * k * _dedekind_scaled(k % h, h)
            sweep.check(lhs == h * k * (h * h + k * k + 1 - 3 * h * k),
                        "reciprocity fails at (h, k) = (%d, %d)", h, k)

    # A_k(n) depends on n only through r = n mod k, so each (k, r) is
    # decided once and counts the (200 - r) // k + 1 values n <= 200 it stands
    # for; its value must also match Selberg's form
    residue_bound = Fraction(1, 2**64)
    max_residue = Fraction(0)
    max_deviation = 0.0
    for k in range(1, 51):
        selberg = _selberg_values(k)
        for r in range(k):
            value = fraction_from_raw(kloosterman_A(k, r, sweep.prec))
            residue = fraction_from_raw(kloosterman_imag_residue(k, r, sweep.prec))
            amp = abs(value)
            deviation = abs(float(value) - selberg[r])
            max_residue = max(max_residue, residue)
            max_deviation = max(max_deviation, deviation)
            count = (200 - r) // k + 1
            sweep.check(
                amp <= k and residue < residue_bound and deviation <= SELBERG_TOLERANCE,
                "A_%d(n) for n = %d mod %d: |A| = %.3f (cap %d), residue = %.3e, "
                "Selberg form off by %.3e at %d bits (%d values of n <= 200, first %d)",
                k, r, k, amp, k, residue, deviation, sweep.prec, count, r, count=count,
            )

    rel_bound = Fraction(1, 10**15)
    max_rel = Fraction(0)
    for x in BESSEL_GRID:
        closed = fraction_from_raw(bessel_I32_closed(x, sweep.prec))
        series = fraction_from_raw(bessel_I32_series(x, sweep.prec))
        rel = abs(closed - series) / abs(closed)
        max_rel = max(max_rel, rel)
        ok = rel <= rel_bound
        sweep.check(ok, "Bessel closed vs series at x = %s: rel %.3e", x, rel)
        sweep.row(check="bessel-agreement", x=fraction_str(x), rel_error=float(rel), passed=ok)

    return {
        "enumeration_top": top,
        "reciprocity_pairs": pairs,
        "max_kloosterman_residue": float(max_residue),
        "max_selberg_deviation": max_deviation,
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
        sweep.row(check="round", n=n, passed=got == want)

    # the one-term truncation interval of p(n - j) depends on (n, j) only
    # through m = n - j, so each m is decided once and counts the pairs it
    # stands for: j^2 < m + j, i.e. j <= (1 + isqrt(4m - 3)) // 2, and n <= prop_top
    for m in range(2, prop_top + 1):
        pairs = min(sweep.j_cap((1 + math.isqrt(4 * m - 3)) // 2), prop_top - m) + 1
        margin = sweep.contained(
            "truncation", proposition21_interval(m, sweep.prec), p_exact(m),
            "p(%d) escapes its one-term truncation interval", m,
            tail=(" (%d pairs (n, j) with n - j = %d)", pairs, m), count=pairs,
        )
        sweep.row(check="one-term-truncation", m=m, contained=margin >= 0, margin=float(margin))

    return {
        "rounds_top": rounds_top,
        "truncation_top": prop_top,
        "worst_truncation_margin": optional_float(sweep.worst.get("truncation")),
    }


def _suite_containment_ratio(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    default_table().ensure(top)
    max_c: Optional[Fraction] = None
    max_c_at: Optional[Tuple[int, int]] = None
    mass = 2 * RATIO_RADIUS_MASS
    for n in range(14, top + 1):
        pn = p_exact(n)
        N = shifted_index(n)
        for j in range(0, sweep.j_cap(ratio_j_top(n)) + 1):
            est = ratio_interval(n, j, sweep.prec)
            margin = sweep.contained("ratio", est, Fraction(p_exact(n - j), pn),
                                     "ratio(%d, %d): exact value escapes the enclosure", n, j)
            rel = est.relative_width()
            # the relative half-width in units of the radius mass over N,
            # rel * N / (2 * RATIO_RADIUS_MASS) as one Fraction
            c = None if rel is None else Fraction(
                rel.numerator * N.numerator * mass.denominator,
                rel.denominator * N.denominator * mass.numerator,
            )
            if c is not None and (max_c is None or c > max_c):
                max_c, max_c_at = c, (n, j)
            sweep.row(n=n, j=j, contained=margin >= 0, margin=float(margin),
                      width_constant=optional_float(c))
    # one verdict on the cases counted above, so it adds none
    if max_c is not None and max_c > 2:
        sweep.fail(
            f"relative width constant {float(max_c):.4f} at {max_c_at} exceeds 2", count=0
        )
    return {
        "n_top": top,
        "worst_margin": optional_float(sweep.worst.get("ratio")),
        "max_width_constant": optional_float(max_c),
        "max_width_constant_at": None if max_c_at is None else str(max_c_at),
    }


def _suite_containment_fjn(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    default_table().ensure(top)
    least = None  # the least raw lower end
    for n in range(14, top + 1):
        pn = p_exact(n)
        for j in range(1, sweep.j_cap(fjn_j_top(n)) + 1):
            total = fjn_ratio_interval(n, j, sweep.prec)
            margin = sweep.contained("fjn", total, Fraction(f_jn(n, j), pn),
                                     "fjn(%d, %d): exact value escapes the enclosure", n, j)
            if least is None or libmp.mpf_lt(total.lo, least):
                least = total.lo
            sweep.row(n=n, j=j, contained=margin >= 0, margin=float(margin))
    return {
        "n_top": top,
        "worst_margin": optional_float(sweep.worst.get("fjn")),
        "min_lower_endpoint": None if least is None else float(fraction_from_raw(least)),
    }


def _differences(j: int, ms) -> list:
    """D_j[m] = p(m) - p(m - j) for each m in ms, with p(m < 0) = 0: the one
    source of both sides of the injection inequality, which reads
    p(n - ell) - p(n - ell - j) <= p(n) - p(n - j), i.e. D_j[n - ell] <= D_j[n]."""
    return [p_exact(m) - p_exact(m - j) for m in ms]


_descending = partial(sorted, reverse=True)


def _checked_partitions(sweep: _Sweep, m: int) -> list:
    """The partitions of m >= 1, listed once and each checked, once, to sum
    to m in non-increasing order; a caller may map the list several times.
    A listing that fails is a failure naming m that counts no case: the
    maps of the list count them."""
    partitions = list(enumerate_partitions(m))
    sweep.check(
        set(map(sum, partitions)) == {m}
        and all(map(eq, map(list, partitions), map(_descending, partitions))),
        "partition listing of %d: empty, or a part list that does not sum to %d "
        "in non-increasing order", m, m, count=0,
    )
    return partitions


def _shift_map(partitions: list, j: int, ell: int) -> Tuple[bool, bool]:
    """The shift map on the checked partitions of n - ell >= 1: it sends each
    partition avoiding part j to a partition of n by adding ell >= 0 to its
    largest part, which keeps it non-increasing, so the images need no check
    of their own.  Returns whether the map is injective and whether every
    image still avoids j."""
    domain = [parts for parts in partitions if j not in parts]
    if ell == 0:
        images = domain
    else:
        images = [(parts[0] + ell,) + parts[1:] for parts in domain]
    return len(set(images)) == len(domain), not any(map(contains, images, repeat(j)))


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
            sweep.row(n=n, j=j, kind=cert.kind.value, holds=cert.holds)

    fraction_analytic = analytic / licensed if licensed else 0.0

    # the injection inequality at (n, j, ell) is D_j[n - ell] <= D_j[n]; each list
    # starts at m = -20, so d[n + 20 - ell] is D_j[n - ell].  The 21 cases of
    # one (n, j) hold together when the largest left-hand side does;
    # otherwise each is decided on its own
    diffs = [_differences(j, range(-20, inj_top + 1)) for j in range(1, sweep.j_cap(20) + 1)]
    for n in range(0, inj_top + 1):
        for j, d in enumerate(diffs, 1):
            rhs = d[n + 20]
            if max(d[n:n + 21]) <= rhs and (n, j) != INJECTION_COUNTEREXAMPLE[:2]:
                sweep.check(True, "", count=21)
                continue
            for ell in range(0, 21):
                if (n, j, ell) == INJECTION_COUNTEREXAMPLE:
                    continue
                sweep.check(
                    d[n + 20 - ell] <= rhs,
                    "injection inequality fails at (n, j, ell) = (%d, %d, %d)", n, j, ell,
                )

    # the maps run grouped by m = n - ell, so each list of partitions is made
    # and checked once, and only one list is held at a time (all of them at
    # once add about 2 MB to the sweep's peak); the verdicts are recorded in
    # the order of the triples
    triples = [
        (n, j, ell)
        for n in range(6, min(inj_top, 30) + 1, 3)
        for j in (1, 2, 3, 5)
        for ell in (0, j, j + 2)
        if ell < n
    ]
    maps = {}
    for m in {n - ell for n, _, ell in triples}:
        partitions = _checked_partitions(sweep, m)
        maps.update(((n, j, ell), _shift_map(partitions, j, ell))
                    for n, j, ell in triples if n - ell == m)
    for triple in triples:
        injective, preserves = maps[triple]
        sweep.check(
            injective and preserves,
            "shift map at (n, j, ell) = (%d, %d, %d): injective=%s, preserves=%s",
            *triple, injective, preserves,
        )

    # the one triple the sweep skips, decided on the exact table all the same
    n, j, ell = INJECTION_COUNTEREXAMPLE
    lhs, rhs = _differences(j, (n - ell, n))

    return {
        "n_top": top,
        "licensed_cases": licensed,
        "analytic_cases": analytic,
        "analytic_fraction": fraction_analytic,
        "analytic_target": 0.9,
        "analytic_target_met": fraction_analytic >= 0.9,
        "injection_top": inj_top,
        "unguarded_origin_triple": str(INJECTION_COUNTEREXAMPLE),
        "unguarded_origin_holds": lhs <= rhs,
        "map_instances": len(triples),
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
    shifts = range(16, (top + 1) // 2 - 1)
    for lp in shifts:
        triples = sum(max(0, top - 2 * (lp + k)) for k in range(1, 6))
        m, n = lp + 2, 2 * lp + 3
        denom = p_exact(lp + 1)
        count = krank_boundary_value(1, m, n)
        diff = count - krank_boundary_value(1, m + 1, n)
        tail = (" (%d triples (k, m, n), first (1, %d, %d))", triples, m, n)
        margin_r = sweep.contained(
            "ratio", krank_ratio_interval(1, m, n, sweep.prec), Fraction(count, denom),
            "rank ratio at ell' = %d not contained", lp, tail=tail, count=triples,
        )
        margin_d = sweep.contained(
            "difference", krank_diff_interval(1, m, n, sweep.prec), Fraction(diff, denom),
            "rank difference at ell' = %d not contained", lp, tail=tail, count=triples,
        )
        sweep.row(ell_prime=lp, ratio_contained=margin_r >= 0, ratio_margin=float(margin_r),
                  diff_contained=margin_d >= 0, diff_margin=float(margin_d))

    # positivity of the difference enclosure's lower endpoint at the stated
    # floor ell' = 10^4; the numbers come out negative there (the radii are
    # far larger than the centered gap), which is reported, not failed
    probe = krank_diff_interval(1, 10_002, 20_003, sweep.prec)
    return {
        "n_top": top,
        "distinct_differences": len(shifts),
        "worst_ratio_margin": optional_float(sweep.worst.get("ratio")),
        "worst_diff_margin": optional_float(sweep.worst.get("difference")),
        "diff_lower_at_floor": float(probe.lo_fraction),
        "diff_positive_at_floor": probe.strictly_positive(),
    }


def _suite_nonkary(sweep: _Sweep) -> Dict[str, Any]:
    top = sweep.n_max
    default_table().ensure(top)
    identity_top = min(top, 500)

    # nu_k(n) - nu_k(n-k) = f(k,n) = [q^n] (1 - q^k)^2 P, P = 1/prod (1 - q^m)
    # built by series division, so the count never reads the table
    inverse = series_delta_coeffs(1, 0, identity_top)
    for n in range(2, identity_top + 1):
        for k in range(1, sweep.j_cap(n // 2) + 1):
            diff = nu_k(n, k) - nu_k(n - k, k)
            count = inverse[n] - 2 * inverse[n - k] + inverse[n - 2 * k]
            sweep.check(diff == count, "identity at (n, k) = (%d, %d): nu_k difference "
                        "%d, series count %d", n, k, diff, count)

    positives = 0
    for n in range(2, top + 1):
        for k in range(1, sweep.j_cap(fjn_j_top(n)) + 1):
            positives += 1
            sweep.check(
                nonkary_diff_check(n, k),
                "avoided-part count not increasing at (n, k) = (%d, %d)", n, k,
            )

    return {"identity_top": identity_top, "n_top": top, "licensed_cases": positives}


def _dispatch_order(groups: List[Tuple[str, ...]]) -> List[int]:
    """Indices of the domain groups, the longest first by the summed cost of
    their cases; equal costs keep their order."""
    return sorted(range(len(groups)),
                  key=lambda i: -sum(CASE_INDEX[name].cost for name in groups[i]))


def _usable_cpus() -> int:
    # os.cpu_count() also counts CPUs outside this process's affinity mask
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_inequality_cases(
    names: List[str], prec: int, seed: int
) -> List[InequalityResult]:
    groups = group_by_domain(names)
    workers = min(len(groups), _usable_cpus())
    pool = None
    if workers > 1:
        # only a pool that cannot start falls back; a case's error propagates
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (ImportError, OSError, ValueError):
            pass
    if pool is None:
        results = [run_domain(group, prec=prec, seed=seed) for group in groups]
    else:
        # longest-processing-time first, one domain per task, so the longest
        # does not start last behind a chunk of short ones
        with pool:
            pending = {
                i: pool.apply_async(run_domain, (groups[i],), {"prec": prec, "seed": seed})
                for i in _dispatch_order(groups)
            }
            results = [pending[i].get() for i in range(len(groups))]
    by_name = {result.name: result for group in results for result in group}
    return [by_name[name] for name in names]


def _point_str(point: Tuple) -> str:
    return "(" + ", ".join(fraction_str(x) for x in point) + ")"


def _suite_inequalities(sweep: _Sweep) -> Dict[str, Any]:
    if sweep.case is None:
        names = [case.name for case in CASES]
        results = _run_inequality_cases(names, sweep.prec, sweep.seed)
    else:
        results = [run_case(sweep.case, prec=sweep.prec, seed=sweep.seed)]
    # one row per case is the registry's report, so the rows are always kept
    sweep.rows = []
    for result in results:
        point = _point_str(result.worst_point)
        sweep.check(result.passed, "%s: worst margin %.3e at %s",
                    result.name, result.worst_margin, point)
        sweep.row(
            case=result.name,
            points=result.points,
            worst_margin=float(result.worst_margin),
            worst_margin_exact=fraction_str(result.worst_margin),
            worst_point=point,
            passed=result.passed,
        )
    least = min(results, key=lambda result: result.worst_margin)
    return {
        "cases": len(results),
        "min_margin": float(least.worst_margin),
        "min_margin_case": least.name,
        "seed": sweep.seed,
    }


# name: (suite, default n_max, largest accepted n_max or None, parameters
# read).  A ceiling keeps its suite under 300 s on a 2-vCPU VM.  Extrapolated
# from the cost at the default range (rademacher's rounds then grew about
# linearly in n; ratio 0.26 ms, fjn 0.34 ms and convexity 0.08 ms a licensed
# case), one run at each ceiling took 42, 138, 153 and 181 s; rademacher's
# takes 8 s since its round sums in fixed point.  krank and
# nonkary fit that budget up to the largest n_max whose table reads stay
# within TABLE_CEILING: krank reads p up to (n_max + 1) // 2 - 1, and took
# 59 s at n_max 200001; nonkary reads p up to n_max, and took 33 s at 100000.
_RANGES = ("n_max", "j_max")
_SUITES = {
    "oracles": (_suite_oracles, 60, None, ("n_max",)),  # clamps at ENUMERATION_BOUND
    "rademacher": (_suite_rademacher, 2000, 6000, _RANGES),
    "containment-ratio": (_suite_containment_ratio, 5000, 15_000, _RANGES),
    "containment-fjn": (_suite_containment_fjn, 5000, 20_000, _RANGES),
    "convexity": (_suite_convexity, 10_000, 50_000, _RANGES),
    "krank": (_suite_krank, 500, 2 * TABLE_CEILING + 2, ("n_max",)),
    "nonkary": (_suite_nonkary, 10_000, TABLE_CEILING, _RANGES),
    "inequalities": (_suite_inequalities, None, None, ("seed", "case")),
}

SUITE_NAMES = tuple(_SUITES)


def _refuse_bad_input(names: Sequence[str], given: Dict[str, Any]) -> None:
    """Raise PreconditionError on any input the named suites refuse."""
    for name in names:
        if name not in _SUITES:
            raise PreconditionError(
                f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    n_max, j_max, case = given["n_max"], given["j_max"], given["case"]
    read = {param for name in names for param in _SUITES[name][3]}
    if case is not None and "case" not in read:
        raise PreconditionError("--case only applies to the inequalities suite")
    if n_max is not None and n_max < 0:
        raise PreconditionError("requires n_max >= 0")
    for name in names:
        ceiling = _SUITES[name][2]
        if n_max is not None and ceiling is not None and n_max > ceiling:
            raise PreconditionError(
                f"suite {name} requires n_max <= {ceiling} (suite ceiling)")
    if j_max is not None and j_max < 0:
        raise PreconditionError("requires j_max >= 0")
    for param in ("j_max", "n_max", "seed"):
        if given[param] is not None and param not in read:
            named = (f"suite {names[0]} reads" if len(names) == 1
                     else f"suites {', '.join(names)} read")
            readers = ", ".join(name for name, row in _SUITES.items() if param in row[3])
            raise PreconditionError(f"{named} no {param}; "
                                    f"--{param.replace('_', '-')} applies to {readers}")
    if case is not None:
        _lookup(case)


def run_suites(
    names: Sequence[str],
    *,
    n_max: Optional[int] = None,
    j_max: Optional[int] = None,
    prec: int = DEFAULT_PRECISION,
    seed: Optional[int] = None,
    case: Optional[str] = None,
    collect_rows: bool = False,
) -> List[SuiteReport]:
    """Check the input of every named sweep, then run them in order through
    run_suite, each with only the parameters it reads, and return their
    reports."""
    given = {"n_max": n_max, "j_max": j_max, "seed": seed, "case": case}
    _refuse_bad_input(names, given)
    return [
        run_suite(name, prec=prec, collect_rows=collect_rows,
                  **{param: given[param] for param in _SUITES[name][3]})
        for name in names
    ]


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
    """Check the input of one named sweep, run it and return its report.
    n_max None takes the suite's default range, seed None the registry's
    DEFAULT_SEED."""
    given = {"n_max": n_max, "j_max": j_max, "seed": seed, "case": case}
    _refuse_bad_input([name], given)
    runner, default_n_max, _, _ = _SUITES[name]
    # the suite reads every parameter given, and keeps its defaults for the rest
    routed = {param: value for param, value in given.items() if value is not None}
    sweep = _Sweep(**{"n_max": default_n_max, **routed}, prec=prec,
                   rows=[] if collect_rows else None)
    started = time.perf_counter()
    info = runner(sweep)
    sweep.close()
    return SuiteReport(
        suite=name, cases=sweep.cases, failures=sweep.failures, info=info,
        rows=sweep.rows or [], seconds=time.perf_counter() - started,
    )

"""Full-scale acceptance gate.

Every promised behavior is checked here at its stated range and tolerance,
one test per claim, each printing a single "criterion NN ...: PASS/FAIL"
line (visible under -s or -rA).  The criteria read the reports of
`verify`'s suites at their default ranges, the same sweeps that
`partbounds verify all` runs; each suite runs at most once per session, and
only when a criterion that needs it is selected.  Each criterion asserts
that its suite passed, that it decided the number of cases its ranges give
in closed form, its info fields, and its time bound on the suite's own
`seconds`.  Three sub-claims are marked strict-xfail because the
mathematics genuinely rules them out at these ranges rather than any
implementation gap:

* the analytic convexity certificate first activates near n ~ 1.7e8,
  so the desk-scale share is exactly 0%;
* the rank-difference enclosure keeps a negative lower endpoint until
  the shifted index reaches roughly 4e8, far past the 10^4 floor;
* the shift inequality fails exactly once, at (n, j, ell) = (1, 1, 1),
  where the empty partition avoids every part but its image does not.
"""

import functools
import json
import math
import time
from pathlib import Path

import pytest

from partbounds.estimates import fjn_j_top, ratio_j_top
from partbounds.reports import SuiteReport
from partbounds.verify import BESSEL_GRID, SELBERG_TOLERANCE, run_suite

GOLDEN = Path(__file__).resolve().parents[1] / "docs" / "golden"

RECIPROCITY_PAIRS = sum(
    1 for k in range(1, 51) for h in range(1, k + 1) if math.gcd(h, k) == 1
)
# fjn_j_top(n) is 0 below n = 17, so this also counts n from 2
LICENSED = sum(fjn_j_top(n) for n in range(14, 10_001))
# n in 6, 9, ..., 30, j in (1, 2, 3, 5), ell in (0, j, j + 2), less (6, 5, 7)
MAP_INSTANCES = 9 * 4 * 3 - 1
# ell' = n - k - m runs from 16 up to 500 - 1 - 251
KRANK_SHIFTS = 500 - 1 - (500 // 2 + 1) - 16 + 1

# each suite's case count at the default ranges, counted from the ranges
# the criteria state rather than read back from a suite
CASES = {
    # p(0..60), coprime h <= k <= 50, A_k(n) for k <= 50 and n <= 200, the grid
    "oracles": 61 + RECIPROCITY_PAIRS + 50 * 201 + len(BESSEL_GRID),
    # rounds of 1..2000, then n <= 3000 with j^2 < n and n - j >= 2
    "rademacher": 2000 + sum(min(math.isqrt(n - 1), n - 2) + 1 for n in range(2, 3001)),
    "containment-ratio": sum(ratio_j_top(n) + 1 for n in range(14, 5001)),
    "containment-fjn": sum(fjn_j_top(n) for n in range(14, 5001)),
    # exact block n <= 13, licensed block, shift triples but (1, 1, 1), maps
    "convexity": sum(n // 2 for n in range(2, 14))
    + LICENSED
    + (2001 * 20 * 21 - 1)
    + MAP_INSTANCES,
    # n/2 < m <= n + 1 for n in 4..30, then two enclosures per (k, m, n)
    "krank": sum(n + 1 - n // 2 for n in range(4, 31))
    + 2 * sum(n - k - 16 - n // 2 for k in range(1, 6) for n in range(2 * k + 33, 501)),
    "nonkary": sum(n // 2 for n in range(2, 501)) + LICENSED,
}


@functools.lru_cache(maxsize=None)
def _default(name: str) -> SuiteReport:
    """The named suite at its default ranges, run once per session."""
    return run_suite(name)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {label}: {status} ({detail})")


def _criterion(num, label, suite, detail="", bound=None, **claims) -> None:
    """Print and assert one criterion: its suite passed, decided CASES[suite]
    cases, finished within `bound` seconds, and every named claim holds."""
    report = _default(suite)
    claims = {"passed": report.passed, "cases": report.cases == CASES[suite], **claims}
    if bound is not None:
        claims[f"under {bound:g}s"] = report.seconds < bound
    missed = [name for name, held in claims.items() if not held]
    _report(num, label, not missed, f"{report.cases} cases, {detail}{report.seconds:.1f}s")
    assert not missed, (missed, report.failures[:10], report.info)


def test_criterion_01_exact_engine_matches_enumeration():
    info = _default("oracles").info
    _criterion(1, "recurrence equals enumeration on 0..60", "oracles", bound=5.0,
               top=info["enumeration_top"] == 60)


def test_criterion_02_series_round_reconstructs():
    info = _default("rademacher").info
    _criterion(2, "certified series round on 1..2000", "rademacher", bound=120.0,
               top=info["rounds_top"] == 2000)


def test_criterion_03_one_term_truncation_contains():
    info = _default("rademacher").info
    _criterion(3, "one-term truncation contains p(n-j) on 1..3000", "rademacher",
               bound=120.0, top=info["truncation_top"] == 3000,
               margin=info["worst_truncation_margin"] > 0)


def test_criterion_04_ratio_containment_and_width():
    info = _default("containment-ratio").info
    _criterion(4, "ratio enclosure on 14..5000", "containment-ratio",
               f"width constant {info['max_width_constant']:.4f}, ", bound=300.0,
               top=info["n_top"] == 5000, margin=info["worst_margin"] > 0,
               width=info["max_width_constant"] <= 2)


def test_criterion_05_second_difference_containment():
    info = _default("containment-fjn").info
    _criterion(5, "second-difference enclosure on 14..5000", "containment-fjn",
               bound=300.0, top=info["n_top"] == 5000, margin=info["worst_margin"] > 0)


def test_criterion_06_convexity_certificates_hold():
    info = _default("convexity").info
    _criterion(6, "convexity certificates on 2..10^4", "convexity",
               f"analytic share {info['analytic_fraction']:.3f}, ",
               top=info["n_top"] == 10_000, licensed=info["licensed_cases"] == LICENSED)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the interval-checked chain is first conclusive near n ~ 1.7e8 "
    "(and only covers every licensed j from n ~ 3.0e9), so every desk-scale "
    "case falls back to exact evaluation and the analytic share is 0",
)
def test_criterion_06_analytic_share_target():
    fraction = _default("convexity").info["analytic_fraction"]
    _report(6, "analytic share >= 0.9", fraction >= 0.9, f"share {fraction:.3f}")
    assert fraction >= 0.9


def test_criterion_07_boundary_rank_counts():
    # the krank suite's first block: 2-rank boundary counts vs enumeration
    _criterion(7, "2-rank boundary counts vs enumeration on 4..30", "krank")


def test_criterion_08_rank_enclosures_contain():
    info = _default("krank").info
    _criterion(8, "rank enclosures on k <= 5, n <= 500", "krank",
               f"{info['distinct_differences']} distinct shifts, ",
               shifts=info["distinct_differences"] == KRANK_SHIFTS,
               ratio=info["worst_ratio_margin"] > 0, diff=info["worst_diff_margin"] > 0)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at shift 10^4 the difference enclosure's lower endpoint is about "
    "-0.587; the widened radii only drop below the centered gap near 4e8",
)
def test_criterion_08_difference_positivity_floor():
    info = _default("krank").info
    positive = info["diff_positive_at_floor"]
    _report(8, "difference enclosure positive at shift 10^4", positive,
            f"lower endpoint {info['diff_lower_at_floor']:.4f}")
    assert positive


def test_criterion_09_nonkary_identity_and_growth():
    info = _default("nonkary").info
    _criterion(9, "non-k-ary collapse and growth", "nonkary",
               identity=info["identity_top"] == 500, top=info["n_top"] == 10_000,
               licensed=info["licensed_cases"] == LICENSED)


def test_criterion_10_shift_inequality_sweep():
    info = _default("convexity").info
    _criterion(10, "shift inequality on n <= 2000", "convexity",
               top=info["injection_top"] == 2000,
               skipped=info["unguarded_origin_triple"] == "(1, 1, 1)")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the lone failing triple: the empty partition avoids every part "
    "but its image (1) does not avoid 1",
)
def test_criterion_10_degenerate_origin_triple():
    holds = _default("convexity").info["unguarded_origin_holds"]
    _report(10, "shift inequality at (1, 1, 1)", holds, "p(0)-p(-1) vs p(1)-p(0)")
    assert holds


def test_criterion_10_shift_map_instances():
    info = _default("convexity").info
    _criterion(10, "shift map injective and avoidance-preserving", "convexity",
               f"{info['map_instances']} instances, ",
               instances=info["map_instances"] == MAP_INSTANCES)


def test_criterion_11_inequality_registry():
    started = time.perf_counter()
    report = run_suite("inequalities")
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 60.0
    _report(11, "registered inequalities, fixed seed", ok,
            f"{report.cases} cases, min margin {report.info['min_margin']:.3e} "
            f"({report.info['min_margin_case']}), {elapsed:.1f}s")
    assert report.passed, report.failures
    frozen = json.loads((GOLDEN / "registry-rows.json").read_text())
    assert [
        {key: row[key] for key in ("case", "points", "worst_margin_exact", "worst_point")}
        for row in report.rows
    ] == frozen
    assert elapsed < 60.0


def test_criterion_12_special_function_oracles():
    info = _default("oracles").info
    _criterion(12, "reciprocity, root-of-unity sums, Bessel agreement", "oracles",
               f"max residue {info['max_kloosterman_residue']:.2e}, "
               f"max Selberg deviation {info['max_selberg_deviation']:.2e}, "
               f"max Bessel rel error {info['max_bessel_rel_error']:.2e}, ",
               bound=5.0, pairs=info["reciprocity_pairs"] == RECIPROCITY_PAIRS,
               residue=info["max_kloosterman_residue"] < 2.0**-64,
               selberg=info["max_selberg_deviation"] <= SELBERG_TOLERANCE,
               bessel=info["max_bessel_rel_error"] <= 1e-15)


def test_default_summaries_match_golden(golden_summaries):
    golden_summaries(_default, "suite-summaries-default.json")

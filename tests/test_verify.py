import ast
import dataclasses
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import libmp

from partbounds import estimates, exact, inequalities, special, verify
from partbounds.enclosure import DEFAULT_PRECISION, Enclosure, fraction_from_raw
from partbounds.errors import PreconditionError
from partbounds.estimates import fjn_j_top, ratio_j_top
from partbounds.exact import PartitionTable, default_table, p_exact
from partbounds.verify import (
    SUITE_NAMES,
    _run_inequality_cases,
    _Sweep,
    run_suite,
    run_suites,
)


class TestLicenseTops:
    @pytest.mark.parametrize("n", [14, 17, 65, 100, 1601, 4999])
    def test_ratio_boundary(self, n):
        j = ratio_j_top(n)
        assert 4 * j * j < n <= 4 * (j + 1) * (j + 1)

    @pytest.mark.parametrize("n", [17, 65, 100, 1601, 4999])
    def test_fjn_boundary(self, n):
        j = fjn_j_top(n)
        assert 16 * j * j < n <= 16 * (j + 1) * (j + 1)

    def test_fjn_license_nonempty_from_17(self):
        assert fjn_j_top(16) == 0
        assert all(fjn_j_top(n) >= 1 for n in range(17, 200))


class TestRecorder:
    def test_caps_failures(self):
        rec = _Sweep()
        for i in range(205):
            rec.fail(f"case {i}")
        rec.check(True, "")
        rec.close()
        assert rec.cases == 206
        assert len(rec.failures) == 201
        assert rec.failures[-1] == "... plus 5 more failures"

    def test_check_formats_only_failures(self):
        class Loud:
            def __float__(self):
                raise AssertionError("a passing case formatted its message")

        rec = _Sweep()
        rec.check(True, "x = %.3e", Loud())
        rec.check(False, "case %d at x = %.3e", 7, 0.5)
        rec.close()
        assert rec.cases == 2
        assert rec.failures == ["case 7 at x = 5.000e-01"]


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(PreconditionError, match="unknown suite"):
            run_suite("bogus")

    def test_case_only_for_inequalities(self):
        with pytest.raises(PreconditionError, match="--case"):
            run_suite("krank", case="reciprocal-125")

    @pytest.mark.parametrize("bound", ["n_max", "j_max"])
    def test_negative_bounds_rejected(self, bound):
        with pytest.raises(PreconditionError, match=f"{bound} >= 0"):
            run_suite("containment-ratio", **{bound: -5})

    @pytest.mark.parametrize("name", ["oracles", "krank", "inequalities"])
    def test_j_max_refused_where_not_read(self, name, monkeypatch):
        def decide(*args, **kwargs):
            raise AssertionError("a case ran with a j_max the suite ignores")

        monkeypatch.setattr(verify._Sweep, "check", decide)
        with pytest.raises(PreconditionError, match=f"suite {name} reads no j_max"):
            run_suite(name, n_max=20, j_max=0)

    def test_n_max_refused_where_not_read(self):
        with pytest.raises(PreconditionError, match="suite inequalities reads no n_max"):
            run_suite("inequalities", n_max=5, case="geometric-series-100")

    def test_named_suites_checked_before_the_first_runs(self, monkeypatch):
        def decide(*args, **kwargs):
            raise AssertionError("a case ran before every named suite was checked")

        monkeypatch.setattr(verify._Sweep, "check", decide)
        with pytest.raises(PreconditionError, match="containment-ratio requires n_max <= 15000 "):
            run_suites(["oracles", "containment-ratio"], n_max=15_001)
        with pytest.raises(PreconditionError, match="unknown inequality case 'nope'"):
            run_suites(["oracles", "inequalities"], n_max=20, case="nope")
        with pytest.raises(PreconditionError, match="^suites oracles, krank read no j_max; "
                                                    "--j-max applies to rademacher, "):
            run_suites(["oracles", "krank"], n_max=20, j_max=1)

    def test_table_ceilings_checked_before_the_first_suite_runs(self, monkeypatch):
        def decide(*args, **kwargs):
            raise AssertionError("a case ran before every named suite was checked")

        monkeypatch.setattr(verify._Sweep, "check", decide)
        monkeypatch.setattr(verify._Sweep, "fail", decide)
        top = len(default_table())
        # one past the largest n_max whose table reads stay within the ceiling
        past = {"nonkary": exact.TABLE_CEILING + 1, "krank": 2 * exact.TABLE_CEILING + 3}
        for name, n_max in past.items():
            with pytest.raises(PreconditionError,
                               match=f"suite {name} requires n_max <= {n_max - 1} "):
                run_suites(["oracles", name], n_max=n_max)
        assert len(default_table()) == top

    def test_each_suite_runs_through_run_suite(self, monkeypatch):
        # the benchmark's tracer times each suite by wrapping run_suite
        calls = []
        real = verify.run_suite

        def counting(name, **parameters):
            calls.append((name, parameters))
            return real(name, **parameters)

        monkeypatch.setattr(verify, "run_suite", counting)
        run_suites(["krank", "nonkary"], n_max=20, j_max=0)
        assert [name for name, _ in calls] == ["krank", "nonkary"]
        assert "j_max" not in calls[0][1]
        assert calls[1][1]["j_max"] == 0

    def test_parameter_goes_only_to_the_suites_that_read_it(self):
        krank, nonkary = run_suites(["krank", "nonkary"], n_max=20, j_max=0)
        assert krank.cases == run_suite("krank", n_max=20).cases
        assert nonkary.cases == run_suite("nonkary", n_max=20, j_max=0).cases
        assert nonkary.cases < run_suite("nonkary", n_max=20).cases

    def test_no_cases_is_not_passed(self):
        # no n in 14..13 to decide
        report = run_suite("containment-ratio", n_max=13)
        assert report.cases == 0
        assert report.failures == []
        assert not report.passed
        assert report.summary()["passed"] is False

    def test_suite_names_all_runnable_small(self):
        # every suite completes and passes at token scale
        for name in SUITE_NAMES:
            if name == "inequalities":
                report = run_suite(name, case="geometric-series-100")
            else:
                report = run_suite(name, n_max=20)
            assert report.suite == name
            assert report.passed, report.failures
            assert report.cases > 0
            assert report.seconds >= 0


# the n_max of each sweep whose largest table read is the given index or more
_PAST_TABLE = {
    "rademacher": lambda top: top,  # reads p up to 3 n_max / 2
    "containment-ratio": lambda top: top,
    "containment-fjn": lambda top: top,
    "convexity": lambda top: top,
    "krank": lambda top: 2 * top + 1,  # reads p up to about n_max / 2
    "nonkary": lambda top: top,
}


class TestTableCeiling:
    @pytest.mark.parametrize("name", sorted(_PAST_TABLE))
    def test_exits_before_first_case(self, name, monkeypatch):
        # a fresh small table keeps every n_max here below the suites' own
        # ceilings; with the table ceiling just below it, any read past it fails
        table = PartitionTable()
        table.ensure(100)
        monkeypatch.setattr(exact, "_default_table", table)
        top = len(default_table())
        monkeypatch.setattr(exact, "TABLE_CEILING", top - 1)

        def decide(*args, **kwargs):
            raise AssertionError("a case ran before the ceiling was checked")

        monkeypatch.setattr(verify._Sweep, "check", decide)
        monkeypatch.setattr(verify._Sweep, "fail", decide)
        with pytest.raises(PreconditionError, match="table ceiling"):
            run_suite(name, n_max=_PAST_TABLE[name](top))
        assert len(default_table()) == top

    def test_krank_reads_the_table_up_to_its_ceiling(self, monkeypatch):
        # at the largest n_max krank accepts, its largest read is the ceiling
        table = PartitionTable()
        monkeypatch.setattr(exact, "_default_table", table)
        monkeypatch.setattr(exact, "TABLE_CEILING", 100)
        assert run_suite("krank", n_max=2 * 100 + 2).passed
        assert len(table) == 101


_CEILINGS = {
    name: ceiling for name, (_, _, ceiling, _) in verify._SUITES.items() if ceiling is not None
}


class TestSuiteCeiling:
    @pytest.mark.parametrize("name", sorted(_CEILINGS))
    def test_exits_before_first_case(self, name, monkeypatch):
        top = len(default_table())

        def decide(*args, **kwargs):
            raise AssertionError("a case ran before the suite ceiling was checked")

        monkeypatch.setattr(verify._Sweep, "check", decide)
        monkeypatch.setattr(verify._Sweep, "fail", decide)
        ceiling = _CEILINGS[name]
        with pytest.raises(PreconditionError, match=f"{name} requires n_max <= {ceiling} "):
            run_suite(name, n_max=ceiling + 1)
        assert len(default_table()) == top

    def test_ceilings_cover_default_and_benchmark_ranges(self):
        for name, ceiling in _CEILINGS.items():
            assert ceiling >= max(verify._SUITES[name][1], 150), name


def _capped(j_top, j_max):
    return j_top if j_max is None else min(j_top, j_max)


class TestClosedFormCounts:
    # each distinct key counts the index tuples it stands for; these count
    # the tuples themselves, by the nested loops the keys replace

    @pytest.mark.parametrize("j_max", [None, 0, 1, 3])
    @pytest.mark.parametrize("n_max", [20, 41, 90])
    def test_rademacher_pairs(self, n_max, j_max):
        prop_top = 3 * n_max // 2
        pairs = sum(
            1
            for n in range(1, prop_top + 1)
            for j in range(0, _capped(math.isqrt(n - 1), j_max) + 1)
            if n - j >= 2
        )
        report = run_suite("rademacher", n_max=n_max, j_max=j_max)
        assert report.passed
        assert report.cases == n_max + pairs

    @pytest.mark.parametrize("n_max", [70, 71, 150, 151])
    def test_krank_triples(self, n_max):
        triples = [
            (k, m, n)
            for k in range(1, 6)
            for n in range(2 * k + 33, n_max + 1)
            for m in range(n // 2 + 1, n - k - 16 + 1)
        ]
        counts = sum(n + 1 - n // 2 for n in range(4, 31))
        report = run_suite("krank", n_max=n_max)
        assert report.passed
        assert report.cases == counts + 2 * len(triples)
        shifts = {n - k - m for k, m, n in triples}
        assert report.info["distinct_differences"] == len(shifts)


class TestFailureMessages:
    def test_ratio_escape_names_point_margin_and_precision(self, monkeypatch):
        passing = run_suite("containment-ratio", n_max=30)
        real = verify.ratio_interval

        def escaping(n, j, prec):
            if (n, j) == (20, 1):
                return Enclosure.from_exact(2, prec)
            return real(n, j, prec)

        monkeypatch.setattr(verify, "ratio_interval", escaping)
        report = run_suite("containment-ratio", n_max=30)
        margin = float(Fraction(p_exact(19), p_exact(20)) - 2)
        assert report.failures == [
            f"ratio(20, 1): exact value escapes the enclosure, margin {margin:.3e} at 128 bits"
        ]
        assert report.cases == passing.cases
        assert report.info["worst_margin"] == margin

    def test_fjn_escape_names_point_margin_and_precision(self, monkeypatch):
        passing = run_suite("containment-fjn", n_max=30)
        real = verify.fjn_ratio_interval

        def escaping(n, j, prec):
            if (n, j) == (20, 1):
                return Enclosure.from_exact(2, prec)
            return real(n, j, prec)

        monkeypatch.setattr(verify, "fjn_ratio_interval", escaping)
        report = run_suite("containment-fjn", n_max=30)
        margin = float(Fraction(exact.f_jn(20, 1), p_exact(20)) - 2)
        assert report.failures == [
            f"fjn(20, 1): exact value escapes the enclosure, margin {margin:.3e} at 128 bits"
        ]
        assert report.cases == passing.cases
        assert report.info["worst_margin"] == margin

    def test_truncation_escape_names_key_multiplicity_and_precision(self, monkeypatch):
        passing = run_suite("rademacher", n_max=20)
        real = verify.proposition21_interval

        def escaping(m, prec):
            if m == 20:
                return Enclosure.from_exact(2, prec)
            return real(m, prec)

        monkeypatch.setattr(verify, "proposition21_interval", escaping)
        report = run_suite("rademacher", n_max=20)
        # the pairs n <= 30 with j^2 < n that the key m = n - j = 20 stands for
        pairs = sum(1 for j in range(11) if j * j < 20 + j)
        margin = float(2 - p_exact(20))
        assert report.failures == [
            f"p(20) escapes its one-term truncation interval, margin {margin:.3e} at 128 bits "
            f"({pairs} pairs (n, j) with n - j = 20)"
        ]
        assert report.cases == passing.cases
        assert report.info["worst_truncation_margin"] == margin

    def test_width_constant_failure_adds_no_case(self, monkeypatch):
        # the width bound is one verdict on the (n, j) cases already counted
        passing = run_suite("containment-ratio", n_max=40)
        monkeypatch.setattr(verify, "RATIO_RADIUS_MASS", Fraction(1, 100))
        report = run_suite("containment-ratio", n_max=40)
        [message] = report.failures
        assert message.startswith("relative width constant ")
        # every j at n = 40 has the same constant, 2 r/c for the straddling
        # bracket c +- r, so the last bits of the ends pick the (n, j) named
        assert message.endswith(" at (40, 1) exceeds 2")
        assert report.cases == passing.cases == 82

    def test_krank_escape_names_key_multiplicity_and_precision(self, monkeypatch):
        passing = run_suite("krank", n_max=70)
        real = verify.krank_ratio_interval

        def escaping(k, m, n, prec):
            if n - k - m == 20:
                return Enclosure.from_exact(2, prec)
            return real(k, m, n, prec)

        monkeypatch.setattr(verify, "krank_ratio_interval", escaping)
        report = run_suite("krank", n_max=70)
        triples = sum(
            1
            for k in range(1, 6)
            for n in range(2 * k + 33, 71)
            for m in range(n // 2 + 1, n - k - 16 + 1)
            if n - k - m == 20
        )
        count = p_exact(21) - p_exact(20)
        margin = float(Fraction(count, p_exact(21)) - 2)
        assert report.failures == [
            f"rank ratio at ell' = 20 not contained, margin {margin:.3e} at 128 bits "
            f"({triples} triples (k, m, n), first (1, 22, 43))"
        ]
        assert report.cases == passing.cases
        assert report.info["worst_ratio_margin"] == margin
        assert report.info["worst_diff_margin"] == passing.info["worst_diff_margin"]


class TestOneDecision:
    SMALL = {"rademacher": 20, "containment-ratio": 30, "containment-fjn": 30, "krank": 40}

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_suites_decide_by_margin_alone(self, name, monkeypatch):
        def contains(self, value):
            raise AssertionError("containment decided twice")

        monkeypatch.setattr(Enclosure, "contains", contains)
        report = run_suite(name, n_max=self.SMALL[name])
        assert report.passed, report.failures


class TestTracedNames:
    # perfbench's tracer counts estimates.ratio_interval and
    # fjn_ratio_interval by rebinding the public name wherever a partbounds
    # module holds it; a suite that called a private kernel instead would
    # read zero calls there
    @pytest.mark.parametrize(
        "name, attr, calls",
        [("containment-ratio", "ratio_interval", 664),
         ("containment-fjn", "fjn_ratio_interval", 226)],
    )
    def test_suite_reaches_the_public_estimate(self, name, attr, calls, monkeypatch):
        original = getattr(estimates, attr)
        seen = []

        def counted(*args):
            seen.append(args)
            return original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("partbounds"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        report = run_suite(name, n_max=150)
        assert report.passed
        assert len(seen) == report.cases == calls


class TestOracleSuite:
    def test_info_fields(self):
        report = run_suite("oracles", n_max=10)
        assert report.info["enumeration_top"] == 10
        assert report.info["reciprocity_pairs"] == 774
        assert report.info["max_kloosterman_residue"] < 2.0**-64
        assert 0 < report.info["max_selberg_deviation"] <= verify.SELBERG_TOLERANCE
        assert report.info["max_bessel_rel_error"] <= 1e-15

    def test_kloosterman_failure_names_residue_class(self, monkeypatch):
        real = verify.kloosterman_A

        def inflated(k, n, prec):
            value = real(k, n, prec)
            if (k, n % k) == (7, 3):
                return libmp.mpf_add(value, libmp.from_int(100), prec, "n")
            return value

        monkeypatch.setattr(verify, "kloosterman_A", inflated)
        report = run_suite("oracles", n_max=10)
        # 11 enumeration, 774 reciprocity, 50 * 201 Kloosterman and 10 Bessel cases
        assert report.cases == 11 + 774 + 50 * 201 + 10
        [message] = report.failures
        # n = 3, 10, ..., 199 are the 29 values n <= 200 with n = 3 mod 7
        assert message.startswith("A_7(n) for n = 3 mod 7: |A| = ")
        assert "(cap 7)" in message and f" at {DEFAULT_PRECISION} bits " in message
        assert message.endswith("(29 values of n <= 200, first 3)")

    def test_enumeration_catches_a_wrong_table_entry(self, monkeypatch):
        # the enumeration oracle's memo is shared by every call but never
        # reads the table, so a wrong entry in a private table shows
        table = PartitionTable()
        table.ensure(60)
        monkeypatch.setattr(exact, "_default_table", table)
        right = table._values[37]
        table._values[37] += 1
        report = run_suite("oracles", n_max=60)
        assert report.failures == [f"p(37): recurrence {right + 1} != enumeration {right}"]
        assert report.cases == 61 + 774 + 50 * 201 + 10

    def test_selberg_form_catches_a_value_of_the_wrong_residue_class(self, monkeypatch):
        # A_7(r + 1) in place of A_7(r) keeps |A| <= 7 and the residue small,
        # so only the Selberg form can tell; cos is even, so a flipped phase
        # sign would change nothing.  A class moves when the two values are
        # further apart than their errors, each within 6 * 2^(1-prec)
        real = special._kloosterman_cached
        shifted = [fraction_from_raw(real(7, (r + 1) % 7, DEFAULT_PRECISION)[0])
                   for r in range(7)]
        moved = [r for r in range(7)
                 if abs(shifted[r] - fraction_from_raw(real(7, r, DEFAULT_PRECISION)[0]))
                 > Fraction(24, 2**DEFAULT_PRECISION)]
        assert moved == [0, 1, 2, 4, 5, 6]  # A_7(3) = A_7(4) = 0

        def wrong_class(k, n_mod_k, prec):
            return real(k, (n_mod_k + 1) % k, prec) if k == 7 else real(k, n_mod_k, prec)

        monkeypatch.setattr(special, "_kloosterman_cached", wrong_class)
        report = run_suite("oracles", n_max=10)
        assert report.cases == 11 + 774 + 50 * 201 + 10
        assert [message.split(":")[0] for message in report.failures] == [
            f"A_7(n) for n = {r} mod 7" for r in moved
        ]
        assert all("(cap 7)" in message and ", Selberg form off by " in message
                   for message in report.failures)


class TestRademacherSuite:
    def test_truncation_range_scales(self):
        report = run_suite("rademacher", n_max=40)
        assert report.passed
        assert report.info["rounds_top"] == 40
        assert report.info["truncation_top"] == 60
        assert 0 < report.info["worst_truncation_margin"] <= 0.5

    def test_rows_only_on_request(self):
        bare = run_suite("rademacher", n_max=20)
        assert bare.rows == []
        detailed = run_suite("rademacher", n_max=20, collect_rows=True)
        checks = {row["check"] for row in detailed.rows}
        assert checks == {"round", "one-term-truncation"}


class TestContainmentSuites:
    def test_ratio_sweep_counts(self):
        report = run_suite("containment-ratio", n_max=100, j_max=0)
        assert report.passed
        assert report.cases == 87  # one j=0 case per n in 14..100
        assert report.info["max_width_constant"] <= 2

    def test_ratio_rows(self):
        report = run_suite("containment-ratio", n_max=20, collect_rows=True)
        assert report.passed
        row = report.rows[0]
        assert row["n"] == 14 and row["j"] == 0
        assert row["contained"] is True
        assert 0 < row["margin"] <= 0.5

    def test_fjn_sweep(self):
        report = run_suite("containment-fjn", n_max=100)
        assert report.passed
        # licensed pairs start at n = 17
        assert report.cases == sum(fjn_j_top(n) for n in range(17, 101))
        assert report.info["min_lower_endpoint"] < 0


class TestConvexitySuite:
    def test_small_block_exact_and_fraction_reported(self):
        report = run_suite("convexity", n_max=60)
        assert report.passed
        assert report.info["analytic_fraction"] == 0.0
        assert report.info["analytic_target_met"] is False
        assert report.info["unguarded_origin_holds"] is False
        assert report.info["map_instances"] > 50

    def test_licensed_count(self):
        report = run_suite("convexity", n_max=40)
        assert report.info["licensed_cases"] == sum(
            fjn_j_top(n) for n in range(14, 41)
        )

    @pytest.mark.parametrize("index, excess, j_max", [(1, 1, None), (30, 10**9, 2)])
    def test_injection_rows_hide_no_failing_case(self, monkeypatch, index, excess, j_max):
        # a row of 21 cases is counted at once only when its largest
        # left-hand side holds; with one entry of a private table too large,
        # every failing triple must still be named, in loop order: p(1) + 1
        # fails four cases with ell <= 2, p(30) + 10^9 fails whole rows,
        # out to ell = 20
        passing = run_suite("convexity", n_max=60, j_max=j_max)
        table = PartitionTable()
        table.ensure(60)
        monkeypatch.setattr(exact, "_default_table", table)
        table._values[index] += excess
        p = p_exact
        failing = [
            (n, j, ell)
            for n in range(61) for j in range(1, (j_max or 20) + 1) for ell in range(21)
            if (n, j, ell) != verify.INJECTION_COUNTEREXAMPLE
            and p(n - ell) - p(n - ell - j) > p(n) - p(n - j)
        ]
        assert {ell for _, _, ell in failing} == ({1, 2} if excess == 1 else set(range(1, 21)))
        report = run_suite("convexity", n_max=60, j_max=j_max)
        assert [f for f in report.failures if f.startswith("injection")] == [
            "injection inequality fails at (n, j, ell) = (%d, %d, %d)" % triple
            for triple in failing
        ]
        assert report.cases == passing.cases

    def test_each_m_is_listed_once(self, monkeypatch):
        # the suite lists the partitions of each m = n - ell once and maps
        # that list for every triple of m
        listed = []
        seen = set()
        enumerate_partitions, shift_map = verify.enumerate_partitions, verify._shift_map

        def listing(m):
            listed.append(m)
            return enumerate_partitions(m)

        def mapping(partitions, j, ell):
            seen.add((sum(partitions[0]) + ell, j, ell))
            return shift_map(partitions, j, ell)

        monkeypatch.setattr(verify, "enumerate_partitions", listing)
        monkeypatch.setattr(verify, "_shift_map", mapping)
        report = run_suite("convexity", n_max=150)
        assert report.passed
        assert len(seen) == report.info["map_instances"] == 107
        assert sorted(listed) == sorted(set(listed)) == sorted({n - ell for n, _, ell in seen})

    def test_wrong_listing_is_a_named_failure(self, monkeypatch):
        # a listed partition out of order fails the suite by its m, with no
        # assert that python -O could strip, and counts no case of its own
        passing = run_suite("convexity", n_max=40)
        enumerate_partitions = verify.enumerate_partitions

        def listing(m):
            partitions = list(enumerate_partitions(m))
            if m == 9:
                partitions[1] = partitions[1][::-1]
            return partitions

        monkeypatch.setattr(verify, "enumerate_partitions", listing)
        report = run_suite("convexity", n_max=40)
        assert not report.passed
        assert ("partition listing of 9: empty, or a part list that does not sum to 9 "
                "in non-increasing order") in report.failures
        assert report.cases == passing.cases


class TestKrankSuite:
    def test_distinct_differences(self):
        report = run_suite("krank", n_max=70)
        assert report.passed
        # k = 1, n = 70 reaches m = 36..53, i.e. ell' = 16..33
        assert report.info["distinct_differences"] == 18
        assert report.info["diff_positive_at_floor"] is False
        assert report.info["diff_lower_at_floor"] < 0

    def test_identity_only_below_enclosure_threshold(self):
        report = run_suite("krank", n_max=30)
        assert report.passed
        assert report.info["distinct_differences"] == 0


class TestNonkarySuite:
    def test_passes_and_counts(self):
        report = run_suite("nonkary", n_max=100)
        assert report.passed
        assert report.info["identity_top"] == 100
        assert report.info["licensed_cases"] == sum(
            fjn_j_top(n) for n in range(17, 101)
        )

    def test_identity_catches_a_wrong_table_entry(self, monkeypatch):
        # nu_k and f(k, n) read the same table, so the identity is decided
        # against the generating-function count, which does not; a private
        # table keeps the wrong entry out of every other test
        table = PartitionTable()
        table.ensure(60)
        monkeypatch.setattr(exact, "_default_table", table)
        table._values[37] += 1
        report = run_suite("nonkary", n_max=60)
        assert not report.passed
        assert "identity at (n, k) = (37, 1)" in report.failures[0]
        table._values[37] -= 1
        assert run_suite("nonkary", n_max=60).passed


class TestInequalitySuite:
    def test_case_filter_and_rows(self):
        report = run_suite("inequalities", case="reciprocal-125")
        assert report.passed
        assert report.cases == 1
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["case"] == "reciprocal-125"
        assert row["passed"] is True
        assert row["worst_margin"] > 0
        assert report.info["min_margin_case"] == "reciprocal-125"

    def test_unknown_case(self):
        with pytest.raises(PreconditionError, match="unknown inequality case"):
            run_suite("inequalities", case="nope")

    def test_deterministic(self):
        first = run_suite("inequalities", case="exp-convexity-half")
        second = run_suite("inequalities", case="exp-convexity-half")
        assert first.rows == second.rows


def _usable_cpus(monkeypatch, count):
    # the pool is sized from the affinity mask where the platform has one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


class TestInequalityDispatch:
    # cheap copies of one case at several grid sizes, each its own domain,
    # and one more case that shares the first's
    GRIDS = (20, 240, 5, 120, 60)

    def _register(self, monkeypatch):
        names = []
        for base, grid in [("reciprocal-125", grid) for grid in self.GRIDS] + [
            ("concavity-sqrt-positive", self.GRIDS[0])
        ]:
            case = dataclasses.replace(
                inequalities.CASE_INDEX[base], name=f"dispatch-{grid}-{base}",
                grid_points=grid, random_points=grid // 4,
            )
            monkeypatch.setitem(inequalities.CASE_INDEX, case.name, case)
            names.append(case.name)
        return names

    def test_results_keep_registry_order(self, monkeypatch):
        names = self._register(monkeypatch)
        groups = inequalities.group_by_domain(names)
        assert [len(group) for group in groups] == [2, 1, 1, 1, 1]
        expected = [inequalities.run_case(name) for name in names]
        # two and three workers merge shares of each domain, one sweeps whole ones
        for cpus in (3, 2, 1):
            _usable_cpus(monkeypatch, cpus)
            assert _run_inequality_cases(names, 128, inequalities.DEFAULT_SEED) == expected

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        # an affinity mask of one CPU starts no pool, however many CPUs exist
        names = self._register(monkeypatch)
        expected = [inequalities.run_case(name) for name in names]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

        def no_pool(method):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(verify.multiprocessing, "get_context", no_pool)
        assert _run_inequality_cases(names, 128, inequalities.DEFAULT_SEED) == expected

    def test_case_error_propagates_without_rerun(self, monkeypatch, tmp_path):
        # every evaluation leaves a marker, so a sequential rerun would show
        def margin(point, prec):
            os.close(tempfile.mkstemp(dir=tmp_path)[0])
            one = Enclosure.from_exact(1, prec)
            return Enclosure(one.hi, Enclosure.from_exact(0, prec).lo, prec)

        # a sampler of its own, so the case is a domain, and a task, of its own
        case = dataclasses.replace(
            inequalities.CASE_INDEX["collapse-131"], name="raises", margin=margin,
            sampler=inequalities._point_sampler(),
        )
        monkeypatch.setitem(inequalities.CASE_INDEX, case.name, case)
        _usable_cpus(monkeypatch, 2)
        assert len(inequalities.group_by_domain(["raises", "collapse-131"])) == 2
        with pytest.raises(ValueError, match="endpoints out of order"):
            _run_inequality_cases(["raises", "collapse-131"], 128, 1)
        assert len(list(tmp_path.iterdir())) == 1


def test_summaries_match_golden(golden_summaries):
    golden_summaries(lambda name: run_suite(name, n_max=150), "suite-summaries-150.json")


def test_golden_counts_are_the_benchmark_counts():
    # the benchmark rejects a sweep whose suite decides another number of
    # cases than its own SWEEP_CASES table, read here from the file itself
    # so that a re-recorded summary cannot move a count it gates
    root = Path(__file__).resolve().parents[1]
    child = root / "perfbench" / "child.py"
    [counts] = [
        ast.literal_eval(node.value)
        for node in ast.parse(child.read_text()).body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets if isinstance(target, ast.Name)] == ["SWEEP_CASES"]
    ]
    golden = json.loads((root / "docs" / "golden" / "suite-summaries-150.json").read_text())
    assert {summary["suite"]: summary["cases"] for summary in golden} == counts[150]

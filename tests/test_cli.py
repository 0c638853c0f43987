import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partbounds import __version__, cli, exact, verify
from partbounds.cli import MAX_PRECISION, main
from partbounds.enclosure import DEFAULT_PRECISION
from partbounds.exact import (
    ENUMERATION_BOUND,
    TABLE_CEILING,
    PartitionTable,
    default_table,
    f_jn,
    p_exact,
)
from partbounds.reports import SuiteReport

GOLDEN = Path(__file__).resolve().parents[1] / "docs" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured


def run_json(capsys, *argv):
    code, captured = run(capsys, *argv)
    return code, json.loads(captured.out)


def recheck_interval(block, exact: Fraction) -> None:
    """The containment flag must be reproducible from the serialized strings."""
    lo = Fraction(block["lo_exact"])
    hi = Fraction(block["hi_exact"])
    assert (lo <= exact <= hi) == block["contained"]
    # outward decimals bracket the exact endpoints
    assert Fraction(block["lo"]) <= lo
    assert hi <= Fraction(block["hi"])


class TestExact:
    def test_known_value(self, capsys):
        code, doc = run_json(capsys, "exact", "14")
        assert code == 0
        assert doc["results"]["p"] == "135"
        assert doc["results"]["digits"] == 3

    def test_zero(self, capsys):
        code, doc = run_json(capsys, "exact", "0")
        assert code == 0
        assert doc["results"]["p"] == "1"

    def test_oracle_agreement(self, capsys):
        code, doc = run_json(capsys, "exact", "60", "--oracle")
        assert code == 0
        assert doc["results"]["agreement"] is True
        assert doc["results"]["enumeration"] == doc["results"]["p"]

    def test_negative_rejected(self, capsys):
        code, captured = run(capsys, "exact", "-3")
        assert code == 2
        assert "n >= 0" in captured.err

    def test_oracle_out_of_range(self, capsys):
        code, captured = run(capsys, "exact", "120", "--oracle")
        assert code == 2
        assert "90" in captured.err

    def test_oracle_bound_checked_before_table_grows(self, capsys):
        size = len(default_table())
        code, captured = run(capsys, "exact", str(TABLE_CEILING), "--oracle")
        assert code == 2
        assert "90" in captured.err
        assert len(default_table()) == size


class TestRatio:
    def test_contained(self, capsys):
        code, doc = run_json(capsys, "ratio", "100", "2")
        assert code == 0
        results = doc["results"]
        assert Fraction(results["exact"]) == Fraction(p_exact(98), p_exact(100))
        recheck_interval(results["interval"], Fraction(results["exact"]))
        assert results["relative_width"] > 0
        assert doc["passed"] is True

    def test_j_zero_is_one(self, capsys):
        code, doc = run_json(capsys, "ratio", "100", "0")
        assert code == 0
        assert doc["results"]["exact"] == "1"
        assert doc["results"]["interval"]["contained"] is True

    def test_small_n_rejected(self, capsys):
        code, captured = run(capsys, "ratio", "13", "1")
        assert code == 2
        assert "n >= 14" in captured.err

    def test_unlicensed_j_rejected(self, capsys):
        code, captured = run(capsys, "ratio", "100", "5")
        assert code == 2
        assert captured.err.startswith("error:")


class TestFjn:
    def test_contained(self, capsys):
        code, doc = run_json(capsys, "fjn", "2000", "10")
        assert code == 0
        results = doc["results"]
        assert int(results["difference"]) == f_jn(2000, 10)
        recheck_interval(results["interval"], Fraction(results["exact"]))

    def test_preconditions_surface(self, capsys):
        code, captured = run(capsys, "fjn", "2000", "12")
        assert code == 2
        assert captured.err.startswith("error:")


class TestKrank:
    def test_contained_both(self, capsys):
        code, doc = run_json(capsys, "krank", "--k", "2", "--m", "40", "--n", "70")
        assert code == 0
        results = doc["results"]
        assert results["ell_prime"] == 28
        recheck_interval(results["ratio"]["interval"], Fraction(results["ratio"]["exact"]))
        recheck_interval(
            results["difference"]["interval"], Fraction(results["difference"]["exact"])
        )
        assert results["difference"]["lower_positive"] is False

    def test_domain_error(self, capsys):
        code, captured = run(capsys, "krank", "--k", "1", "--m", "10", "--n", "30")
        assert code == 2
        assert "m > n/2" in captured.err


class TestNonkary:
    def test_enumerated_example(self, capsys):
        code, doc = run_json(capsys, "nonkary", "5", "1")
        assert code == 0
        assert doc["results"]["nu"] == "2"
        assert doc["results"]["difference"] == "0"
        assert doc["results"]["difference_positive"] is False

    def test_licensed_adds_enclosure(self, capsys):
        code, doc = run_json(capsys, "nonkary", "100", "2")
        assert code == 0
        results = doc["results"]
        assert results["difference_positive"] is True
        recheck_interval(results["ratio_interval"], Fraction(results["ratio_exact"]))

    def test_bad_k(self, capsys):
        code, captured = run(capsys, "nonkary", "5", "0")
        assert code == 2


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, doc = run_json(capsys, "verify", "oracles", "--n-max", "5")
        assert code == 0
        suite = doc["results"]["suites"][0]
        assert suite["suite"] == "oracles"
        assert suite["passed"] is True
        assert doc["parameters"]["suite"] == "oracles"

    def test_oracles_clamps_n_max_at_enumeration_bound(self, capsys, monkeypatch):
        table = PartitionTable()
        monkeypatch.setattr(exact, "_default_table", table)
        code, doc = run_json(capsys, "verify", "oracles", "--n-max", "200003")
        assert code == 0
        assert doc["parameters"]["n_max"] == 200_003
        assert doc["results"]["suites"][0]["info"]["enumeration_top"] == ENUMERATION_BOUND
        assert len(table) == ENUMERATION_BOUND + 1

    def test_csv_and_json_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "doc.json"
        code, doc = run_json(
            capsys,
            "verify",
            "containment-ratio",
            "--n-max",
            "30",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        )
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("suite,")
        assert json.loads(json_path.read_text()) == doc

    def test_csv_created_empty_for_rowless_suite(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, _ = run_json(
            capsys, "verify", "nonkary", "--n-max", "40", "--csv", str(csv_path)
        )
        assert code == 0
        assert csv_path.exists()
        assert csv_path.read_text() == ""

    def test_inequality_case_filter(self, capsys):
        code, doc = run_json(
            capsys, "verify", "inequalities", "--case", "sqrt-expansion-01"
        )
        assert code == 0
        assert doc["results"]["suites"][0]["cases"] == 1

    def test_case_with_other_suite_rejected(self, capsys):
        code, captured = run(capsys, "verify", "krank", "--case", "reciprocal-125")
        assert code == 2

    def test_unknown_case_exits_before_any_suite(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: calls.append(args))
        code, captured = run(
            capsys, "verify", "all", "--n-max", "20", "--case", "no-such-case"
        )
        assert code == 2
        assert calls == []
        assert "unknown inequality case 'no-such-case'" in captured.err

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_j_max_for_suite_that_reads_none_is_usage_error(self, capsys):
        code, captured = run(capsys, "verify", "krank", "--n-max", "40", "--j-max", "0")
        assert code == 2
        assert "suite krank reads no j_max" in captured.err
        assert captured.out == ""

    def test_all_passes_j_max_only_to_suites_that_read_it(self, capsys, monkeypatch):
        calls = {}

        def record(name, **kwargs):
            calls[name] = kwargs
            return SuiteReport(suite=name, cases=1, failures=[], info={}, rows=[],
                               seconds=0.0)

        monkeypatch.setattr(cli, "run_suite", record)
        code, doc = run_json(capsys, "verify", "all", "--n-max", "20", "--j-max", "1")
        assert code == 0
        assert doc["parameters"]["j_max"] == 1
        assert list(calls) == list(verify.SUITE_NAMES)
        assert {name: kwargs["j_max"] for name, kwargs in calls.items()} == {
            name: 1 if name in verify.J_MAX_SUITES else None for name in verify.SUITE_NAMES
        }

    def test_n_max_for_suite_that_reads_none_is_usage_error(self, capsys):
        code, captured = run(
            capsys, "verify", "inequalities", "--case", "geometric-series-100", "--n-max", "5"
        )
        assert code == 2
        assert "suite inequalities reads no n_max" in captured.err
        assert captured.out == ""

    def test_all_passes_n_max_only_to_suites_that_read_it(self, capsys, monkeypatch):
        calls = {}

        def record(name, **kwargs):
            calls[name] = kwargs
            return SuiteReport(suite=name, cases=1, failures=[], info={}, rows=[],
                               seconds=0.0)

        monkeypatch.setattr(cli, "run_suite", record)
        code, doc = run_json(capsys, "verify", "all", "--n-max", "20")
        assert code == 0
        assert doc["parameters"]["n_max"] == 20
        assert list(calls) == list(verify.SUITE_NAMES)
        assert {name: kwargs["n_max"] for name, kwargs in calls.items()} == {
            name: None if name == "inequalities" else 20 for name in verify.SUITE_NAMES
        }

    def test_seed_for_suite_that_reads_none_is_usage_error(self, capsys):
        code, captured = run(capsys, "verify", "krank", "--n-max", "40", "--seed", "5")
        assert code == 2
        assert "suite krank reads no seed" in captured.err
        assert captured.out == ""

    def test_all_passes_seed_only_to_inequalities(self, capsys, monkeypatch):
        calls = {}

        def record(name, **kwargs):
            calls[name] = kwargs
            return SuiteReport(suite=name, cases=1, failures=[], info={}, rows=[],
                               seconds=0.0)

        monkeypatch.setattr(cli, "run_suite", record)
        code, doc = run_json(capsys, "verify", "all", "--n-max", "20", "--seed", "5")
        assert code == 0
        assert doc["parameters"]["seed"] == 5
        assert {name: kwargs["seed"] for name, kwargs in calls.items()} == {
            name: 5 if name == "inequalities" else None for name in verify.SUITE_NAMES
        }
        run_json(capsys, "verify", "all", "--n-max", "20")
        assert all(kwargs["seed"] is None for kwargs in calls.values())

    def test_all_runs_every_suite(self, capsys):
        # 17 is the least n_max at which every suite decides a case
        code, doc = run_json(
            capsys,
            "verify",
            "all",
            "--n-max",
            "17",
            "--case",
            "geometric-series-100",
        )
        assert code == 0
        names = [suite["suite"] for suite in doc["results"]["suites"]]
        assert len(names) == 8


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("suite, n_max, nulls", [
    ("containment-fjn", 16, ["worst_margin", "min_lower_endpoint"]),
    ("containment-ratio", 13,
     ["worst_margin", "max_width_constant", "max_width_constant_at"]),
    ("krank", 13, ["worst_ratio_margin", "worst_diff_margin"]),
    ("rademacher", 1, ["worst_truncation_margin"]),
])
def test_undecided_suite_prints_strict_json(capsys, suite, n_max, nulls):
    _, captured = run(capsys, "verify", suite, "--n-max", str(n_max))
    doc = json.loads(captured.out, parse_constant=_reject_constant)
    info = doc["results"]["suites"][0]["info"]
    assert [info[key] for key in nulls] == [None] * len(nulls)


class TestInputLimits:
    def test_json_write_failure_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, captured = run(capsys, "ratio", "100", "2", "--json", str(target))
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_csv_write_failure_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, captured = run(
            capsys, "verify", "nonkary", "--n-max", "20", "--csv", str(target)
        )
        assert code == 2
        assert captured.err.startswith("error:")

    def test_table_ceiling(self, capsys):
        code, captured = run(capsys, "exact", str(TABLE_CEILING + 1))
        assert code == 2
        assert str(TABLE_CEILING) in captured.err

    def test_ratio_past_ceiling_exits_before_growing(self, capsys):
        # p(n - j) is within the ceiling, p(n) is not
        size = len(default_table())
        code, captured = run(capsys, "ratio", str(TABLE_CEILING + 1), "1")
        assert code == 2
        assert str(TABLE_CEILING) in captured.err
        assert len(default_table()) == size

    def test_precision_ceiling(self, capsys):
        code, captured = run(capsys, "ratio", "100", "2", "--precision", "2000000000")
        assert code == 2
        assert str(MAX_PRECISION) in captured.err

    def test_suite_ceiling_is_usage_error(self, capsys):
        ceiling = verify._SUITES["containment-ratio"][2]
        code, captured = run(
            capsys, "verify", "containment-ratio", "--n-max", str(ceiling + 1)
        )
        assert code == 2
        assert f"containment-ratio requires n_max <= {ceiling}" in captured.err
        assert captured.out == ""

    def test_negative_n_max_is_usage_error(self, capsys):
        code, captured = run(capsys, "verify", "containment-ratio", "--n-max", "-5")
        assert code == 2
        assert "n_max >= 0" in captured.err


class TestPrecisionResolution:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PARTBOUNDS_PRECISION", "160")
        code, doc = run_json(capsys, "ratio", "100", "1")
        assert code == 0
        assert doc["parameters"]["precision"] == 160
        assert doc["results"]["interval"]["precision"] == 160

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PARTBOUNDS_PRECISION", "160")
        code, doc = run_json(capsys, "ratio", "100", "1", "--precision", "96")
        assert doc["parameters"]["precision"] == 96

    def test_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PARTBOUNDS_PRECISION", "lots")
        code, captured = run(capsys, "ratio", "100", "1")
        assert code == 2
        assert "PARTBOUNDS_PRECISION" in captured.err

    def test_floor(self, capsys):
        code, captured = run(capsys, "ratio", "100", "1", "--precision", "8")
        assert code == 2


class TestCachedParser:
    """main parses every call with one parser; nothing of a call survives it."""

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_oracle_flag_does_not_persist(self, capsys):
        code, doc = run_json(capsys, "exact", "30", "--oracle")
        assert code == 0
        assert doc["results"]["enumeration"] == "5604"
        code, doc = run_json(capsys, "exact", "30")
        assert code == 0
        assert doc["parameters"]["oracle"] is False
        assert "enumeration" not in doc["results"]

    def test_json_path_does_not_persist(self, capsys, tmp_path):
        target = tmp_path / "ratio.json"
        code, doc = run_json(capsys, "ratio", "100", "2", "--json", str(target))
        assert code == 0
        assert json.loads(target.read_text()) == doc
        target.unlink()
        code, _ = run(capsys, "ratio", "100", "2")
        assert code == 0
        assert not target.exists()

    def test_precision_flag_does_not_persist(self, capsys, monkeypatch):
        # a flag, then none: the environment decides, and without it the
        # default, which differs from the flag given before it
        monkeypatch.setenv("PARTBOUNDS_PRECISION", "160")
        _, doc = run_json(capsys, "ratio", "100", "1", "--precision", "128")
        assert doc["parameters"]["precision"] == 128
        _, doc = run_json(capsys, "ratio", "100", "1")
        assert doc["parameters"]["precision"] == 160
        monkeypatch.delenv("PARTBOUNDS_PRECISION")
        _, doc = run_json(capsys, "ratio", "100", "1", "--precision", "96")
        assert doc["parameters"]["precision"] == 96
        _, doc = run_json(capsys, "ratio", "100", "1")
        assert doc["parameters"]["precision"] == DEFAULT_PRECISION

    def test_usage_error_then_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ratio", "x", "1"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"partbounds {__version__}"
        code, doc = run_json(capsys, "exact", "14")
        assert code == 0
        assert doc["results"]["p"] == "135"


class TestGoldenDocuments:
    def test_ratio_document_frozen(self, capsys):
        code, doc = run_json(capsys, "ratio", "100", "2")
        assert code == 0
        doc["seconds"] = 0.0
        golden = json.loads((GOLDEN / "ratio-100-2.json").read_text())
        assert doc == golden

    def test_verify_document_frozen(self, capsys):
        code, doc = run_json(
            capsys, "verify", "inequalities", "--case", "reciprocal-125"
        )
        assert code == 0
        doc["seconds"] = 0.0
        for suite in doc["results"]["suites"]:
            suite["seconds"] = 0.0
        golden = json.loads((GOLDEN / "verify-reciprocal-125.json").read_text())
        assert doc == golden


# -- argv fuzzing of the single-value commands --------------------------------
#
# Integers stay at most 12000, a short growth past the table conftest.py
# pre-grows; indices between that and the ceiling would grow the table for
# seconds per example, so no refused input may reach them either.

_integers = st.one_of(
    st.sampled_from([0, 1, 13, 14, 15, 16, 17]),
    st.integers(min_value=-(10**6), max_value=-1),
    st.integers(min_value=0, max_value=12_000),
    st.sampled_from([TABLE_CEILING + 1, 2**70]),
).map(str)
_tokens = st.one_of(_integers, st.sampled_from(["x", "1.5", "", "1e3", "-", "--", "0x10"]))
_precisions = st.one_of(
    st.integers(min_value=16, max_value=MAX_PRECISION),
    st.sampled_from([-1, 0, 15, MAX_PRECISION + 1, 2**70]),
).map(str)


@st.composite
def _single_value_argv(draw):
    command = draw(st.sampled_from(["exact", "ratio", "fjn", "krank", "nonkary"]))
    if command == "krank":
        argv = [command]
        for flag in ("--k", "--m", "--n"):
            argv += [flag, draw(_tokens)]
    else:
        arity = 1 if command == "exact" else 2
        argv = [command] + [draw(_tokens) for _ in range(arity)]
    if command == "exact":
        if draw(st.booleans()):
            argv.append("--oracle")
    elif draw(st.booleans()):
        argv += ["--precision", draw(_precisions)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_single_value_argv())
def test_single_value_argv_exits_cleanly(argv):
    size = len(default_table())
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, sink.getvalue())
    # a refused index past the ceiling must not grow the table first
    assert len(default_table()) <= max(size, 12_001), argv


# -- argv fuzzing of verify ----------------------------------------------------
#
# Every n_max above 40 is refused before the suite's first case: one past the
# drawn suite's own ceiling, and 200003, past the table ceiling even for krank,
# which reads p only up to about n_max/2.  oracles clamps n_max to its
# enumeration bound instead of refusing it, so it is left out.

_VERIFY_SUITES = [name for name in verify.SUITE_NAMES if name != "oracles"]


@st.composite
def _verify_argv(draw):
    suite = draw(st.sampled_from(_VERIFY_SUITES))
    argv = ["verify", suite]
    if suite == "inequalities":
        argv += ["--case", "collapse-131"]
    ceiling = verify._SUITES[suite][2]
    above = [200_003] if ceiling is None else [ceiling + 1, 200_003]
    n_max = draw(st.sampled_from([-1, 0, 1, 13, 17, 40] + above))
    if suite != "inequalities" or draw(st.booleans()):
        argv += ["--n-max", str(n_max)]
    for flag, values in (
        ("--j-max", st.sampled_from([-1, 0, 1, 3])),
        ("--precision", st.sampled_from([15, 16, 53, MAX_PRECISION, MAX_PRECISION + 1])),
        ("--seed", st.integers(min_value=-(2**64), max_value=2**64)),
    ):
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_verify_argv())
def test_verify_argv_exits_cleanly(argv):
    size = len(default_table())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    n_max = int(argv[argv.index("--n-max") + 1]) if "--n-max" in argv else None
    if n_max is not None and n_max > 40:
        assert code == 2 and out.getvalue() == "", argv
    assert len(default_table()) <= max(size, 12_001), argv

import copy
import csv
import dataclasses
import decimal
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partbounds import __version__, cli
from partbounds.enclosure import Enclosure, exact_decimal
from partbounds.reports import (
    ReportDocument,
    SuiteReport,
    decimal_digits,
    decimal_directed,
    fraction_str,
    indented_json,
    interval_payload,
    write_csv,
)


class TestDecimalDigits:
    @pytest.mark.parametrize(
        "prec,digits", [(1, 1), (8, 3), (53, 16), (64, 20), (128, 39), (160, 49), (256, 78)]
    )
    def test_known_values(self, prec, digits):
        assert decimal_digits(prec) == digits

    def test_never_undercounts(self):
        # 10^digits must exceed 2^prec so distinct mpf values stay distinct
        for prec in range(1, 600):
            assert 10 ** decimal_digits(prec) >= 2**prec

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decimal_digits(0)


class TestFractionStrings:
    @pytest.mark.parametrize(
        "value,text",
        [(Fraction(3, 4), "3/4"), (Fraction(-3, 4), "-3/4"), (Fraction(5), "5"), (0, "0")],
    )
    def test_render(self, value, text):
        assert fraction_str(value) == text

    def test_round_trip(self):
        for value in (Fraction(190569292), Fraction(-7, 360), Fraction(24 * 100 - 1, 24)):
            assert Fraction(fraction_str(value)) == value

    def test_parse_decimal_strings(self):
        # exact_decimal output parses back to the same rational
        assert Fraction(exact_decimal(1, 3)) == Fraction(1, 8)


class TestDecimalDirected:
    def test_floor_and_ceiling_bracket(self):
        lo = decimal_directed(1, 3, 10, decimal.ROUND_FLOOR)
        hi = decimal_directed(1, 3, 10, decimal.ROUND_CEILING)
        assert lo == "0.3333333333"
        assert hi == "0.3333333334"
        assert Fraction(lo) < Fraction(1, 3) < Fraction(hi)

    def test_negative_floor_moves_down(self):
        lo = decimal_directed(-1, 3, 10, decimal.ROUND_FLOOR)
        hi = decimal_directed(-1, 3, 10, decimal.ROUND_CEILING)
        assert Fraction(lo) < Fraction(-1, 3) < Fraction(hi)

    def test_exact_value_unchanged(self):
        assert Fraction(decimal_directed(5, 4, 10, decimal.ROUND_FLOOR)) == Fraction(5, 4)


class TestIntervalPayload:
    def test_exact_fields_lossless(self):
        enc = Enclosure.from_exact(Fraction(1, 3), 64)
        payload = interval_payload(enc)
        assert Fraction(payload["lo_exact"]) == enc.lo_fraction
        assert Fraction(payload["hi_exact"]) == enc.hi_fraction
        assert payload["precision"] == 64

    def test_directed_decimals_bracket_endpoints(self):
        enc = Enclosure.pi(128)
        payload = interval_payload(enc)
        assert Fraction(payload["lo"]) <= enc.lo_fraction
        assert enc.hi_fraction <= Fraction(payload["hi"])

    def test_negative_interval(self):
        enc = -Enclosure.from_exact(Fraction(1, 3), 96)
        payload = interval_payload(enc)
        assert Fraction(payload["lo"]) <= Fraction(payload["lo_exact"])
        assert Fraction(payload["hi_exact"]) <= Fraction(payload["hi"])


def _payload_on_fractions(enc):
    # interval_payload as it was written on the reduced endpoint Fractions
    digits = decimal_digits(enc.prec)
    payload = {}
    for key, value, rounding in (
        ("lo", enc.lo_fraction, decimal.ROUND_FLOOR),
        ("hi", enc.hi_fraction, decimal.ROUND_CEILING),
    ):
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ctx.rounding = rounding
            rendered = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        payload[key] = str(rendered)
    for key, value in (("lo_exact", enc.lo_fraction), ("hi_exact", enc.hi_fraction)):
        num, den = value.numerator, value.denominator
        if den == 1:
            payload[key] = str(num)
            continue
        k = den.bit_length() - 1
        text = str(abs(num * 5**k)).rjust(k + 1, "0")
        whole, frac = text[:-k], text[-k:].rstrip("0")
        sign = "-" if num < 0 else ""
        payload[key] = f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
    payload["precision"] = enc.prec
    return payload


@settings(max_examples=400, deadline=None)
@given(
    lo=st.fractions(-10**6, 10**6, max_denominator=10**6),
    width=st.fractions(0, 10**6, max_denominator=10**6),
    shift=st.integers(-100, 100),
    prec=st.one_of(st.sampled_from([16, 53, 128, 4096]), st.integers(16, 4096)),
)
@example(lo=Fraction(0), width=Fraction(1, 3), shift=-292, prec=4096)
def test_interval_payload_is_the_rendering_of_the_fractions(lo, width, shift, prec):
    # endpoints of either sign, with negative and positive binary exponents
    scale = Fraction(2) ** shift
    enc = Enclosure.from_bounds(lo * scale, (lo + width) * scale, prec)
    payload = interval_payload(enc)
    # exact at any length: Decimal parses strings that int() refuses
    assert Fraction(decimal.Decimal(payload["lo_exact"])) == enc.lo_fraction
    assert Fraction(decimal.Decimal(payload["hi_exact"])) == enc.hi_fraction
    if shift >= -100:
        # the reference's str(int) refuses more than 4300 digits, which
        # 4096-bit endpoints reach only below 2^-100
        assert payload == _payload_on_fractions(enc)


class TestReportDocument:
    def test_json_round_trip(self):
        doc = ReportDocument(
            command="exact",
            parameters={"n": 14},
            results={"p": "135"},
            passed=True,
            exit_code=0,
            seconds=0.25,
        )
        data = json.loads(doc.to_json())
        assert data["command"] == "exact"
        assert data["results"]["p"] == "135"
        assert data["version"] == __version__
        assert data["exit_code"] == 0

    @pytest.mark.parametrize("argv", [
        ["ratio", "100", "2"],
        ["krank", "--k", "2", "--m", "60", "--n", "100"],
        ["verify", "krank", "--n-max", "40"],
    ], ids=lambda argv: argv[0])
    def test_to_json_matches_asdict_without_mutating(self, argv):
        args = cli._parse(argv)
        parameters, results, passed, _ = args.handler(args)
        doc = ReportDocument(command=args.command, parameters=parameters, results=results,
                             passed=passed, exit_code=0, seconds=0.5)
        before = copy.deepcopy(doc.results)
        assert doc.to_json() == json.dumps(dataclasses.asdict(doc), indent=2)
        assert doc.results == before


    def test_to_json_leaves_other_keys_and_values_to_json(self):
        doc = ReportDocument(command="exact", parameters={1: "a", None: [2.5, ()]},
                             results={}, passed=True, exit_code=0, seconds=0.5)
        assert doc.to_json() == json.dumps(dataclasses.asdict(doc), indent=2)
        doc.results = {"value": Fraction(1, 3)}
        with pytest.raises(TypeError):
            doc.to_json()


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_indented_json_writes_the_bytes_of_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=2)


class TestSuiteReport:
    def test_passed_tracks_failures(self):
        report = SuiteReport("demo", 3, [], {}, [], 0.1)
        assert report.passed
        report = SuiteReport("demo", 3, ["bad"], {}, [], 0.1)
        assert not report.passed

    def test_summary_fields(self):
        report = SuiteReport("demo", 3, [], {"worst": 0.4}, [{"n": 1}], 0.125)
        summary = report.summary()
        assert summary["suite"] == "demo"
        assert summary["cases"] == 3
        assert summary["passed"] is True
        assert summary["info"] == {"worst": 0.4}
        assert "rows" not in summary


class TestWriteCsv:
    def test_union_of_keys_first_seen_order(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"b": 3, "c": 4}]
        path = tmp_path / "out.csv"
        write_csv(str(path), rows)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0] == {"a": "1", "b": "2", "c": ""}
        assert parsed[1] == {"a": "", "b": "3", "c": "4"}

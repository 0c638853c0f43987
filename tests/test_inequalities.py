"""Reduced-budget sweeps and frozen spot margins for the inequality cases."""

import dataclasses
import random
from fractions import Fraction

import pytest

from partbounds import enclosure, inequalities
from partbounds.enclosure import ORDER_ERROR, Enclosure, constants, exp_enclosure
from partbounds.errors import PartboundsError, PreconditionError
from partbounds.inequalities import (
    CASES,
    CASE_INDEX,
    DEFAULT_SEED,
    TAIL_TERMS,
    _margin_bessel_tail,
    abs_upper,
    run_case,
)

ALL_NAMES = {
    "geometric-series-100",
    "sqrt-expansion-01",
    "inverse-sqrt-06",
    "reciprocal-125",
    "exp-convexity-half",
    "tail-envelope-15",
    "sqrt-exp-decreasing",
    "shifted-envelope-11",
    "concavity-sqrt-positive",
    "correction-sum-099",
    "exp-argument-01",
    "shift-ratio-02",
    "collapse-056",
    "collapse-131",
    "collapse-271",
    "collapse-1350",
    "collapse-2075",
    "collapse-3926",
    "bessel-tail-sum",
    "bessel-simplify-half",
}


def _budget(name):
    # The Bessel tail sums a thousand terms per point, so keep it tiny here.
    return (10, 3) if name == "bessel-tail-sum" else (120, 25)


def _shrink(monkeypatch, name, grid, rand):
    """Register a copy of the named case with a reduced point budget."""
    case = dataclasses.replace(CASE_INDEX[name], grid_points=grid, random_points=rand)
    monkeypatch.setitem(CASE_INDEX, name, case)


class TestRegistry:
    def test_every_case_registered(self):
        assert {c.name for c in CASES} == ALL_NAMES
        assert len(CASES) == 20

    def test_index_matches_tuple(self):
        for case in CASES:
            assert CASE_INDEX[case.name] is case

    def test_default_budgets(self):
        for case in CASES:
            if case.name == "bessel-tail-sum":
                assert (case.grid_points, case.random_points) == (100, 30)
            elif case.name == "collapse-131":
                assert (case.grid_points, case.random_points) == (1, 0)
            else:
                assert (case.grid_points, case.random_points) == (10_000, 1_000)

    def test_unknown_name_rejected(self):
        with pytest.raises(PreconditionError, match="unknown inequality case"):
            run_case("no-such-case")

    def test_case_without_points_is_an_error(self, monkeypatch):
        # no point, no worst margin: an error of its own, not a stripped assert
        _shrink(monkeypatch, "reciprocal-125", 0, 0)
        with pytest.raises(PartboundsError, match="'reciprocal-125': its sampler yielded no point"):
            run_case("reciprocal-125")


class TestWorstMargins:
    @pytest.mark.parametrize("name", sorted(ALL_NAMES))
    def test_case_clears_zero(self, name, monkeypatch):
        grid, rand = _budget(name)
        _shrink(monkeypatch, name, grid, rand)
        res = run_case(name)
        assert res.passed
        assert res.worst_margin > 0
        expected = 1 if name == "collapse-131" else grid + rand
        assert res.points == expected

    def test_reproducible_for_fixed_seed(self, monkeypatch):
        _shrink(monkeypatch, "reciprocal-125", 60, 60)
        a = run_case("reciprocal-125", seed=DEFAULT_SEED)
        b = run_case("reciprocal-125", seed=DEFAULT_SEED)
        assert a == b

    def test_integer_pairs_stay_admissible(self, monkeypatch):
        _shrink(monkeypatch, "collapse-056", 40, 10)
        res = run_case("collapse-056")
        n, j = res.worst_point
        assert n >= 17 and j >= 1 and 16 * j * j < n


class TestFrozenSpots:
    """Margin values at the tight corner of each domain, frozen as brackets."""

    @pytest.mark.parametrize(
        "name,point,lo,hi",
        [
            ("tail-envelope-15", (Fraction(12),), "0.0252", "0.0253"),
            ("collapse-131", (), "0.0027", "0.00271"),
            ("shifted-envelope-11", (Fraction(335, 24),), "0.0796", "0.0797"),
            ("collapse-056", (17, 1), "0.00177", "0.00178"),
            ("sqrt-exp-decreasing", (Fraction(1),), "0.3131", "0.3132"),
            ("exp-argument-01", (Fraction(335, 24),), "0.0364", "0.0365"),
            ("correction-sum-099", (Fraction(335, 24),), "0.0244", "0.0245"),
            ("collapse-271", (17, 1), "0.289", "0.2891"),
            ("collapse-2075", (17, 1), "414.08", "414.09"),
            ("collapse-3926", (17, 1), "482.003", "482.005"),
            ("collapse-1350", (Fraction(335, 24),), "36.77", "36.78"),
        ],
    )
    def test_corner_margin_bracket(self, name, point, lo, hi):
        m = CASE_INDEX[name].margin(point, 128)
        assert Fraction(lo) < m.lo_fraction < Fraction(hi)

    def test_geometric_min_branch_is_positive_z(self):
        # At u = 0.9 the z = +u branch is the tight one: 81 - 8.1 = 72.9.
        m = CASE_INDEX["geometric-series-100"].margin((Fraction(9, 10),), 128)
        assert m.lo_fraction <= Fraction(729, 10)
        assert Fraction(729, 10) - m.lo_fraction < Fraction(1, 2**100)

    def test_bessel_simplify_tight_near_one(self):
        margin = CASE_INDEX["bessel-simplify-half"].margin
        tight = margin((Fraction(1_000_001, 1_000_000),), 128)
        assert 0 < tight.lo_fraction < Fraction(1, 10**5)
        # Past the sign change of 1/x - x/2 the other branch takes over.
        assert margin((Fraction(141, 100),), 128).lo_fraction > Fraction(9, 10)


class TestHelpers:
    def test_abs_upper_symmetric(self):
        e = Enclosure.from_exact(-2, 128)
        assert abs_upper(e) == 2
        assert abs_upper(Enclosure.from_exact(2, 128)) == 2

    def test_abs_upper_straddling_zero(self):
        e = Enclosure.from_exact(Fraction(-1, 3), 128) + Fraction(1, 7)
        # Enclosure of -4/21; magnitude bound must cover the lower endpoint.
        assert abs_upper(e) >= Fraction(4, 21)
        assert abs_upper(e) - Fraction(4, 21) < Fraction(1, 2**100)


# -- the raw-libmp Bessel tail against its Enclosure expression -----------

def _bessel_halforder(y, prec):
    # [e^y (1 - 1/y) + e^{-y} (1 + 1/y)] / sqrt(2 pi y)
    c = constants(prec)
    ey = exp_enclosure(y, prec)
    iy = 1 / y
    numerator = ey * (1 - iy) + (1 / ey) * (1 + iy)
    return numerator / (2 * c.pi * y).sqrt()


def _own_bessel_tail(x, prec):
    c = constants(prec)
    total = Enclosure.from_exact(0, prec)
    for k in range(2, TAIL_TERMS + 1):
        total = total + _bessel_halforder(x / k, prec)
    rhs = 4 * (x / c.pi).sqrt() * exp_enclosure(x / 2, prec)
    return rhs - total


_EDGE = Fraction(80, 10**9)  # the sampler's 1e-9 pull-in on [20, 100]
_RNG = random.Random(20221)

TAIL_POINTS = [
    20 + _EDGE,  # 250000001/12500000, the golden worst point
    Fraction(50),  # y = 1 at k = 50, so 1 - 1/y is exactly 0
    100 - _EDGE,
    Fraction(_RNG.randint(20 * 10**6, 100 * 10**6), _RNG.randint(10**6, 10**6 + 999)),
]


class TestBesselTailKernel:
    @pytest.mark.parametrize("prec", [16, 53, 128, 300])
    @pytest.mark.parametrize("x", TAIL_POINTS, ids=str)
    def test_same_endpoints_as_enclosure_expression(self, x, prec, monkeypatch):
        hulls = []
        hull = enclosure._hull
        monkeypatch.setattr(
            enclosure, "_hull", lambda *args: hulls.append(args) or hull(*args)
        )
        got = _margin_bessel_tail((x,), prec)
        kernel_hulls = len(hulls)
        want = _own_bessel_tail(x, prec)
        assert (got.lo, got.hi, got.prec) == (want.lo, want.hi, want.prec)
        # a numerator that straddles 0 takes the same hull in both forms;
        # at 16 bits it does in 754 of the 999 terms at the first point
        assert 2 * kernel_hulls == len(hulls)
        if prec == 16 and x == TAIL_POINTS[0]:
            assert kernel_hulls == 754

    def test_disordered_pair_raises_like_an_enclosure(self, monkeypatch):
        _margin_bessel_tail((Fraction(50),), 53)  # constants built
        calls = []
        order = enclosure.ordered
        monkeypatch.setattr(enclosure, "ordered", lambda lo, hi: calls.append(1) or order(lo, hi))
        _margin_bessel_tail((Fraction(50),), 53)
        # twelve order checks per term, each interval the expression built
        assert len(calls) >= 12 * (TAIL_TERMS - 1)
        monkeypatch.setattr(enclosure, "ordered", lambda lo, hi: False)
        with pytest.raises(ValueError, match=ORDER_ERROR):
            _margin_bessel_tail((Fraction(50),), 53)

"""Reduced-budget sweeps, frozen spot margins, domains and raw margins of
the inequality cases."""

import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp
from mpmath.libmp import ln2_fixed

from enclosure_views import (
    constants_view,
    exp_enclosure,
    h_enclosure,
    h_mpmath,
    sqrt_enclosure,
    terms_view,
)
from partbounds import enclosure, fixed, inequalities, special
from partbounds.enclosure import (
    ORDER_ERROR,
    Enclosure,
    _int_ends,
    constants,
    fraction_from_raw,
    ordered,
    ratio_pair,
)
from partbounds.errors import PartboundsError, PreconditionError
from partbounds.estimates import (
    FJN_RADIUS_A,
    FJN_RADIUS_B,
    RATIO_RADIUS_1,
    RATIO_RADIUS_2,
    fjn_j_top,
)
from partbounds.exact import shifted_index
from partbounds.inequalities import (
    CASES,
    CASE_INDEX,
    DEFAULT_SEED,
    FAR_GUARD,
    FAR_START,
    FIXED_GUARD,
    TAIL_TERMS,
    _correction,
    _far_sum,
    _fixed_constants,
    _floor_root,
    _inner_bounds,
    _j_bounds,
    _margin_bessel_tail,
    _n_bounds,
    _pair_j_terms,
    _pair_n_terms,
    _power_sums,
    _product_margin,
    _shifted_floor,
    _tail_sum,
    group_by_domain,
    run_case,
    run_domain,
)
from partbounds.special import DECAY_GUARD, bessel_I32_series, mp_context

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
    # The Bessel tail is registered with 130 points, so keep it small here.
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


FROZEN_SPOTS = [
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
]


class TestFrozenSpots:
    """Margin values at the tight corner of each domain, frozen as brackets."""

    @pytest.mark.parametrize("name,point,lo,hi", FROZEN_SPOTS)
    def test_corner_margin_bracket(self, name, point, lo, hi):
        m = CASE_INDEX[name].margin(point, 128)
        assert Fraction(lo) < fraction_from_raw(m[0]) < Fraction(hi)

    def test_geometric_min_branch_is_positive_z(self):
        # At u = 0.9 the z = +u branch is the tight one: 81 - 8.1 = 72.9.
        m = CASE_INDEX["geometric-series-100"].margin((Fraction(9, 10),), 128)
        assert fraction_from_raw(m[0]) <= Fraction(729, 10)
        assert Fraction(729, 10) - fraction_from_raw(m[0]) < Fraction(1, 2**100)

    def test_bessel_simplify_tight_near_one(self):
        margin = CASE_INDEX["bessel-simplify-half"].margin
        tight = margin((Fraction(1_000_001, 1_000_000),), 128)
        assert 0 < fraction_from_raw(tight[0]) < Fraction(1, 10**5)
        # Past the sign change of 1/x - x/2 the other branch takes over.
        assert fraction_from_raw(margin((Fraction(141, 100),), 128)[0]) > Fraction(9, 10)


def _own_abs_upper(e):
    # exact upper bound for |t| over all t in the enclosure
    return max(-e.lo_fraction, e.hi_fraction)


class TestProductMargin:
    # _product_margin's |b| bounds, from integer ends over 2^w, against
    # abs_upper's larger magnitude (the lower end) and the least |t| over the
    # ends (the upper end)
    @staticmethod
    def _ends(b1, b2):
        ends = _product_margin(
            Fraction(271, 100), 1, 407, b1, Fraction(14, 25), b2, Fraction(131, 100), 128
        )
        return map(fraction_from_raw, ends)

    @staticmethod
    def _exact(a1, a2):
        n = Fraction(407, 24)
        r1, r2 = Fraction(14, 25) / n, Fraction(131, 100) / n
        return Fraction(271, 100) - n * (a1 * a2 + r1 * (1 + a2 + r2) + r2 * (1 + a1))

    def test_one_sided_bounds(self):
        w = 128 + FIXED_GUARD
        b1, b2 = (-(3 << w) // 7, -(2 << w) // 7), ((1 << w) // 9, (1 << w) // 8)
        lo, hi = self._ends(b1, b2)
        assert lo <= self._exact(-Fraction(b1[0], 1 << w), Fraction(b2[1], 1 << w))
        assert hi >= self._exact(-Fraction(b1[1], 1 << w), Fraction(b2[0], 1 << w))

    def test_bound_straddling_zero(self):
        # the larger magnitude covers the lower end; |b| may be 0 above
        w = 128 + FIXED_GUARD
        b1, b2 = (-(4 << w) // 21, (1 << w) // 7), ((1 << w) // 9, (1 << w) // 8)
        lo, hi = self._ends(b1, b2)
        assert lo <= self._exact(Fraction(4, 21), Fraction(1, 8))
        assert self._exact(0, Fraction(1, 9)) <= hi


# -- the fixed-point Bessel tail against its Enclosure expression ---------

def _bessel_halforder(y, prec):
    # [e^y (1 - 1/y) + e^{-y} (1 + 1/y)] / sqrt(2 pi y)
    c = constants_view(prec)
    ey = exp_enclosure(y, prec)
    iy = 1 / y
    numerator = ey * (1 - iy) + (1 / ey) * (1 + iy)
    return numerator / (2 * c.pi * y).sqrt()


def _own_bessel_tail(point, prec):
    (x,) = point
    c = constants_view(prec)
    total = Enclosure.from_exact(0, prec)
    for k in range(2, TAIL_TERMS + 1):
        total = total + _bessel_halforder(x / k, prec)
    rhs = 4 * (x / c.pi).sqrt() * exp_enclosure(x / 2, prec)
    return rhs - total


_EDGE = Fraction(80, 10**9)  # the sampler's 1e-9 pull-in on [20, 100]
_RNG = random.Random(20221)

TAIL_POINTS = [
    20 + _EDGE,  # 250000001/12500000, the golden worst point
    Fraction(50),  # x/k = 1 at k = 50, a term of the far series
    100 - _EDGE,
    Fraction(_RNG.randint(20 * 10**6, 100 * 10**6), _RNG.randint(10**6, 10**6 + 999)),
]


class TestBesselTailKernel:
    # the fixed-point sum is outward by proof, not the interval expression's
    # bits: both enclose the same margin, so they meet
    @pytest.mark.parametrize("prec", [16, 53, 128, 300])
    @pytest.mark.parametrize("x", TAIL_POINTS, ids=str)
    def test_meets_the_interval_expression(self, x, prec):
        lo, hi = map(fraction_from_raw, _margin_bessel_tail((x,), prec))
        want = _own_bessel_tail((x,), prec)
        assert want.prec == prec
        assert lo <= want.hi_fraction and want.lo_fraction <= hi
        # and its error bound leaves it no wider than the padded expression
        assert hi - lo <= want.hi_fraction - want.lo_fraction

    @pytest.mark.parametrize("prec", [16, 53, 128, 300])
    def test_returned_pair_is_ordered(self, prec):
        for x in TAIL_POINTS:
            assert ordered(*_margin_bessel_tail((x,), prec))

    @pytest.mark.parametrize("prec", [53, 128, 1024])
    def test_sum_within_its_bound_of_the_series(self, prec):
        # at x = 100 - eps, whose terms are the largest, S 2^-w is within
        # E 2^-w of the power series summed 64 bits wider, each term within
        # 2^-(prec+62) relative there; E is about 2^-(prec+10) of S, so at
        # 1024 bits a far sum whose floors grow with powers of (x/20)^2 fails
        x = TAIL_POINTS[2]
        total, error, w = _tail_sum(x, prec)
        series = sum(fraction_from_raw(bessel_I32_series(x / k, prec + 64))
                     for k in range(2, TAIL_TERMS + 1))
        gap = abs(Fraction(total, 1 << w) - series) + series / 2 ** (prec + 62)
        assert gap < Fraction(error, 1 << w)

    @pytest.mark.parametrize("prec", [16, 53, 128, 1024])
    @pytest.mark.parametrize("x", TAIL_POINTS, ids=str)
    def test_far_sum_brackets_the_series(self, x, prec):
        # the far terms alone, k >= FAR_START, lie in [F_lo, F_hi] 2^-w, and
        # that bracket is at most two units wide at the widest w the tail uses
        w = prec + 32
        far_lo, far_hi = _far_sum(x.numerator, x.denominator, w, prec)
        series = sum(fraction_from_raw(bessel_I32_series(x / k, prec + 64))
                     for k in range(FAR_START, TAIL_TERMS + 1))
        slack = series / 2 ** (prec + 62)
        assert Fraction(far_lo, 1 << w) < series - slack
        assert series + slack < Fraction(far_hi, 1 << w)
        assert far_hi - far_lo <= 2

    @pytest.mark.parametrize("prec", [16, 53])
    def test_power_sums_within_stated_units(self, prec):
        # zeta_m = sum of (20/k)^(2m + 3/2) over 20 <= k <= 1000 lies in
        # [Z_m, Z_m + 981 (m + 1)) 2^-W, against exact Fraction sums of each
        # term's floor and ceiling over 2^C
        big, c = prec + FAR_GUARD, prec + FAR_GUARD + 34
        terms = TAIL_TERMS - FAR_START + 1
        for m, z in enumerate(_power_sums(prec)):
            lo = hi = Fraction(0)
            for k in range(FAR_START, TAIL_TERMS + 1):
                root = math.isqrt((FAR_START << 2 * c) // k)  # sqrt(20/k) 2^C, floored
                num, den = FAR_START ** (2 * m + 1), k ** (2 * m + 1)
                lo += Fraction(num * root // den, 1 << c)
                hi += Fraction(-(-num * (root + 1) // den), 1 << c)
            assert Fraction(z, 1 << big) <= hi, m
            assert lo < Fraction(z + terms * (m + 1), 1 << big), m
            assert hi - Fraction(z, 1 << big) < Fraction(terms * (m + 1), 1 << big), m

    def test_domain_is_checked(self):
        # the far series' floors are bounded for x/20 <= 5 only
        with pytest.raises(PreconditionError, match="requires 0 < x <= 100"):
            _tail_sum(Fraction(100) + _EDGE, 53)

    @pytest.mark.parametrize("prec", [16, 128, 1024, 4096])
    def test_kernel_arguments_meet_its_preconditions(self, prec, monkeypatch):
        # every (xw, w) the near terms pass at the sampler's ends, from x/19
        # at x = 20 to x/2 at x = 100, meets _bessel_fixed's stated
        # preconditions, and w stays below the 2^16 of the relative bound
        calls = []
        monkeypatch.setattr(inequalities, "_bessel_fixed",
                            lambda xw, w: calls.append((xw, w)) or 1)
        for (x,) in _interval_ends("bessel-tail-sum"):
            _tail_sum(x, prec)
        assert len(calls) == 2 * (FAR_START - 2)
        for xw, w in calls:
            lam = 1.01 * (xw / 2**w) / math.log(2) + 2 * math.sqrt(w) + 10
            assert 16 <= w < 2**16 and xw * xw >= 1 << w and lam <= 2 ** (w - 2)


# -- the raw margins against their Enclosure expressions --------------------
# Each _own_* is the margin's Enclosure expression, the form it had before it
# ran on raw ends.  The raw margins in OWN must give these endpoints bit for
# bit, as exp-convexity-half must below its split.  The others are outward
# by proof and only meet the expression's: shifted-envelope-11 in DECAY_OWN
# reads the fixed-point decay kernel, the four in PAIR_OWN integer bounds and
# the ten in FIXED_OWN integer ends over 2^w, three of them on the decay
# kernel too (TestDecayMargins, TestPairMargins, TestFixedMargins).

def _own_min_lo(margins):
    # the first of the least lower endpoints, as _min_lo keeps it
    return min(margins, key=lambda m: m.lo_fraction)


def _own_geometric(point, prec):
    # 1/(1-z) - 1 - z = z^2/(1-z) for real |z| < 1; check both signs of z.
    (u,) = point
    margins = []
    for z in (u, -u):
        gap = 100 * z * z - z * z / (1 - z)
        margins.append(Enclosure.from_exact(gap, prec))
    return _own_min_lo(margins)


def _own_reciprocal(point, prec):
    (x,) = point
    return Enclosure.from_exact(Fraction(5, 4) * x * x - x * x / (1 - x), prec)


def _own_exp_convexity(point, prec):
    (x,) = point
    return x * x / 2 + 1 - x - exp_enclosure(-x, prec)


def _own_envelope_decreasing(point, prec):
    (x,) = point
    c = constants_view(prec)
    return c.pi * sqrt_enclosure(x, prec) - 2 * c.sqrt2


def _own_collapse_131(point, prec):
    c = constants_view(prec)
    value = Fraction(3, 10) * c.sqrt3 / c.sqrt_two_pi + Fraction(11, 10)
    return Fraction(131, 100) - value


def _own_bessel_simplify(point, prec):
    # 1/x - x/2 changes sign at sqrt(2), so clear both orientations.
    (x,) = point
    base = x * x / 2
    gap = min(base - (1 / x - x / 2), base - (x / 2 - 1 / x))
    return Enclosure.from_exact(gap, prec)


def _own_sqrt_expansion(point, prec):
    (x,) = point
    deviation = (1 - x / 2 - x * x / 8) - sqrt_enclosure(1 - x, prec)
    return x**3 / 10 - deviation


def _own_inverse_sqrt(point, prec):
    (x,) = point
    return 1 + Fraction(3, 5) * x - 1 / sqrt_enclosure(1 - x, prec)


def _own_concavity(point, prec):
    (x,) = point
    return 1 - x / 2 - sqrt_enclosure(1 - x, prec)


def _own_envelope(x, prec):
    # sqrt(x) exp(-(pi/2) sqrt(x/2))
    c = constants_view(prec)
    decay = (-(c.pi / 2) * sqrt_enclosure(x / 2, prec)).exp()
    return sqrt_enclosure(x, prec) * decay


def _own_tail_envelope(point, prec):
    (x,) = point
    return 15 * _own_envelope(x, prec) - h_enclosure(x, prec)


def _own_shifted_envelope(point, prec):
    (x,) = point
    y = x - sqrt_enclosure(x, prec) / 2
    c = constants_view(prec)
    decay = (-(c.pi / 2) * (y / 2).sqrt()).exp()
    return Fraction(11, 10) - x * y.sqrt() * decay


def _own_correction_sum(x, h, prec):
    # sqrt(3)/(sqrt(2) pi sqrt(x)) + h, with h an enclosure of h(x)
    c = constants_view(prec)
    return c.sqrt3 / (c.sqrt2 * c.pi * sqrt_enclosure(x, prec)) + h


def _own_correction(point, prec):
    (x,) = point
    return Fraction(99, 100) - _own_correction_sum(x, h_enclosure(x, prec), prec)


def _own_exp_argument(point, prec):
    (x,) = point
    c = constants_view(prec)
    inner = Fraction(1, 10) / sqrt_enclosure(x, prec) + Fraction(1, 4)
    value = c.pi / (40 * c.sqrt6) + c.pi * c.pi / 24 * inner * inner
    return Fraction(1, 10) - value


def _own_shift_ratio(point, prec):
    (x,) = point
    return Fraction(1, 5) - 1 / (2 * sqrt_enclosure(x, prec))


def _own_collapse_1350(point, prec):
    (x,) = point
    h = h_enclosure(x, prec)
    s = _own_correction_sum(x, h, prec)
    return RATIO_RADIUS_2 - x * (h + 100 * s * s)


def _own_collapse_056(point, prec):
    n, j = point
    c = constants_view(prec)
    nn = shifted_index(n)
    den = 4 * c.sqrt6 * (nn * sqrt_enclosure(nn, prec))
    margins = []
    for big_j in (j, 2 * j):
        err_n = (
            Fraction(2, 5)
            + c.pi * big_j**3 / den
            + Fraction(2, 5) * c.pi * big_j**2 / den
            + Fraction(1, 10)
            + Fraction(big_j, 10) / nn
            + Fraction(1, 25) / nn
        )
        margins.append(Fraction(14, 25) - err_n)
    return _own_min_lo(margins)


def _own_product_error(b1, r1, b2, r2):
    # |(1+b1+E1)(1+b2+E2) - (1+b1+b2)| for |E1| <= r1, |E2| <= r2
    a1 = _own_abs_upper(b1)
    a2 = _own_abs_upper(b2)
    return a1 * a2 + r1 * (1 + a2 + r2) + r2 * (1 + a1)


def _own_j_bracket(t, big_j, prec):
    return Fraction(big_j) / t.N - constants_view(prec).pi * big_j**2 / (4 * t.sqrt6_N_sqrtN)


def _own_collapse_271(point, prec):
    n, j = point
    t = terms_view(n, prec)
    b2 = -t.sqrt3_over_sqrt_two_pi
    margins = []
    for big_j in (j, 2 * j):
        b1 = _own_j_bracket(t, big_j, prec)
        err = _own_product_error(b1, Fraction(14, 25) / t.N, b2, Fraction(131, 100) / t.N)
        margins.append(Enclosure.from_exact(RATIO_RADIUS_1 - t.N * err, prec))
    return _own_min_lo(margins)


def _own_bracket_product_error(n, big_j, prec):
    # N and the error of (1 + b1 +- 1350/N)(1 + b2 +- 2.71/N), where b2 is
    # the J-bracket less sqrt3/(sqrt(2 pi) sqrt N)
    t = terms_view(n, prec)
    b2 = _own_j_bracket(t, big_j, prec) - t.sqrt3_over_sqrt_two_pi
    err = _own_product_error(
        t.sqrt3_over_pi_sqrt2, RATIO_RADIUS_2 / t.N, b2, RATIO_RADIUS_1 / t.N
    )
    return t.N, err


def _own_collapse_2075(point, prec):
    n, j = point
    N, err = _own_bracket_product_error(n, 2 * j, prec)
    return Enclosure.from_exact(FJN_RADIUS_A - N * err, prec)


def _own_collapse_3926(point, prec):
    n, j = point
    N, err = _own_bracket_product_error(n, j, prec)
    return Enclosure.from_exact(FJN_RADIUS_B - 2 * N * err, prec)


OWN = {
    "geometric-series-100": _own_geometric,
    "reciprocal-125": _own_reciprocal,
    "collapse-131": _own_collapse_131,
    "bessel-simplify-half": _own_bessel_simplify,
}
DECAY_OWN = {
    "shifted-envelope-11": _own_shifted_envelope,
}
PAIR_OWN = {
    "collapse-056": _own_collapse_056,
    "collapse-271": _own_collapse_271,
    "collapse-2075": _own_collapse_2075,
    "collapse-3926": _own_collapse_3926,
}
FIXED_OWN = {
    "sqrt-expansion-01": _own_sqrt_expansion,
    "inverse-sqrt-06": _own_inverse_sqrt,
    "concavity-sqrt-positive": _own_concavity,
    "exp-convexity-half": _own_exp_convexity,
    "sqrt-exp-decreasing": _own_envelope_decreasing,
    "tail-envelope-15": _own_tail_envelope,
    "correction-sum-099": _own_correction,
    "exp-argument-01": _own_exp_argument,
    "shift-ratio-02": _own_shift_ratio,
    "collapse-1350": _own_collapse_1350,
}
RAW_NAMES = sorted(OWN)
PAIR_NAMES = sorted(PAIR_OWN)
FIXED_NAMES = sorted(FIXED_OWN)
# the cases that read special._decay_fixed
DECAY_NAMES = sorted(["tail-envelope-15", "shifted-envelope-11", "correction-sum-099",
                      "collapse-1350"])
DECAY_PRECS = (16, 53, 128, 300, 1024, 4096)
FIXED_PRECS = (16, 53, 128, 300, 1024)


def _mp_decay_margin(name, x, ctx):
    # the margin of a decay case at x in mpmath, and its largest term
    xm = ctx.mpf(x.numerator) / x.denominator
    h, d = h_mpmath(x, ctx)
    s = ctx.sqrt(3) / (ctx.sqrt(2) * ctx.pi * ctx.sqrt(xm)) + h
    if name == "tail-envelope-15":
        return 15 * d - h, 15 * d
    if name == "shifted-envelope-11":
        y = xm - ctx.sqrt(xm) / 2
        decay = ctx.sqrt(y) * ctx.exp(-ctx.pi / 2 * ctx.sqrt(y / 2))
        return ctx.mpf(11) / 10 - xm * decay, ctx.mpf(11) / 10
    if name == "correction-sum-099":
        return ctx.mpf(99) / 100 - s, ctx.mpf(1)
    return 1350 - xm * (h + 100 * s * s), ctx.mpf(1350)
PRECS = (16, 53, 128, 300)
# at 16 bits the doubled shift 2j = 48 has a cube above 2^16
WIDE_PAIR = (10_000, fjn_j_top(10_000))


def _is_pair_case(name):
    return CASE_INDEX[name].sampler is inequalities._PAIRS


def _golden_point(name):
    golden = Path(__file__).resolve().parents[1] / "docs" / "golden"
    rows = json.loads((golden / "registry-rows.json").read_text())
    [text] = [row["worst_point"] for row in rows if row["case"] == name]
    parts = [part for part in text.strip("()").split(", ") if part]
    return tuple(int(p) for p in parts) if _is_pair_case(name) else tuple(map(Fraction, parts))


def _interval_ends(name):
    # the sampler's pulled-in domain ends, its first and last grid points
    return list(CASE_INDEX[name].sampler(2, 0, random.Random(0)))


def _check_points(name):
    if _is_pair_case(name):
        ends = [(17, 1), WIDE_PAIR]
    else:
        ends = _interval_ends(name)
    return [_golden_point(name), *ends]


def _assert_same_ends(name, point, prec):
    got = CASE_INDEX[name].margin(point, prec)
    want = OWN[name](point, prec)
    assert want.prec == prec and got == (want.lo, want.hi)


def _clear_memos():
    for memo in (
        fixed.at_width,
        inequalities._floor_root,
        inequalities._correction,
        inequalities._pair_n_terms,
        inequalities._pair_j_terms,
    ):
        memo.cache_clear()


class TestRawMargins:
    def test_every_case_has_its_expression(self):
        # the Bessel tail's is _own_bessel_tail, which it meets but does not
        # equal (TestBesselTailKernel), as the cases in DECAY_OWN, PAIR_OWN
        # and FIXED_OWN meet theirs
        families = (OWN, DECAY_OWN, PAIR_OWN, FIXED_OWN)
        assert sum(map(len, families)) == len(ALL_NAMES) - 1
        assert set().union(*families) == ALL_NAMES - {"bessel-tail-sum"}

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("name", RAW_NAMES)
    def test_same_endpoints_as_enclosure_expression(self, name, prec):
        for point in _check_points(name):
            _assert_same_ends(name, point, prec)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(RAW_NAMES), prec=st.sampled_from(PRECS))
    def test_same_endpoints_at_drawn_points(self, data, name, prec):
        if name == "collapse-131":
            point = ()  # its one point
        else:
            (a,), (b,) = _interval_ends(name)
            u = Fraction(data.draw(st.integers(0, 2**53), label="u"), 2**53)
            point = (a + (b - a) * u,)
        _assert_same_ends(name, point, prec)

    @pytest.mark.parametrize("name", sorted(CASE_INDEX.keys() - {"bessel-tail-sum"}))
    def test_disordered_pair_raises_like_an_enclosure(self, name, monkeypatch):
        point = _check_points(name)[0]
        CASE_INDEX[name].margin(point, 53)
        _clear_memos()
        monkeypatch.setattr(enclosure, "ordered", lambda lo, hi: False)
        with pytest.raises(ValueError, match=ORDER_ERROR):
            CASE_INDEX[name].margin(point, 53)


class TestDecayMargins:
    # tail-envelope-15, correction-sum-099 and collapse-1350 read h and its
    # decay factor from special._decay_fixed's integers, and
    # shifted-envelope-11 reads the decay factor at Y = x - sqrt(x)/2 from
    # it, so their ends are outward by proof, not the Enclosure expression's
    # bits
    @staticmethod
    def _points(name):
        return _check_points(name) + [(Fraction(335, 24),), (Fraction(777, 7),)]

    @pytest.mark.parametrize("prec", DECAY_PRECS)
    @pytest.mark.parametrize("name", DECAY_NAMES)
    def test_meets_the_enclosure_expression(self, name, prec):
        for point in self._points(name):
            lo, hi = CASE_INDEX[name].margin(point, prec)
            want = {**DECAY_OWN, **FIXED_OWN}[name](point, prec)
            assert want.prec == prec
            assert libmp.mpf_le(lo, want.hi) and libmp.mpf_le(want.lo, hi), point

    @pytest.mark.parametrize("prec", DECAY_PRECS)
    @pytest.mark.parametrize("name", DECAY_NAMES)
    def test_within_the_stated_bound_of_mpmath(self, name, prec):
        # the ends contain the margin, in mpmath at 2 prec + 64 bits, and
        # each lies within 2^(6 - prec) of the margin's largest term
        ctx = mp_context(2 * prec + 64)
        for point in self._points(name):
            value, scale = _mp_decay_margin(name, point[0], ctx)
            lo, hi = (ctx.make_mpf(end) for end in CASE_INDEX[name].margin(point, prec))
            bound = scale * ctx.ldexp(1, 6 - prec)
            assert value - bound <= lo <= value <= hi <= value + bound, (point, prec)

    @pytest.mark.parametrize("prec", [16, 128, 1024, 4096])
    @pytest.mark.parametrize("name", DECAY_NAMES)
    def test_kernel_arguments_meet_its_preconditions(self, name, prec, monkeypatch):
        # every (p, q, w) the kernel receives at the sampler's ends has
        # p, q >= 1 and w = prec + DECAY_GUARD >= 16, shifted-envelope-11's Y
        # rounded down is at least 1, where the decay factor decreases, and
        # every fixed.exp argument is reduced: 0 <= tw <= ln2_fixed(w) + 1
        kernel, exps = [], []
        real_kernel, real_exp = special._decay_fixed, fixed.exp

        def record(p, q, w, first=True):
            kernel.append((p, q, w, first))
            return real_kernel(p, q, w, first)

        monkeypatch.setattr(inequalities, "_decay_fixed", record)
        monkeypatch.setattr(fixed, "exp", lambda tw, w: exps.append((tw, w)) or real_exp(tw, w))
        for point in _interval_ends(name):
            _clear_memos()
            CASE_INDEX[name].margin(point, prec)
        w = prec + DECAY_GUARD
        assert len(kernel) == 2 and len(exps) == sum(2 if c[3] else 1 for c in kernel)
        for p, q, kw, first in kernel:
            assert p >= 1 and q >= 1 and kw == w >= 16
            if not first:
                assert q == 1 << w and p >= q
        for tw, ew in exps:
            assert ew == w and 0 <= tw <= ln2_fixed(w) + 1

    @pytest.mark.parametrize("w", [36, 73, 148, 320, 1044])
    def test_shifted_floor_within_two_units_below(self, w):
        # Y 2^w - 2 < Yw <= Y 2^w for Y = x - sqrt(x)/2, decided exactly on
        # squares: with A = x 2^w and X = x 4^(w-1), Y 2^w = A - sqrt(X)
        rng = random.Random(w)
        points = [x for (x,) in self._points("shifted-envelope-11")]
        points += [Fraction(rng.randrange(335 * 10**9, 24 * 10**13), 24 * 10**9)
                   for _ in range(40)]
        for x in points:
            low = inequalities._shifted_floor(x.numerator, x.denominator, w)
            above = x * 2**w - low  # A - Yw, which exceeds sqrt(X)
            big_x = x * 4 ** (w - 1)
            assert above > 0 and above * above >= big_x, x
            assert above - 2 < 0 or (above - 2) ** 2 < big_x, x


class TestPairMargins:
    # the four pair margins are exact integer bounds, monotone in pi and in
    # the floor root of d, each end rounded once: outward by proof, not the
    # Enclosure expression's bits.  collapse-056's expression encloses the
    # same margin; the product margins' expressions evaluate the bound at
    # |b| read from prec-bit enclosures of b, which lie at or above |b|, so
    # their value lies at or below the margin the new ends enclose, and
    # meets them at prec + 200 bits
    @staticmethod
    def _assert_encloses(name, point, prec):
        lo, hi = CASE_INDEX[name].margin(point, prec)
        want, wide = PAIR_OWN[name](point, prec), PAIR_OWN[name](point, prec + 200)
        assert want.prec == prec and wide.prec == prec + 200
        assert libmp.mpf_le(lo, wide.hi) and libmp.mpf_le(wide.lo, hi), (point, prec)
        assert libmp.mpf_le(want.lo, hi), (point, prec)
        if name == "collapse-056":
            assert libmp.mpf_le(lo, want.hi), (point, prec)

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("name", PAIR_NAMES)
    def test_meets_the_enclosure_expression(self, name, prec):
        # the golden worst point, (17, 1) and (10^4, 24), whose doubled
        # shift has a cube of more than 16 bits
        for point in _check_points(name):
            self._assert_encloses(name, point, prec)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(PAIR_NAMES), prec=st.sampled_from(PRECS))
    def test_meets_at_drawn_points(self, data, name, prec):
        n = data.draw(st.integers(17, 10**5), label="n")
        self._assert_encloses(name, (n, data.draw(st.integers(1, fjn_j_top(n)), label="j")), prec)

    @pytest.mark.parametrize("prec", [16, 128])
    def test_integer_bounds_hold_exactly(self, prec):
        # every bound of _n_bounds and _j_bounds, decided on squares against
        # pi's ends [lo, hi] 2^-w: at small w and d, where dropping the + 1
        # of a floor root's upper bound moves a bound by about a unit, and at
        # the registry's w over its (n, J)
        cases = [(d, big_j, w) for d in range(1, 121) for big_j in (1, 2, 5)
                 for w in range(1, 13)]
        cases += [(24 * n - 1, big_j, prec + FIXED_GUARD)
                  for n in (17, 18, 400, 9973, 10_000) for big_j in (1, 2 * fjn_j_top(n))]
        for d, big_j, w in cases:
            k = _fixed_constants(w)
            (lo, hi), (s_lo, s_hi) = k.pi, k.sqrt_pi
            r, c, b = _n_bounds(d, k)
            q, bracket = _j_bounds(d, big_j, k, r)
            four, point = 4**w, (d, big_j, w)
            assert r * r <= d * four < (r + 1) ** 2, point
            assert s_lo * s_lo << w <= lo * four < (s_hi + 1) ** 2 << w, point
            # c = 6/sqrt(pi d), b = 6/(pi sqrt d), q = 12 pi J^2/(d sqrt d)
            assert c[0] ** 2 * hi * d <= 36 * four << w <= c[1] ** 2 * lo * d, point
            assert b[0] ** 2 * hi * hi * d <= 36 * four << 2 * w <= b[1] ** 2 * lo * lo * d, point
            assert q[0] ** 2 * d**3 << 2 * w <= 144 * lo * lo * big_j**4 * four, point
            assert 144 * hi * hi * big_j**4 * four <= q[1] ** 2 * d**3 << 2 * w, point
            # the J-bracket 24J/d - q
            assert (bracket[0] + q[1]) * d <= 24 * big_j << w <= (bracket[1] + q[0]) * d, point


    @pytest.mark.parametrize("prec", FIXED_PRECS)
    @pytest.mark.parametrize("name", PAIR_NAMES + ["shifted-envelope-11"])
    def test_same_ends_as_ratio_pair(self, name, prec):
        # each end, floored or raised to 2^-w and rounded once, is the
        # ratio_pair end of the same quotient: the nested floors of the
        # module docstring
        points = _check_points(name)
        if name == "shifted-envelope-11":
            rng = random.Random(prec)
            points += [(Fraction(rng.randrange(335 * 10**9, 24 * 10**13), 24 * 10**9),)
                       for _ in range(20)]
        else:
            points += [(17, 1), (10**5, fjn_j_top(10**5))]
        for point in points:
            assert CASE_INDEX[name].margin(point, prec) == RATIO_PAIR[name](point, prec), point

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(PAIR_NAMES), prec=st.sampled_from(FIXED_PRECS))
    def test_same_ends_as_ratio_pair_at_drawn_points(self, data, name, prec):
        n = data.draw(st.integers(17, 10**5), label="n")
        point = (n, data.draw(st.integers(1, fjn_j_top(n)), label="j"))
        assert CASE_INDEX[name].margin(point, prec) == RATIO_PAIR[name](point, prec)


# The pair margins and shifted-envelope-11 as they rounded each end before:
# one ratio_pair of the same integers, its other end thrown away.

def _ratio_pair_ends(lo_num, hi_num, den, prec):
    return ratio_pair(lo_num, den, prec)[0], ratio_pair(hi_num, den, prec)[1]


def _ratio_pair_056(point, prec):
    n, j = point
    d, w = 24 * n - 1, prec + FIXED_GUARD
    margins = []
    for big_j in (j, 2 * j):
        q_lo, q_hi = _pair_j_terms(n, big_j, prec)[0]
        five = 5 * big_j + 2
        top, den = (3 * d - 24 * five) << w, 50 * d << w
        margins.append(_ratio_pair_ends(top - 10 * d * five * q_hi, top - 10 * d * five * q_lo,
                                        den, prec))
    return min(margins, key=lambda m: fraction_from_raw(m[0]))


def _ratio_pair_product(radius, scale, d, b1, r1, b2, r2, prec):
    K = 1 << prec + FIXED_GUARD
    P1, D1 = 24 * r1.numerator, r1.denominator * d
    P2, D2 = 24 * r2.numerator, r2.denominator * d
    Q = 24 * K * K * D1 * D2

    def num(A1, A2):
        E = A1 * A2 * D1 * D2 + (P1 * ((K + A2) * D2 + P2 * K) + P2 * (K + A1) * D1) * K
        return radius.numerator * Q - radius.denominator * scale * d * E

    (lo1, hi1), (lo2, hi2) = b1, b2
    return _ratio_pair_ends(num(max(-lo1, hi1), max(-lo2, hi2)),
                            num(max(0, lo1, -hi1), max(0, lo2, -hi2)), radius.denominator * Q,
                            prec)


def _ratio_pair_271(point, prec):
    n, j = point
    c_lo, c_hi = _pair_n_terms(n, prec)[1]
    margins = [
        _ratio_pair_product(RATIO_RADIUS_1, 1, 24 * n - 1, _pair_j_terms(n, big_j, prec)[1],
                            Fraction(14, 25), (-c_hi, -c_lo), Fraction(131, 100), prec)
        for big_j in (j, 2 * j)
    ]
    return min(margins, key=lambda m: fraction_from_raw(m[0]))


def _ratio_pair_bracket(radius, scale, n, big_j, prec):
    _, (c_lo, c_hi), b1 = _pair_n_terms(n, prec)
    j_lo, j_hi = _pair_j_terms(n, big_j, prec)[1]
    return _ratio_pair_product(radius, scale, 24 * n - 1, b1, RATIO_RADIUS_2,
                               (j_lo - c_hi, j_hi - c_lo), RATIO_RADIUS_1, prec)


def _ratio_pair_shifted(point, prec):
    (x,) = point
    a, b = x.numerator, x.denominator
    w = prec + DECAY_GUARD
    _, d, e, z = special._decay_fixed(_shifted_floor(a, b, w), 1 << w, w, first=False)
    top, den = 11 * b << z, 10 * b << z
    return _ratio_pair_ends(top - 10 * a * (d + e), top - 10 * a * (d - e - (d >> (w - 1)) - 1),
                            den, prec)


RATIO_PAIR = {
    "collapse-056": _ratio_pair_056,
    "collapse-271": _ratio_pair_271,
    "collapse-2075": lambda point, prec: _ratio_pair_bracket(FJN_RADIUS_A, 1, point[0],
                                                             2 * point[1], prec),
    "collapse-3926": lambda point, prec: _ratio_pair_bracket(FJN_RADIUS_B, 2, point[0],
                                                             point[1], prec),
    "shifted-envelope-11": _ratio_pair_shifted,
}


class TestFixedMargins:
    # the ten fixed-point margins are integer ends over 2^w (or the decay
    # kernel's 2^-z), monotone in pi, the roots and h, each end rounded once:
    # outward by proof, not the Enclosure expression's bits.  Their ends
    # meet the expression's at prec + 200 bits, and their lower end is at or
    # above the expression's at prec
    @staticmethod
    def _assert_encloses(name, point, prec):
        lo, hi = CASE_INDEX[name].margin(point, prec)
        want, wide = FIXED_OWN[name](point, prec), FIXED_OWN[name](point, prec + 200)
        assert want.prec == prec and wide.prec == prec + 200
        assert libmp.mpf_le(lo, wide.hi) and libmp.mpf_le(wide.lo, hi), (point, prec)
        assert libmp.mpf_le(want.lo, lo), (point, prec)

    @pytest.mark.parametrize("prec", FIXED_PRECS)
    @pytest.mark.parametrize("name", FIXED_NAMES)
    def test_meets_the_enclosure_expression(self, name, prec):
        # the frozen corners, the golden worst point and the sampler's ends
        corners = [point for spot, point, _, _ in FROZEN_SPOTS if spot == name]
        for point in corners + _check_points(name):
            self._assert_encloses(name, point, prec)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(FIXED_NAMES), prec=st.sampled_from(FIXED_PRECS))
    def test_meets_at_drawn_points(self, data, name, prec):
        (a,), (b,) = _interval_ends(name)
        u = Fraction(data.draw(st.integers(0, 2**53), label="u"), 2**53)
        self._assert_encloses(name, (a + (b - a) * u,), prec)

    @staticmethod
    def _points(w):
        # points of the two domains whose margins read 1/sqrt(x), and at
        # small w, where dropping the + 1 of a floor root's upper bound moves
        # a bound by about a unit
        rng = random.Random(w)
        points = [Fraction(335, 24), Fraction(1), Fraction(10**4), Fraction(1, 5 * 10**9),
                  Fraction(1, 5), Fraction(9, 16), Fraction(777, 7)]
        points += [Fraction(rng.randrange(1, 10**13), rng.randrange(1, 10**9)) for _ in range(60)]
        return points

    @pytest.mark.parametrize("w", [2, 3, 5, 8, 13, 48, 160, 1056])
    def test_inner_bounds_hold_exactly(self, w):
        # the inner 1/(10 sqrt x) + 1/4 within [lo, hi] 2^-w, from the floor
        # root of x (tests/test_fixed.py): (lo - 2^(w-2))^2 100 x <= 4^w <=
        # (hi - 2^(w-2))^2 100 x
        four, quarter = 4**w, 1 << w - 2
        for x in self._points(w):
            if x * four >= 1:
                lo, hi = _inner_bounds(_floor_root(x.numerator, x.denominator, w), w)
                assert (lo - quarter) ** 2 * 100 * x <= four <= (hi - quarter) ** 2 * 100 * x, x

    @pytest.mark.parametrize("prec", [16, 53, 128, 1024])
    def test_correction_bounds_hold_exactly(self, prec):
        # h's ends hold [H - E, H + E] 2^-z, both nonnegative, and c =
        # sqrt(3/2)/(pi sqrt x) in [s_lo - h_lo, s_hi - h_hi] 2^-w at pi's
        # and sqrt(3/2)'s ends: (c_lo p_hi)^2 x <= t_lo^2 4^w and
        # (c_hi p_lo)^2 x >= t_hi^2 4^w
        k = _fixed_constants(prec + FIXED_GUARD)
        w = k.w
        (p_lo, p_hi), (t_lo, t_hi) = k.pi, k.sqrt_three_halves
        rng = random.Random(prec)
        points = [Fraction(335, 24), Fraction(10**4), Fraction(777, 7)]
        points += [Fraction(rng.randrange(335 * 10**9, 24 * 10**13), 24 * 10**9)
                   for _ in range(60)]
        for x in points:
            (h_lo, h_hi), (s_lo, s_hi) = _correction(x.numerator, x.denominator, prec)
            big, _, e, z = special._decay_fixed(x.numerator, x.denominator, prec + DECAY_GUARD)
            assert 0 <= h_lo << z - w <= big - e and big + e <= h_hi << z - w, x
            c_lo, c_hi = s_lo - h_lo, s_hi - h_hi
            assert 0 <= c_lo and (c_lo * p_hi) ** 2 * x <= t_lo**2 * 4**w, x
            assert (c_hi * p_lo) ** 2 * x >= t_hi**2 * 4**w, x

    @pytest.mark.parametrize("prec", FIXED_PRECS)
    def test_exp_step_holds_exactly(self, prec):
        # past the split, m = floor(x 2^v / U) >= w and m U <= x 2^v, so
        # m ln 2 < x (ln 2 < U 2^-v) and e^-x < 2^-m <= 2^-w; the split is
        # decided without the division
        k = _fixed_constants(prec + FIXED_GUARD)
        w = k.w
        v = w + 8
        step = k.split // w  # U
        split = Fraction(k.split, 1 << v)
        ctx = mp_context(2 * v)
        assert step * w == k.split and ctx.ln2 < ctx.ldexp(step, -v)
        (first,), (last,) = _interval_ends("exp-convexity-half")
        for x in (split, split - Fraction(1, 10**12), split + Fraction(1, 10**12), first, last,
                  Fraction(w * 7, 10), Fraction(w * 69315, 10**5)):
            a, b = x.numerator, x.denominator
            m = (a << v) // (b * step)
            past = a << v >= b * k.split
            assert past == (m >= w) and m * step * b <= a << v, x
            if past:
                assert ctx.exp(-ctx.mpf(a) / b) < ctx.ldexp(1, -w), x

    @pytest.mark.parametrize("prec", FIXED_PRECS)
    def test_exp_convexity_keeps_its_expression_below_the_split(self, prec):
        # bit for bit below x = w ln 2, from the sampler's first point to
        # just under the split
        k = _fixed_constants(prec + FIXED_GUARD)
        split = Fraction(k.split, 1 << k.w + 8)
        (first,), _ = _interval_ends("exp-convexity-half")
        rng = random.Random(prec)
        below = [first, _golden_point("exp-convexity-half")[0], split - Fraction(1, 10**12),
                 split / 2] + [split * Fraction(rng.randrange(1, 10**6), 10**6) for _ in range(20)]
        for x in below:
            want = _own_exp_convexity((x,), prec)
            assert CASE_INDEX["exp-convexity-half"].margin((x,), prec) == (want.lo, want.hi), x


# -- domains -----------------------------------------------------------------

SHARED_DOMAINS = {
    "[335/24, 10^4]": (
        "shifted-envelope-11", "correction-sum-099", "exp-argument-01", "shift-ratio-02",
        "collapse-1350",
    ),
    "pairs": ("collapse-056", "collapse-271", "collapse-2075", "collapse-3926"),
    "(0, 1/5)": (
        "sqrt-expansion-01", "inverse-sqrt-06", "reciprocal-125", "concavity-sqrt-positive",
    ),
    "[1, 10^4]": ("sqrt-exp-decreasing", "bessel-simplify-half"),
}


class TestDomains:
    def test_domain_partition(self):
        # a refactor that splits one of these domains loses its shared terms
        groups = group_by_domain([case.name for case in CASES])
        assert sorted(group for group in groups if len(group) > 1) == sorted(
            SHARED_DOMAINS.values()
        )
        assert len(groups) == 9
        assert sum(len(group) for group in groups) == len(CASES)

    def test_sweep_hashes_no_fraction(self, monkeypatch):
        # the per-point memos are keyed by the point's integers: a Fraction
        # key would be hashed at every lookup, a modular inverse each time
        names = SHARED_DOMAINS["[335/24, 10^4]"]
        _clear_memos()
        hashed = []
        real = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or real(x))
        assert hash(Fraction(1, 3)) == real(Fraction(1, 3)) and len(hashed) == 1
        hashed.clear()
        assert [result.points for result in run_domain(names)] == [11_000] * len(names)
        assert hashed == []

    @pytest.mark.parametrize("domain", sorted(SHARED_DOMAINS))
    def test_domain_run_equals_single_case_runs(self, domain, monkeypatch):
        names = SHARED_DOMAINS[domain]
        for name in names:
            _shrink(monkeypatch, name, 60, 15)
        assert group_by_domain(names) == [names]
        results = run_domain(names, seed=11)
        assert results == [run_case(name, seed=11) for name in names]
        assert [result.points for result in results] == [75] * len(names)

    def test_ties_go_to_the_first_point(self, monkeypatch):
        names = SHARED_DOMAINS["pairs"]
        for name in names:
            _shrink(monkeypatch, name, 60, 15)
        flat = dataclasses.replace(
            CASE_INDEX["collapse-271"], margin=lambda point, prec: _int_ends(1, prec)
        )
        monkeypatch.setitem(CASE_INDEX, "collapse-271", flat)
        first = next(iter(CASE_INDEX[names[0]].sampler(60, 15, random.Random(DEFAULT_SEED))))
        assert run_domain(names)[1].worst_point == first == run_case("collapse-271").worst_point

    def test_shared_terms_built_once_per_point(self, monkeypatch):
        # on [335/24, 10^4] correction-sum-099 builds the root of x and the
        # correction terms, exp-argument-01 and shift-ratio-02 read the root
        # and collapse-1350 the terms; on (0, 1/5) sqrt-expansion-01 builds
        # the root of 1 - x and two cases read it, with no constant; the
        # constants are built once, in fixed.at_width
        built = []
        real_constants = inequalities._fixed_constants
        monkeypatch.setattr(inequalities, "_fixed_constants",
                            lambda w: built.append(w) or real_constants(w))
        for domain, root_hits, correction, widths in (
            ("[335/24, 10^4]", 150, (75, 75), [enclosure.DEFAULT_PRECISION + FIXED_GUARD]),
            ("(0, 1/5)", 150, (0, 0), []),
        ):
            names = SHARED_DOMAINS[domain]
            for name in names:
                _shrink(monkeypatch, name, 60, 15)
            _clear_memos()
            built.clear()
            run_domain(names)
            root = inequalities._floor_root.cache_info()
            assert (root.misses, root.hits) == (75, root_hits)
            terms = inequalities._correction.cache_info()
            assert (terms.misses, terms.hits) == correction
            assert built == widths
        names = SHARED_DOMAINS["pairs"]
        for name in names:
            _shrink(monkeypatch, name, 60, 15)
        _clear_memos()
        run_domain(names)
        # at most one build of the terms in n per point, none when the point
        # keeps the last one's n; the terms in J at j and 2j at most once,
        # and collapse-271, collapse-2075 and collapse-3926 read them from
        # the memo
        assert inequalities._pair_n_terms.cache_info().misses <= 75
        j_terms = inequalities._pair_j_terms.cache_info()
        assert j_terms.misses <= 2 * 75 and j_terms.hits >= 4 * 75

    def test_cases_of_two_domains_are_refused(self):
        with pytest.raises(PreconditionError, match="do not share one domain"):
            run_domain(["reciprocal-125", "collapse-131"])

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from partbounds import rademacher, special
from partbounds.errors import PrecisionError, PreconditionError
from partbounds.special import (
    bessel_I32_closed,
    bessel_I32_quadrature,
    bessel_I32_series,
    dedekind_sum,
    kloosterman_A,
    kloosterman_imag_residue,
    to_fraction,
)
from partbounds.verify import BESSEL_GRID

TOL64 = Fraction(1, 2**64)


def _sawtooth(x):
    # ((x)) = x - floor(x) - 1/2 off the integers, 0 on them
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def test_integer_dedekind_matches_sawtooth_sum():
    for k in range(1, 121):
        saw = [_sawtooth(Fraction(r, k)) for r in range(k)]
        for h in range(k):
            if math.gcd(h, k) == 1:
                s = sum(saw[r] * saw[h * r % k] for r in range(1, k))
                assert special._dedekind_scaled(h, k) == 4 * k * k * s, (h, k)


def _fraction_phase_kloosterman(k, n_mod_k, prec):
    # A_k(n) as summed with each phase s(h,k) - 2nh/k built as a Fraction
    wp = prec + 16
    re = im = libmp.fzero
    for h in range(k):
        if math.gcd(h, k) != 1:
            continue
        phi = dedekind_sum(h, k) - Fraction(2 * n_mod_k * h, k)
        phi -= 2 * math.floor(phi / 2)
        c, s = special._cis_pi(phi.numerator, phi.denominator, wp)
        re = libmp.mpf_add(re, c, wp, "n")
        im = libmp.mpf_add(im, s, wp, "n")
    residue = libmp.mpf_abs(im)
    if libmp.mpf_gt(residue, libmp.from_man_exp(1, -(prec // 2))):
        raise PrecisionError(f"imaginary residue of A_{k}(n) too large")
    return libmp.mpf_pos(re, prec, "n"), residue


@pytest.mark.parametrize("prec", [53, 128, 192])
def test_integer_phases_keep_every_kloosterman_bit(prec):
    for k in range(1, 61):
        for n_mod_k in range(k):
            assert special._kloosterman_cached(k, n_mod_k, prec) == (
                _fraction_phase_kloosterman(k, n_mod_k, prec)
            ), (k, n_mod_k)


class TestDedekindSum:
    def test_small_values(self):
        assert dedekind_sum(0, 1) == 0
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum(5, 7) == Fraction(-1, 14)

    def test_h_equals_one_closed_form(self):
        # from reciprocity against s(k,1) = 0
        for k in range(1, 51):
            expected = Fraction(-1, 4) + Fraction(k, 12) + Fraction(1, 6 * k)
            if k == 1:
                expected = Fraction(0)
            assert dedekind_sum(1, k) == expected

    def test_reciprocity_all_pairs_to_50(self):
        for k in range(2, 51):
            for h in range(1, k):
                if math.gcd(h, k) != 1:
                    continue
                lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
                rhs = Fraction(-1, 4) + (
                    Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
                ) / 12
                assert lhs == rhs, (h, k)

    def test_negation_symmetry(self):
        for k in (5, 12, 31):
            for h in range(1, k):
                if math.gcd(h, k) == 1:
                    assert dedekind_sum(k - h, k) == -dedekind_sum(h, k)

    def test_h_reduced_mod_k(self):
        assert dedekind_sum(7, 5) == dedekind_sum(2, 5)
        assert dedekind_sum(-1, 5) == dedekind_sum(4, 5)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            dedekind_sum(2, 4)
        with pytest.raises(PreconditionError):
            dedekind_sum(1, 0)


class TestKloosterman:
    def test_k1_is_one(self):
        for n in (0, 1, 17, 200):
            assert kloosterman_A(1, n) == 1

    def test_k2_alternates(self):
        for n in range(11):
            assert kloosterman_A(2, n) == (-1) ** n

    def test_k3_at_zero(self):
        val = kloosterman_A(3, 0, prec=128)
        with mpmath.workprec(200):
            ref = 2 * mpmath.cos(mpmath.pi / 18)
            assert abs(mpmath.mpf(val) - ref) < mpmath.mpf(2) ** -120

    def test_magnitude_bound(self):
        for k in range(1, 51, 7):
            for n in range(0, 201, 37):
                assert abs(to_fraction(kloosterman_A(k, n))) <= k

    def test_imag_residue_small(self):
        for k in (3, 12, 25, 49, 50):
            for n in (0, 7, 123, 200):
                res = kloosterman_imag_residue(k, n, prec=128)
                assert to_fraction(res) < TOL64

    def test_period_in_n(self):
        for k in (5, 9):
            for n in (2, 11):
                assert kloosterman_A(k, n) == kloosterman_A(k, n + 3 * k)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            kloosterman_A(0, 5)
        with pytest.raises(PreconditionError):
            kloosterman_A(5, -1)


def _grid_points():
    # log-spaced rationals covering [0.1, 10^3]
    pts = set()
    for k in (-1, 0, 1, 2):
        for m in (1, 13, 4, 55, 7, 92):
            x = Fraction(m, 10) * Fraction(10) ** k
            if Fraction(1, 10) <= x <= 1000:
                pts.add(x)
    pts.update({Fraction(1, 10), Fraction(1), Fraction(10), Fraction(1000)})
    return sorted(pts)


class TestBessel:
    def test_closed_against_library(self):
        for x in _grid_points():
            mine = bessel_I32_closed(x, prec=128)
            with mpmath.workprec(220):
                ref = mpmath.besseli(
                    mpmath.mpf(3) / 2, mpmath.mpf(x.numerator) / x.denominator
                )
                rel = abs(mpmath.mpf(mine) - ref) / ref
                assert rel < mpmath.mpf(2) ** -120, x

    def test_closed_small_x_cancellation(self):
        # the two exponential terms agree to ~x^3 here; guard bits must cover it
        x = Fraction(1, 10**6)
        mine = bessel_I32_closed(x, prec=128)
        with mpmath.workprec(300):
            ref = mpmath.besseli(
                mpmath.mpf(3) / 2, mpmath.mpf(1) / 10**6
            )
            rel = abs(mpmath.mpf(mine) - ref) / ref
            assert rel < mpmath.mpf(2) ** -120

    def test_small_x_leading_order(self):
        # I_{3/2}(x) ~ (x/2)^{3/2} / Gamma(5/2)
        x = Fraction(1, 1000)
        val = bessel_I32_closed(x, prec=128)
        with mpmath.workprec(128):
            lead = (mpmath.mpf(x.numerator) / x.denominator / 2) ** mpmath.mpf(
                1.5
            ) / mpmath.gamma(mpmath.mpf(2.5))
            assert abs(mpmath.mpf(val) / lead - 1) < 1e-6

    def test_three_forms_agree(self):
        for x in sorted(set(_grid_points()) | set(BESSEL_GRID)):
            c = to_fraction(bessel_I32_closed(x, prec=128))
            s = to_fraction(bessel_I32_series(x, prec=128))
            q = to_fraction(bessel_I32_quadrature(x, prec=128))
            assert abs(s - c) / c < TOL64, x
            assert abs(q - c) / c < TOL64, x
            assert abs(q - s) / s < TOL64, x

    @pytest.mark.parametrize("prec", [53, 128, 300])
    def test_series_against_library(self, prec):
        # the reference carries at least 64 bits more than the series
        for x in _grid_points() + [Fraction(1, 10**6), Fraction(10**4)]:
            mine = bessel_I32_series(x, prec=prec)
            with mpmath.workprec(max(220, prec + 64)):
                ref = mpmath.besseli(
                    mpmath.mpf(3) / 2, mpmath.mpf(x.numerator) / x.denominator
                )
                rel = abs(mpmath.mpf(mine) - ref) / ref
                assert rel < mpmath.mpf(2) ** (2 - prec), x

    def test_asymptotic_normalization(self):
        # I(x) sqrt(2 pi x) - e^x (1 - 1/x) = e^{-x}(1 + 1/x), which at x = 1
        # equals 2 e^{-1} exactly; allow rounding headroom at the boundary
        for x in (1, 2, 5, 10, 50):
            with mpmath.workprec(250):
                val = mpmath.mpf(bessel_I32_closed(Fraction(x), prec=200))
                lhs = val * mpmath.sqrt(2 * mpmath.pi * x) - mpmath.exp(
                    x
                ) * (1 - mpmath.mpf(1) / x)
                expected = mpmath.exp(-x) * (1 + mpmath.mpf(1) / x)
                assert 0 < lhs < (1 + mpmath.mpf(1e-10)) * 2 * mpmath.exp(-x)
                assert abs(lhs / expected - 1) < 1e-10

    def test_positive_and_increasing(self):
        vals = [to_fraction(bessel_I32_closed(x, prec=128)) for x in _grid_points()]
        assert all(v > 0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            bessel_I32_closed(0)
        with pytest.raises(PreconditionError):
            bessel_I32_closed(Fraction(-1, 2))
        with pytest.raises(PreconditionError):
            bessel_I32_quadrature(Fraction(10**4 + 1))
        with pytest.raises(PreconditionError):
            bessel_I32_quadrature(0)
        for x in (0, Fraction(-1, 2), Fraction(10**4) + Fraction(1, 10**6)):
            with pytest.raises(PreconditionError):
                bessel_I32_series(x)


def _context_closed(x, prec):
    # bessel_I32_closed as it was written with an mpmath context, kept as the
    # reference for the raw-libmp form
    xf = to_fraction(x)
    ctx = special.mp_context(prec + special._bessel_guard_bits(xf))
    xm = ctx.convert(xf)
    ex = ctx.exp(xm)
    inv = 1 / xm
    val = (ex * (1 - inv) + (1 / ex) * (1 + inv)) / ctx.sqrt(2 * ctx.pi * xm)
    return libmp.mpf_pos(val._mpf_, prec, "n")


def test_raw_closed_keeps_every_round_bit(monkeypatch):
    # every (X/k, wp) that rademacher_round reads for n <= 150
    seen = set()

    def recording(x, prec):
        seen.add((x, prec))
        return bessel_I32_closed(x, prec)

    monkeypatch.setattr(rademacher, "bessel_I32_closed", recording)
    for n in range(1, 151):
        rademacher.rademacher_round(n)
    assert len(seen) > 4000
    for x, prec in seen:
        assert bessel_I32_closed(x, prec)._mpf_ == _context_closed(x, prec), (x, prec)


@settings(max_examples=150, deadline=None)
@given(
    x=st.fractions(min_value=Fraction(1, 10**6), max_value=10**4, max_denominator=10**6),
    prec=st.integers(53, 4096),
)
@example(x=Fraction(1, 10), prec=128)
@example(x=Fraction(1, 10**6), prec=4096)
@example(x=Fraction(10**4), prec=4096)
# two arguments whose last bit changes if x is converted to nearest
@example(x=Fraction(22, 7), prec=114)
@example(x=Fraction(264678993, 10**6), prec=53)
def test_raw_closed_keeps_every_bit(x, prec):
    # rademacher's arguments are dyadic and convert exactly under any
    # rounding; only non-dyadic ones show how x is converted
    assert bessel_I32_closed(x, prec)._mpf_ == _context_closed(x, prec)


def test_series_memos_are_bounded():
    # the most keys one process used at the default oracles + rademacher
    # ranges: 29930 (_cis_pi), 16059 (_kloosterman_cached), 4072 (_dedekind_scaled)
    for memo, keys in ((special._cis_pi, 29930), (special._kloosterman_cached, 16059),
                       (special._dedekind_scaled, 4072)):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize >= keys

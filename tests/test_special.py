import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from partbounds import rademacher, special
from partbounds.enclosure import fraction_from_raw
from partbounds.errors import PrecisionError, PreconditionError
from partbounds.special import (
    bessel_I32_closed,
    bessel_I32_quadrature,
    bessel_I32_series,
    kloosterman_A,
    kloosterman_imag_residue,
    mp_context,
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


def _dedekind(h, k):
    # s(h,k) for coprime 0 <= h < k, from the integer the phases read
    return Fraction(special._dedekind_scaled(h, k), 4 * k * k)


def _fraction_phase_kloosterman(k, n_mod_k, prec):
    # A_k(n) as summed with each phase s(h,k) - 2nh/k built as a Fraction, over
    # the same fixed-point (cos, sin) integers at prec + 16 bits
    wp = prec + 16
    re = im = 0
    for h in range(k):
        if math.gcd(h, k) != 1:
            continue
        phi = _dedekind(h, k) - Fraction(2 * n_mod_k * h, k)
        phi -= 2 * math.floor(phi / 2)
        c, s = special._cis_pi(phi.numerator, phi.denominator, wp)
        re += c
        im += s
    if abs(im) > 1 << (wp - prec // 2):
        raise PrecisionError(f"imaginary residue of A_{k}(n) too large")
    return libmp.from_man_exp(re, -wp, prec, "n"), libmp.from_man_exp(abs(im), -wp, prec, "n")


@pytest.mark.parametrize("prec", [53, 128, 192])
def test_integer_phases_keep_every_kloosterman_bit(prec):
    for k in range(1, 61):
        for n_mod_k in range(k):
            assert special._kloosterman_cached(k, n_mod_k, prec) == (
                _fraction_phase_kloosterman(k, n_mod_k, prec)
            ), (k, n_mod_k)


def _selberg_reference(k, ctx):
    # A_k(r) for every r < k by Selberg's formula in the mpmath context ctx:
    # sqrt(k/3) sum (-1)^l cos((6l + 1) pi / 6k), 0 <= l < 2k,
    # (3l^2 + l)/2 = -r mod k
    sums = [ctx.mpf(0)] * k
    for l in range(2 * k):
        r = -(3 * l * l + l) // 2 % k
        sums[r] += (-1) ** l * ctx.cospi(ctx.mpf(6 * l + 1) / (6 * k))
    return [ctx.sqrt(ctx.mpf(k) / 3) * total for total in sums]


@pytest.mark.parametrize("prec", [53, 128, 192])
def test_kloosterman_within_its_stated_error(prec):
    # the fixed-point sum and its one rounding at prec put A_k(n) within
    # phi(k) 2^-(prec-1) of its value, here Selberg's form at 4 prec bits
    ctx = mp_context(4 * prec)
    for k in range(1, 61):
        phi = sum(1 for h in range(k) if math.gcd(h, k) == 1)
        bound = phi * ctx.ldexp(1, 1 - prec)
        for r, ref in enumerate(_selberg_reference(k, ctx)):
            value = kloosterman_A(k, r, prec)
            assert abs(ctx.make_mpf(value) - ref) <= bound, (k, r)


class TestDedekindSum:
    def test_small_values(self):
        assert _dedekind(0, 1) == 0
        assert _dedekind(1, 2) == 0
        assert _dedekind(1, 3) == Fraction(1, 18)
        assert _dedekind(5, 7) == Fraction(-1, 14)

    def test_h_equals_one_closed_form(self):
        # from reciprocity against s(k,1) = 0
        for k in range(1, 51):
            expected = Fraction(-1, 4) + Fraction(k, 12) + Fraction(1, 6 * k)
            if k == 1:
                expected = Fraction(0)
            assert _dedekind(1 % k, k) == expected

    def test_reciprocity_all_pairs_to_50(self):
        for k in range(2, 51):
            for h in range(1, k):
                if math.gcd(h, k) != 1:
                    continue
                lhs = _dedekind(h, k) + _dedekind(k % h, h)
                rhs = Fraction(-1, 4) + (
                    Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
                ) / 12
                assert lhs == rhs, (h, k)

    def test_negation_symmetry(self):
        for k in (5, 12, 31):
            for h in range(1, k):
                if math.gcd(h, k) == 1:
                    assert _dedekind(k - h, k) == -_dedekind(h, k)


class TestKloosterman:
    def test_k1_is_one(self):
        for n in (0, 1, 17, 200):
            assert fraction_from_raw(kloosterman_A(1, n)) == 1

    def test_k2_alternates(self):
        for n in range(11):
            assert fraction_from_raw(kloosterman_A(2, n)) == (-1) ** n

    def test_k3_at_zero(self):
        val = kloosterman_A(3, 0, prec=128)
        with mpmath.workprec(200):
            ref = 2 * mpmath.cos(mpmath.pi / 18)
            assert abs(mpmath.mpf(val) - ref) < mpmath.mpf(2) ** -120

    def test_magnitude_bound(self):
        for k in range(1, 51, 7):
            for n in range(0, 201, 37):
                assert abs(fraction_from_raw(kloosterman_A(k, n))) <= k

    def test_imag_residue_small(self):
        for k in (3, 12, 25, 49, 50):
            for n in (0, 7, 123, 200):
                res = kloosterman_imag_residue(k, n, prec=128)
                assert fraction_from_raw(res) < TOL64

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
            c = fraction_from_raw(bessel_I32_closed(x, prec=128))
            s = fraction_from_raw(bessel_I32_series(x, prec=128))
            q = fraction_from_raw(bessel_I32_quadrature(x, prec=128))
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
        vals = [fraction_from_raw(bessel_I32_closed(x, prec=128)) for x in _grid_points()]
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
    # every raw X/k and wp that rademacher_round reads for n <= 400 gives the
    # bits of its value passed as a Fraction, and of the context form
    seen = set()

    def recording(x, prec):
        seen.add((x, prec))
        return bessel_I32_closed(x, prec)

    monkeypatch.setattr(rademacher, "bessel_I32_closed", recording)
    for n in range(1, 401):
        rademacher.rademacher_round(n)
    assert len(seen) > 4000
    for x, prec in seen:
        assert type(x) is tuple and len(x) == 4, x
        xf = fraction_from_raw(x)
        got = bessel_I32_closed(x, prec)
        assert got == bessel_I32_closed(xf, prec) == _context_closed(xf, prec), (x, prec)


def _raw_points():
    # 1, 1/2, 3/4, 2^-20 and the 53- and 128-bit floats next to 1 on either
    # side, raw and normalized, with two unnormalized forms of 1/2 and 1
    points = [libmp.from_rational(p, q, 128) for p, q in ((1, 1), (1, 2), (3, 4), (1, 2**20))]
    for bits in (53, 128):
        points.append(libmp.from_man_exp((1 << bits) - 1, -bits))
        points.append(libmp.from_man_exp((1 << (bits - 1)) + 1, 1 - bits))
    return points + [(0, 2, -2, 2), (0, 4, -2, 3)]


def test_raw_guard_bits_read_off_the_exponent():
    # the exponent arithmetic against _bessel_guard_bits of the value, on
    # both sides of 1, where it is easy to be one off, and on 200-bit
    # mantissas below and just above 1
    points = _raw_points() + [libmp.from_rational(p, q, 200, "d")
                              for p, q in ((1, 3), (5, 7), (10**6 + 1, 10**6))]
    for x in points:
        assert special._raw_guard_bits(x) == special._bessel_guard_bits(fraction_from_raw(x)), x
    got = {fraction_from_raw(x): special._raw_guard_bits(x) for x in _raw_points()}
    assert got[Fraction(1)] == 10
    assert got[Fraction(1, 2)] == got[Fraction(3, 4)] == 16
    assert got[Fraction(1, 2**20)] == 10 + 3 * 21
    assert got[1 - Fraction(1, 2**53)] == 16 and got[1 + Fraction(1, 2**52)] == 10


@pytest.mark.parametrize("prec", [53, 128, 300])
def test_raw_argument_gives_the_fraction_bits(prec):
    # a raw argument and its Fraction convert to the same working float;
    # 128-bit and wider arguments are rounded toward zero at 53 bits
    for x in _raw_points():
        xf = fraction_from_raw(x)
        assert bessel_I32_closed(x, prec) == bessel_I32_closed(xf, prec), (x, prec)
    # 400-bit floats below the two arguments whose last bit changes if x is
    # converted to nearest, at the precisions where it does
    for (p, q), at in (((22, 7), 114), ((264678993, 10**6), 53)):
        x = libmp.from_rational(p, q, 400, "d")
        assert bessel_I32_closed(x, at) == bessel_I32_closed(fraction_from_raw(x), at)
    for bad in (libmp.fzero, libmp.from_int(-1), libmp.finf, libmp.fnan):
        with pytest.raises(PreconditionError):
            bessel_I32_closed(bad, prec)


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
    assert bessel_I32_closed(x, prec) == _context_closed(x, prec)


@pytest.mark.parametrize("prec", [53, 128, 300])
def test_values_leave_as_raw_floats_at_prec(prec):
    # each of the five returns the 4-tuple it computed, rounded to nearest at
    # prec bits, not an mpf of mpmath's 53-bit global context
    x = Fraction(1, 3)
    values = [
        kloosterman_A(3, 0, prec),
        kloosterman_imag_residue(12, 5, prec),
        bessel_I32_closed(x, prec),
        bessel_I32_series(x, prec),
        bessel_I32_quadrature(x, prec),
    ]
    for raw in values:
        assert type(raw) is tuple and len(raw) == 4
        _, man, _, bc = raw
        assert bc <= prec and man.bit_length() == bc
    a, residue, closed, series, quadrature = values
    # against the references of the tests above
    assert closed == _context_closed(x, prec)
    assert fraction_from_raw(residue) < Fraction(1, 2 ** (prec // 2))
    with mpmath.workprec(prec + 64):
        assert abs(mpmath.mpf(a) - 2 * mpmath.cos(mpmath.pi / 18)) < mpmath.mpf(2) ** (4 - prec)
        ref = mpmath.besseli(mpmath.mpf(3) / 2, mpmath.mpf(1) / 3)
        assert abs(mpmath.mpf(series) / ref - 1) < mpmath.mpf(2) ** (2 - prec)
        assert abs(mpmath.mpf(quadrature) / ref - 1) < mpmath.mpf(2) ** -(prec // 2)


def test_to_fraction_takes_only_exact_values():
    assert to_fraction(3) == 3 and to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    for value in (mpmath.mpf(1), libmp.fone, 0.5):
        with pytest.raises(TypeError):
            to_fraction(value)


def test_series_memos_are_bounded():
    # the most keys one process used at the default oracles + rademacher
    # ranges: 3852 (_cis_pi), 2149 (_kloosterman_cached), 774 (_dedekind_scaled),
    # 50 (_phases)
    for memo, keys in ((special._cis_pi, 3852), (special._kloosterman_cached, 2149),
                       (special._dedekind_scaled, 774), (special._phases, 50)):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize >= keys

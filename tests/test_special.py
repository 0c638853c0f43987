import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp
from mpmath.libmp import ln2_fixed

from enclosure_views import h_mpmath
from partbounds import fixed, special
from partbounds.enclosure import fraction_from_raw
from partbounds.errors import PreconditionError
from partbounds.special import (
    bessel_I32_closed,
    bessel_I32_quadrature,
    bessel_I32_series,
    kloosterman_A,
    kloosterman_imag_residue,
    mp_context,
    to_fraction,
)
from partbounds.verify import BESSEL_GRID, run_suite

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


def _fraction_phase(h, k, n_mod_k):
    # the phase of term h of A_k(n) over pi, s(h,k) - 2nh/k, reduced mod 2
    phi = _dedekind(h, k) - Fraction(2 * n_mod_k * h, k)
    return phi - 2 * math.floor(phi / 2)


def _fraction_phase_kloosterman(k, n_mod_k, prec):
    # A_k(n) as summed with each phase built as a Fraction, its table index
    # the phase times 4k^2, over the same root table
    w, size, small, big = special._root_table(k, prec)
    re = im = 0
    for h in range(k):
        if math.gcd(h, k) == 1:
            j = _fraction_phase(h, k, n_mod_k) * 4 * k * k
            assert j.denominator == 1 and 0 <= j < 8 * k * k
            (c, s), (c2, s2) = big[int(j) // size], small[int(j) % size]
            re += c * c2 - s * s2
            im += c * s2 + s * c2
    return (libmp.from_man_exp(re, -2 * w, prec, "n"),
            libmp.from_man_exp(abs(im), -2 * w, prec, "n"))


class _Recorded(tuple):
    # a table that records the indices read from it
    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("prec", [53, 128])
def test_table_index_is_the_fraction_phase(monkeypatch, prec):
    # for each h in turn, the sum reads omega^{aB} and omega^b with
    # aB + b = (s(h,k) - 2nh/k mod 2) * 4k^2, for every k <= 60 and n mod k
    real = special._root_table

    def recording(k, p):
        w, size, small, big = real(k, p)
        small, big = _Recorded(small), _Recorded(big)
        small.read, big.read = [], []
        recording.last = (size, small.read, big.read)
        return w, size, small, big

    monkeypatch.setattr(special, "_root_table", recording)
    for k in range(1, 61):
        for n_mod_k in range(k):
            special._kloosterman_cached.__wrapped__(k, n_mod_k, prec)
            size, small, big = recording.last
            want = [_fraction_phase(h, k, n_mod_k) * 4 * k * k
                    for h in range(k) if math.gcd(h, k) == 1]
            assert all(b < size for b in small), (k, n_mod_k)
            assert [a * size + b for a, b in zip(big, small)] == want, (k, n_mod_k)
    monkeypatch.undo()
    for k in (1, 2, 7, 12, 60):
        for n_mod_k in range(k):
            assert special._kloosterman_cached(k, n_mod_k, prec) == (
                _fraction_phase_kloosterman(k, n_mod_k, prec)), (k, n_mod_k)


def test_root_table_entries_within_their_bound():
    # omega^b (small) within 1.8 b 2^-w and omega^{aB} (big) within
    # (1.8 B + 0.71) a 2^-w of their values, against mpmath at 4w bits
    for k, prec in ((1, 53), (7, 128), (50, 128), (97, 300)):
        w, size, small, big = special._root_table(k, prec)
        assert w == prec + 21 + 2 * k.bit_length()
        assert size * size >= 8 * k * k > (size - 1) ** 2
        assert len(big) * size >= 8 * k * k > (len(big) - 1) * size
        ctx = mp_context(4 * w)
        for table, stride, grow in ((small, 1, 1.8), (big, size, 1.8 * size + 0.71)):
            for i, (c, s) in enumerate(table):
                value = ctx.expjpi(ctx.mpf(i * stride) / (4 * k * k))
                err = abs(ctx.mpc(c, s) / ctx.mpf(2) ** w - value)
                assert err <= grow * i * ctx.mpf(2) ** -w, (k, stride, i)


def test_oracles_take_one_root_of_unity_per_k(monkeypatch):
    # the Kloosterman table of the oracles suite at n_max 150 makes one
    # mpf_cos_sin_pi call per (k, wp): 50, for k <= 50 at one precision
    calls = []
    real = libmp.mpf_cos_sin_pi

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for memo in (special._root_table, special._kloosterman_cached):
        memo.cache_clear()
    monkeypatch.setattr(libmp, "mpf_cos_sin_pi", counted)
    assert run_suite("oracles", n_max=150).passed
    assert len(calls) == 50


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
    # phi(k) 2^-(prec-1) of its value, here Selberg's form at 4 prec bits;
    # the table's guard bits grow with log2 k, so large k keep the bound
    ctx = mp_context(4 * prec)
    for k in [*range(1, 61), 100, 250, 500]:
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


def _delta(x, w):
    # Delta_w(x) of the special docstring, in units of 2^-w, as a Fraction
    ctx = mp_context(64)
    x = ctx.mpf(x.numerator) / x.denominator
    lam = 1.01 * x / ctx.ln2 + 3 * ctx.sqrt(w) + 10
    value = lam * (ctx.exp(x) + 3) * (1 + 1 / x) / ctx.sqrt(2 * ctx.pi * x) + 2
    return fraction_from_raw(value._mpf_)


# x in (0, 10^4], the domain of both oracles, with x <= 1/10 (where the
# bracket cancels) drawn as often as the rest
_ORACLE_X = st.one_of(
    st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(1, 10),
                 max_denominator=10**12),
    st.fractions(min_value=Fraction(1, 10), max_value=10**4, max_denominator=10**6),
)


@settings(max_examples=120, deadline=None)
@given(x=_ORACLE_X, prec=st.sampled_from([16, 53, 128, 300]))
@example(x=Fraction(1, 10**9), prec=300)
@example(x=Fraction(1, 10), prec=16)
@example(x=Fraction(1), prec=53)
@example(x=Fraction(10**4), prec=300)
def test_kernel_within_delta_of_the_series(x, prec):
    # the kernel at bessel_I32_closed's w, on x rounded down to w bits, is
    # within Delta_w of the series at that same dyadic x (evaluated 64 bits
    # wider, within 2^-(prec+62) relative), and Delta_w is below
    # 2^-(prec+12) of the value
    w = prec + special._bessel_guard_bits(x) + 16
    xw = (x.numerator << w) // x.denominator
    got = Fraction(special._bessel_fixed(xw, w), 1 << w)
    series = fraction_from_raw(bessel_I32_series(Fraction(xw, 1 << w), prec + 64))
    bound = _delta(Fraction(xw, 1 << w), w) / (1 << w)
    assert abs(got - series) <= bound + series / 2 ** (prec + 62), (x, prec)
    assert bound <= series / 2 ** (prec + 12), (x, prec)


@pytest.mark.parametrize("prec", [53, 128])
def test_kernel_within_delta_beyond_the_oracle_domain(prec):
    # past x = 10^4, where neither oracle reaches, against the closed form at
    # 4w bits in mpmath; the guard bits that count the bits of x keep Delta_w
    # below 2^-(prec+12) of the value
    for x in (Fraction(10**5), Fraction(10**6, 3)):
        w = prec + special._bessel_guard_bits(x) + 16
        xw = (x.numerator << w) // x.denominator
        ctx = mp_context(4 * w)
        xm = ctx.mpf(xw) / ctx.mpf(2) ** w
        ref = ((ctx.exp(xm) * (1 - 1 / xm) + ctx.exp(-xm) * (1 + 1 / xm))
               / ctx.sqrt(2 * ctx.pi * xm))
        err = abs(ctx.mpf(special._bessel_fixed(xw, w)) / ctx.mpf(2) ** w - ref)
        bound = _delta(Fraction(xw, 1 << w), w)
        bound = ctx.mpf(bound.numerator) / bound.denominator
        assert err <= bound * ctx.mpf(2) ** -w, (x, prec)
        assert bound <= ref * ctx.mpf(2) ** (w - prec - 12), (x, prec)


@pytest.mark.parametrize("prec", [16, 128, 4096])
def test_guard_bits_meet_the_relative_bound(prec):
    # Delta_w, with lambda's 3 sqrt(w), stays below 2^-(prec+12) of I at the
    # kernel's w = prec + 16 + _bessel_guard_bits(x), where the bracket
    # cancels below 1, on both sides of 1 and up to x = 10^4: the guard bits
    # need no change for the wider lambda
    for x in (Fraction(1, 10**6), Fraction(1, 50), Fraction(999, 1000), Fraction(1),
              Fraction(3, 2), Fraction(50), Fraction(10**4)):
        w = prec + 16 + special._bessel_guard_bits(x)
        xw = Fraction((x.numerator << w) // x.denominator, 1 << w)
        value = fraction_from_raw(bessel_I32_series(xw, 64))
        assert _delta(xw, w) < value * (1 - Fraction(1, 2**60)) * 2 ** (w - prec - 12), (x, prec)


@settings(max_examples=40, deadline=None)
@given(x=_ORACLE_X, prec=st.sampled_from([16, 53, 128, 300]))
@example(x=Fraction(1, 10**6), prec=300)
@example(x=Fraction(10**4), prec=300)
def test_closed_agrees_with_series_and_quadrature(x, prec):
    # closed is within (1 + 2^-11) 2^-prec of I relative, the series within
    # 2^(2-prec) (test_series_against_library), and the quadrature within
    # its own 2^-(prec//2) gate before its rounding at prec
    closed = fraction_from_raw(bessel_I32_closed(x, prec))
    series = fraction_from_raw(bessel_I32_series(x, prec))
    quadrature = fraction_from_raw(bessel_I32_quadrature(x, prec))
    ours = (1 + Fraction(1, 2**11)) / 2**prec
    assert abs(closed - series) <= (ours + Fraction(4, 2**prec)) * series, (x, prec)
    theirs = Fraction(1, 2 ** (prec // 2)) + Fraction(2, 2**prec)
    assert abs(closed - quadrature) <= (ours + theirs) * closed * (1 + ours), (x, prec)


def test_closed_matches_the_series_bits():
    # at BESSEL_GRID (where the oracles suite reads the two forms) and at
    # 200 seeded points the two forms round to the same bits
    rng = random.Random(3)
    points = [(x, prec) for x in BESSEL_GRID for prec in (53, 128, 300)]
    points += [(Fraction(rng.randrange(1, 10**7), 10 ** rng.randrange(3, 9)),
                rng.choice([53, 128])) for _ in range(200)]
    differ = [(x, prec) for x, prec in points
              if bessel_I32_closed(x, prec) != bessel_I32_series(x, prec)]
    assert differ == []


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
    assert fraction_from_raw(residue) < Fraction(1, 2 ** (prec // 2))
    with mpmath.workprec(prec + 64):
        assert abs(mpmath.mpf(a) - 2 * mpmath.cos(mpmath.pi / 18)) < mpmath.mpf(2) ** (4 - prec)
        ref = mpmath.besseli(mpmath.mpf(3) / 2, mpmath.mpf(1) / 3)
        ours = (1 + mpmath.mpf(2) ** -11) * mpmath.mpf(2) ** -prec
        assert abs(mpmath.mpf(closed) / ref - 1) < ours
        assert abs(mpmath.mpf(series) / ref - 1) < mpmath.mpf(2) ** (2 - prec)
        assert abs(mpmath.mpf(quadrature) / ref - 1) < mpmath.mpf(2) ** -(prec // 2)


def test_to_fraction_takes_only_exact_values():
    assert to_fraction(3) == 3 and to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    for value in (mpmath.mpf(1), libmp.fone, 0.5):
        with pytest.raises(TypeError):
            to_fraction(value)


def test_series_memos_are_bounded():
    # the most keys one process used at the default oracles + rademacher
    # ranges: 121 (_root_table), 2149 (_kloosterman_cached), 774
    # (_dedekind_scaled), 50 (_phases)
    for memo, keys in ((special._root_table, 121), (special._kloosterman_cached, 2149),
                       (special._dedekind_scaled, 774), (special._phases, 50)):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize >= keys


# -- the decay kernel behind h and its decay factor ------------------------

# across (0, 10^6], the registry's domain ends and golden worst points among
# them, and two extremes far beyond it
DECAY_POINTS = [
    Fraction(1, 10**30),
    Fraction(1, 10**6),
    Fraction(1, 7),
    Fraction(1),
    Fraction(12),
    Fraction(335, 24),
    Fraction(22333349311, 1600000000),
    Fraction(2499999997503, 250000000),
    Fraction(10**4),
    Fraction(10**6),
    Fraction(10**30),
]
DECAY_PRECS = [16, 53, 128, 300, 1024, 4096]


def _decay_reference(x, prec):
    # h(x), d(x) and h's second term in mpmath at 2 prec + 64 bits, within
    # 2^-(2 prec + 48) of each relative
    ctx = mp_context(2 * prec + 64)
    h, d = h_mpmath(x, ctx)
    return ctx, h, d, 8 * ctx.pi / ctx.sqrt(3) * d


@pytest.mark.parametrize("prec", DECAY_PRECS)
def test_decay_kernel_within_its_bound(prec):
    # H 2^-z and D 2^-z within E 2^-z of h and d, and with first false H is
    # h's second term within its own E
    w = prec + special.DECAY_GUARD
    for x in DECAY_POINTS:
        ctx, h, d, second = _decay_reference(x, prec)
        slack = h * ctx.mpf(2) ** -(2 * prec + 48)
        H, D, E, z = special._decay_fixed(x.numerator, x.denominator, w)
        unit = ctx.ldexp(1, -z)
        assert abs(H * unit - h) + slack <= E * unit, (x, prec)
        assert abs(D * unit - d) + slack <= E * unit, (x, prec)
        H2, D2, E2, z2 = special._decay_fixed(x.numerator, x.denominator, w, first=False)
        assert (D2, z2) == (D, z)
        assert abs(H2 * unit - second) + slack <= E2 * unit, (x, prec)


@pytest.mark.parametrize("prec", DECAY_PRECS)
def test_decay_bound_covers_the_proof(prec):
    # E is at least what the docstring's last step needs: rho h 2^z plus the
    # unit of the first term's floor, rho = (3 sqrt w + 10.2) 2^-w
    w = prec + special.DECAY_GUARD
    for x in DECAY_POINTS:
        ctx, h, _, _ = _decay_reference(x, prec)
        _, _, E, z = special._decay_fixed(x.numerator, x.denominator, w)
        assert E >= (3 * ctx.sqrt(w) + ctx.mpf("10.2")) * h * ctx.ldexp(1, z - w) + 1, (x, prec)


@pytest.mark.parametrize("prec", DECAY_PRECS)
def test_decay_reduced_arguments_within_stated_units(prec, monkeypatch):
    # each fixed.exp(tw, w) the kernel makes reads a reduced argument
    # 0 <= tw <= ln2_fixed(w) + 1, within 1.07 units 2^-w of
    # u = n ln 2 - b sqrt x, where e^{-b sqrt x} = 2^-n e^u, for b2 and
    # then b1; the floor into w bits alone takes it past half of that
    calls = []
    real = fixed.exp
    monkeypatch.setattr(fixed, "exp", lambda tw, w: calls.append((tw, w)) or real(tw, w))
    w = prec + special.DECAY_GUARD
    ctx = mp_context(2 * w + 64)
    worst = 0
    for x in DECAY_POINTS:
        calls.clear()
        special._decay_fixed(x.numerator, x.denominator, w)
        root = ctx.sqrt(ctx.mpf(x.numerator) / x.denominator)
        betas = [ctx.pi / (2 * ctx.sqrt(2)), ctx.pi * ctx.sqrt(ctx.mpf(2) / 3)]
        assert [call[1] for call in calls] == [w, w]
        for (tw, _), beta in zip(calls, betas):
            assert 0 <= tw <= ln2_fixed(w) + 1, (x, prec)
            got = ctx.ldexp(tw, -w)
            n = ctx.nint((got + beta * root) / ctx.ln2)
            units = abs(got - (n * ctx.ln2 - beta * root)) * ctx.ldexp(1, w)
            assert units < 1.07, (x, prec, units)
            worst = max(worst, units)
    assert worst > 0.5

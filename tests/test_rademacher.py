import math
import time
from fractions import Fraction

import pytest
from mpmath import libmp

from enclosure_views import constants_view, h_enclosure, h_mpmath, sqrt_enclosure
from partbounds import enclosure, rademacher, special
from partbounds.enclosure import (
    DEFAULT_PRECISION,
    ORDER_ERROR,
    fraction_from_raw,
)
from partbounds.errors import PreconditionError, StabilizationError
from partbounds.exact import p_exact
from partbounds.rademacher import (
    _ESTIMATE_SHARE,
    _FIXED_GUARD,
    _fixed_term,
    _lehmer_lead,
    _remainder_bound,
    _remainder_estimate,
    _series_state,
    h_error,
    proposition21_budget,
    proposition21_interval,
    rademacher_round,
)
from partbounds.special import bessel_I32_closed, mp_context


def _recorded_round(monkeypatch, n):
    """rademacher_round(n) and the terms it summed, in order, as Fractions."""
    terms = []

    def record(n, k, wp, X):
        terms.append(_fixed_term(n, k, wp, X))
        return terms[-1]

    monkeypatch.setattr(rademacher, "_fixed_term", record)
    got = rademacher_round(n)
    scale = 1 << (_series_state(n, DEFAULT_PRECISION)[0] + _FIXED_GUARD)
    return got, [Fraction(term, scale) for term in terms]


class TestRound:
    def test_matches_exact_small(self):
        for n in range(1, 61):
            assert rademacher_round(n) == p_exact(n), n

    def test_matches_exact_spot(self):
        for n in (100, 200, 663, 1000, 1729, 2000):
            assert rademacher_round(n) == p_exact(n), n

    def test_matches_exact_near_term_boundaries(self):
        # Indices where a partial sum hovers within 1/4 of the wrong integer
        # for several consecutive depths; the tail certificate must not stop
        # there.
        for n in (1597, 1807, 1818, 1948, 1982):
            assert rademacher_round(n) == p_exact(n), n

    def test_remainder_bound_covers_error(self, monkeypatch):
        # |p(n) - prefactor * S_N| <= R(n, N) at every depth a round reaches;
        # the largest error-to-bound ratio here is about 0.12
        for n in [*range(2, 301), 1597, 1807, 1818, 1948, 1982]:
            got, terms = _recorded_round(monkeypatch, n)
            want = p_exact(n)
            assert got == want, n
            wp, _, prefactor = _series_state(n, DEFAULT_PRECISION)
            prefactor = Fraction(prefactor, 1 << (wp + _FIXED_GUARD))
            partial = Fraction(0)
            for N, term in enumerate(terms, 1):
                partial += term
                bound = fraction_from_raw(_remainder_bound(n, N))
                assert abs(want - prefactor * partial) <= bound, (n, N)

    def test_remainder_bound_is_lehmers(self):
        # each R(n, N) against Lehmer's formula typed again, in an mpmath context
        ctx = mp_context(128)
        for n, N in ((2, 1), (2, 30), (112, 6), (1000, 34), (3000, 45)):
            formula = (44 * ctx.pi ** 2 / (225 * ctx.sqrt(3)) / ctx.sqrt(N)
                       + ctx.pi * ctx.sqrt(2) / 75 * ctx.sqrt(ctx.mpf(N) / (n - 1))
                       * ctx.sinh(ctx.pi / N * ctx.sqrt(ctx.mpf(2 * n) / 3)))
            hi = ctx.make_mpf(_remainder_bound(n, N))
            assert formula <= hi <= formula * (1 + ctx.mpf(2) ** -50), (n, N)

    def test_raw_remainder_is_the_enclosure_expression(self):
        # bit for bit, across the depths rounds reach and the ones they skip
        points = [(n, N) for n in range(2, 400, 3) for N in range(1, 30, 2)]
        points += [(n, N) for n in (5000, 10**5, 2 * 10**6) for N in (5, 40, 400)]
        for n, N in points:
            assert _remainder_bound(n, N) == _own_remainder(n, N), (n, N)

    def test_remainder_starts_where_it_can_stop(self):
        # R(n, N) >= lo / sqrt N for the 64-bit lower end lo of its first
        # coefficient, about 1.1143, so R >= 1/2 for N <= 4 and neither
        # test in the round can pass there
        first, start = _lehmer_lead()
        lo = fraction_from_raw(first[0])
        assert start == 5
        assert Fraction(111431, 100000) < lo < Fraction(111432, 100000)
        assert 4 * lo * lo >= start - 1 and 4 * lo * lo < start
        for n in (2, 3, 150, 3000):
            for N in range(1, start):
                assert fraction_from_raw(_remainder_bound(n, N)) >= Fraction(1, 2), (n, N)

    def test_estimate_share_is_below_the_bound(self):
        # wherever the pre-test could skip R on the estimate alone, the share
        # of it that the round takes lies below the rigorous bound
        checked = 0
        for n in [*range(2, 2001, 7), 5000, 20000, 100000]:
            for N in range(5, 60):
                low = _remainder_estimate(n, N) * _ESTIMATE_SHARE
                if low >= 0.125:
                    checked += 1
                    assert Fraction(low) <= fraction_from_raw(_remainder_bound(n, N)), (n, N)
        assert checked > 15000

    def test_one_rigorous_remainder_per_round(self, monkeypatch):
        # the estimate leaves R to the depth where the round stops: one
        # evaluation per round, 149 for 2 <= n <= 150
        calls = []

        def counted(n, N):
            calls.append(n)
            return _remainder_bound(n, N)

        monkeypatch.setattr(rademacher, "_remainder_bound", counted)
        for n in range(1, 151):
            assert rademacher_round(n) == p_exact(n), n
        assert calls == list(range(2, 151))

    def test_estimate_overflows_to_inf(self):
        # pi sqrt(2n/3)/5 overflows sinh above n of about 1.9 * 10^6
        assert _remainder_estimate(2 * 10**6, 5) == math.inf
        assert _remainder_estimate(2 * 10**6, 6) < math.inf
        assert _remainder_estimate(10**400, 5) == math.inf

    def test_stops_by_remainder_quarter(self, monkeypatch):
        # the first N with R(n, N) < 1/4 is 34 at n = 1000 and 45 at n = 3000
        for n, most in ((1000, 34), (3000, 45)):
            got, terms = _recorded_round(monkeypatch, n)
            assert got == p_exact(n)
            assert len(terms) <= most, (n, len(terms))

    def test_unsettled_series_raises(self, monkeypatch):
        # a series whose sum sits on a half-integer can never be rounded
        wp, _, prefactor = _series_state(150, DEFAULT_PRECISION)
        w = wp + _FIXED_GUARD
        half = (1 << (2 * w - 1)) // prefactor
        assert abs(Fraction(prefactor * half, 1 << 2 * w) - Fraction(1, 2)) < Fraction(1, 2**w)
        monkeypatch.setattr(rademacher, "_fixed_term",
                            lambda n, k, wp, X: half if k == 1 else 0)
        with pytest.raises(StabilizationError, match="did not settle by R"):
            rademacher_round(150)

    def test_fixed_terms_within_their_bound(self, monkeypatch):
        # every term the rounds for n <= 400 sum is within the bound of the
        # module docstring of A_k(n)/k I_{3/2}(X/k), here at 4 wp bits with
        # A_k(n) from Selberg's formula; the bounds of one round add up, with
        # the prefactor, to far below the 1/2 the round leaves for them
        seen = []

        def record(n, k, wp, X):
            seen.append((n, k, wp, _fixed_term(n, k, wp, X)))
            return seen[-1][-1]

        monkeypatch.setattr(rademacher, "_fixed_term", record)
        for n in range(2, 401):
            rademacher_round(n)
        assert len(seen) > 4000
        selberg = {}
        total = {}
        for n, k, wp, term in seen:
            w = wp + _FIXED_GUARD
            ctx = mp_context(4 * wp)
            if (k, n % k, wp) not in selberg:
                selberg[k, n % k, wp] = _selberg(ctx, k, n)
            x = ctx.pi * ctx.sqrt(24 * n - 1) / 6 / k
            bessel = ((ctx.exp(x) * (1 - 1 / x) + ctx.exp(-x) * (1 + 1 / x))
                      / ctx.sqrt(2 * ctx.pi * x))
            phi = sum(1 for h in range(k) if math.gcd(h, k) == 1)
            bound = ((phi * ctx.ldexp(1, 1 - wp) + ctx.ldexp(1, -w)) * bessel / k
                     + 3 * _delta(ctx, x, w) * ctx.ldexp(1, -w))
            err = abs(ctx.ldexp(term, -w) - selberg[k, n % k, wp] / k * bessel)
            assert err <= bound, (n, k)
            prefactor = 2 * ctx.pi / ctx.power(24 * n - 1, ctx.mpf(3) / 4)
            total[n] = total.get(n, 0) + bound * prefactor
        assert max(total.values()) < ctx.ldexp(1, -40)

    def test_rounds_take_no_float_exponential(self, monkeypatch):
        # the terms come from the fixed-point kernel: no bessel_I32_closed
        # call, and libmp.mpf_exp only inside Lehmer's 64-bit R
        calls = {"exp": 0, "closed": 0}
        inside = []
        real_exp, real_r = libmp.mpf_exp, rademacher._remainder_bound

        def exp(*args, **kwargs):
            if not inside:
                calls["exp"] += 1
            return real_exp(*args, **kwargs)

        def remainder(n, N):
            inside.append(n)
            try:
                return real_r(n, N)
            finally:
                inside.pop()

        def closed(*args, **kwargs):
            calls["closed"] += 1
            return bessel_I32_closed(*args, **kwargs)

        monkeypatch.setattr(libmp, "mpf_exp", exp)
        monkeypatch.setattr(rademacher, "_remainder_bound", remainder)
        monkeypatch.setattr(special, "bessel_I32_closed", closed)
        monkeypatch.setattr(rademacher, "bessel_I32_closed", closed, raising=False)
        for n in range(1, 151):
            assert rademacher_round(n) == p_exact(n), n
        assert calls == {"exp": 0, "closed": 0}

    def test_series_state_within_two_units(self):
        # X = pi sqrt(24n-1)/6 and 2 pi (24n-1)^{-3/4} over 2^W
        for n in (2, 3, 150, 2000, 6000, 10**5):
            wp, X, prefactor = _series_state(n, DEFAULT_PRECISION)
            w = wp + _FIXED_GUARD
            ctx = mp_context(4 * w)
            d = 24 * n - 1
            assert abs(X - ctx.ldexp(ctx.pi * ctx.sqrt(d) / 6, w)) <= 2, n
            assert abs(prefactor - ctx.ldexp(2 * ctx.pi / ctx.power(d, ctx.mpf(3) / 4), w)) <= 2, n

    def test_term_counts_to_2000(self, monkeypatch):
        # the stop depends on A_k(n) only through the rounded partial sums, so
        # the fixed-point Kloosterman sums leave every round's depth as it
        # was: the totals of terms summed for n <= 500, 1000, 1500 and 2000
        terms = [0] * 2001

        def counted(n, k, wp, X):
            terms[n] += 1
            return _fixed_term(n, k, wp, X)

        monkeypatch.setattr(rademacher, "_fixed_term", counted)
        for n in range(1, 2001):
            assert rademacher_round(n) == p_exact(n), n
        assert [sum(terms[:top + 1]) for top in (500, 1000, 1500, 2000)] == [
            6253, 15431, 26531, 39119]

    def test_higher_precision_agrees(self):
        assert rademacher_round(150, prec=256) == p_exact(150)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            rademacher_round(0)


class TestPartial:
    def test_converges_to_value(self):
        # the first K series terms, summed as rademacher_round sums them
        p100 = p_exact(100)
        wp, X, prefactor = _series_state(100, 128)
        scale = 1 << 2 * (wp + _FIXED_GUARD)
        terms = [_fixed_term(100, k, wp, X) for k in range(1, 9)]
        total = Fraction(prefactor * sum(terms), scale)
        first = Fraction(prefactor * terms[0], scale)
        assert abs(total - p100) < Fraction(1, 4)
        assert abs(first / p100 - 1) < Fraction(1, 20)


def _selberg(ctx, k, n):
    # A_k(n) by Selberg's formula in the mpmath context ctx:
    # sqrt(k/3) sum (-1)^l cos((6l + 1) pi / 6k) over 0 <= l < 2k with
    # (3l^2 + l)/2 = -n mod k
    total = sum((-1) ** l * ctx.cospi(ctx.mpf(6 * l + 1) / (6 * k))
                for l in range(2 * k) if (3 * l * l + l) // 2 % k == -n % k)
    return ctx.sqrt(ctx.mpf(k) / 3) * total


def _delta(ctx, x, w):
    # Delta_w(x) of the special module docstring, in units of 2^-w
    lam = 1.01 * x / ctx.ln2 + 2 * ctx.sqrt(w) + 10
    return lam * (ctx.exp(x) + 3) * (1 + 1 / x) / ctx.sqrt(2 * ctx.pi * x) + 2


def _own_remainder(n, N):
    # _remainder_bound's Enclosure expression, the form it had before it was
    # written in raw libmp, with _lehmer_lead's own; the raw forms must give
    # this upper end bit for bit
    c = constants_view(64)
    first = 44 * c.pi * c.pi / (225 * c.sqrt3)
    second = c.pi * c.sqrt2 / 75 / sqrt_enclosure(n - 1, 64)
    a = c.pi * sqrt_enclosure(6 * n, 64) / 3
    root = sqrt_enclosure(N, 64)
    e = (a / N).exp()
    return (first / root + second * root * (e - 1 / e) / 2).hi


# across (0, 10^6]: the ends of the registry's domains of h and the golden
# worst points there
H_POINTS = [
    Fraction(1, 10**6),
    Fraction(1, 3),
    Fraction(12),
    Fraction(335, 24),
    Fraction(22333349311, 1600000000),
    Fraction(2499999997503, 250000000),
    Fraction(10_000),
    Fraction(10**6),
]
H_PRECS = [16, 53, 128, 300, 1024, 4096]


class TestErrorEnvelope:
    @pytest.mark.parametrize("prec", H_PRECS)
    def test_meets_the_enclosure_expression(self, prec):
        # the kernel's ends are outward by proof, not the expression's bits:
        # both enclose h(x), so they meet, and the kernel's are no wider
        for x in H_POINTS:
            got, want = h_error(x, prec), h_enclosure(x, prec)
            assert got.prec == want.prec == prec
            assert libmp.mpf_le(got.lo, want.hi) and libmp.mpf_le(want.lo, got.hi), x
            assert got.hi_fraction - got.lo_fraction <= want.hi_fraction - want.lo_fraction, x

    @pytest.mark.parametrize("prec", H_PRECS)
    def test_within_the_stated_bound_of_mpmath(self, prec):
        # each end lies between h and h +- (2E 2^-z plus one ulp at prec),
        # with (H, D, E, z) the kernel's integers and h in mpmath at
        # 2 prec + 64 bits
        ctx = mp_context(2 * prec + 64)
        for x in H_POINTS:
            h = h_mpmath(x, ctx)[0]
            _, _, e, z = special._decay_fixed(x.numerator, x.denominator,
                                              prec + special.DECAY_GUARD)
            bound = 2 * e * ctx.ldexp(1, -z) + h * ctx.ldexp(1, 1 - prec)
            got = h_error(x, prec)
            lo, hi = ctx.make_mpf(got.lo), ctx.make_mpf(got.hi)
            assert h - bound <= lo <= h <= hi <= h + bound, (x, prec)

    @pytest.mark.parametrize("prec", [16, 4096])
    @pytest.mark.parametrize(
        "x", [Fraction(1, 10**30), Fraction(1, 7), Fraction(12), Fraction(10**4), 10**30], ids=str
    )
    def test_extreme_inputs(self, x, prec):
        # ordered ends that contain h, in bounded time, from e^-10^-15 to
        # e^-(2.6 10^15), whose scale no float exponent of 53 bits reaches
        started = time.perf_counter()
        got = h_error(x, prec)
        assert time.perf_counter() - started < 5.0
        ctx = mp_context(2 * prec + 64)
        h = h_mpmath(Fraction(x), ctx)[0]
        assert ctx.make_mpf(got.lo) <= h <= ctx.make_mpf(got.hi), x

    def test_float_argument_is_refused(self):
        with pytest.raises(TypeError):
            h_error(12.0)

    def test_disordered_pair_raises_like_an_enclosure(self, monkeypatch):
        h_error(Fraction(50), 53)  # constants built
        monkeypatch.setattr(enclosure, "ordered", lambda lo, hi: False)
        with pytest.raises(ValueError, match=ORDER_ERROR):
            h_error(Fraction(50), 53)

    def test_frozen_values(self):
        h12 = h_error(12)
        assert Fraction("1.083076") < h12.lo_fraction
        assert h12.hi_fraction < Fraction("1.083077")
        h14 = h_error(Fraction(335, 24))
        assert Fraction("0.86116") < h14.lo_fraction
        assert h14.hi_fraction < Fraction("0.86117")

    def test_decreasing_and_positive(self):
        xs = [12, 20, 50, 100, 500, 1000]
        vals = [h_error(x) for x in xs]
        assert all(v.strictly_positive() for v in vals)
        for a, b in zip(vals, vals[1:]):
            assert b.hi_fraction < a.lo_fraction

    def test_tight(self):
        enc = h_error(12)
        assert enc.hi_fraction - enc.lo_fraction < Fraction(1, 10**30)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            h_error(0)


class TestLeadingEnclosure:
    def test_contains_small(self):
        enc = proposition21_interval(14)
        assert enc.contains(135)
        assert Fraction(5) < enc.lo_fraction < Fraction(6)
        assert Fraction(263) < enc.hi_fraction < Fraction(264)

    def test_contains_shifted(self):
        # p(m) only: the values at the neighbouring indices lie outside
        enc = proposition21_interval(90)
        assert [enc.contains(p_exact(m)) for m in (89, 90, 91)] == [False, True, False]

    def test_relative_width_narrows(self):
        enc = proposition21_interval(500)
        assert enc.contains(p_exact(500))
        rel = enc.relative_width()
        assert Fraction(1, 10**9) < rel < Fraction(12, 10**9)

    def test_containment_sweep(self):
        for m in range(2, 302):
            assert proposition21_interval(m).contains(p_exact(m)), m

    def test_budget_components(self):
        budget = proposition21_budget(500)
        assert budget.main_correction.strictly_positive()
        assert budget.tail_bound.strictly_positive()
        assert budget.main_correction.hi_fraction < Fraction(1, 50)
        assert budget.tail_bound.hi_fraction < Fraction(1, 10**8)

    def test_preconditions(self):
        for m in (1, 0, -3):
            with pytest.raises(PreconditionError, match="^requires m >= 2$"):
                proposition21_interval(m)
            with pytest.raises(PreconditionError, match="^requires m >= 2$"):
                proposition21_budget(m)
        assert proposition21_interval(2).contains(2)


class TestAsymptoticRatio:
    def test_window_and_monotone(self):
        # p(n) 4 sqrt(3) n e^{-pi sqrt(2n/3)} tends to 1 from below
        ctx = mp_context(192)
        vals = [
            ctx.mpf(p_exact(n)) * 4 * ctx.sqrt(3) * n
            * ctx.exp(-ctx.pi * ctx.sqrt(ctx.mpf(2 * n) / 3))
            for n in (500, 1000, 2000)
        ]
        assert all(0.9 < v < 1.1 for v in vals)
        assert vals[0] < vals[1] < vals[2]


class TestTailDomination:
    def test_tail_sum_under_envelope(self):
        # sum_{k=2}^{1000} I_{3/2}(X/k) <= 4 sqrt(X/pi) e^{X/2}
        for n in (50, 500):
            wp = 192
            ctx = mp_context(wp)
            X = ctx.pi * ctx.sqrt(ctx.mpf(2) * (24 * n - 1) / 72)
            total = ctx.zero
            for k in range(2, 1001):
                total += ctx.make_mpf(bessel_I32_closed(fraction_from_raw((X / k)._mpf_), wp))
            bound = 4 * ctx.sqrt(X / ctx.pi) * ctx.exp(X / 2)
            assert total <= bound, n

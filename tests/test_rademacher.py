from fractions import Fraction

import pytest

from partbounds.errors import PreconditionError
from partbounds.exact import p_exact
from partbounds.rademacher import (
    _series_state,
    _term,
    h_error,
    proposition21_budget,
    proposition21_interval,
    rademacher_round,
)
from partbounds.special import bessel_I32_closed, mp_context, to_fraction


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

    def test_higher_precision_agrees(self):
        assert rademacher_round(150, prec=256) == p_exact(150)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            rademacher_round(0)


class TestPartial:
    def test_converges_to_value(self):
        # the first K series terms, summed as rademacher_round sums them
        p100 = p_exact(100)
        wp, ctx, X, prefactor = _series_state(100, 128)
        terms = [ctx.make_mpf(_term(wp, X._mpf_, 100, k)) for k in range(1, 9)]
        assert abs(prefactor * ctx.fsum(terms) - p100) < 0.25
        assert abs(prefactor * terms[0] / p100 - 1) < 0.05


class TestErrorEnvelope:
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
        enc = proposition21_interval(14, 0)
        assert enc.contains(135)
        assert Fraction(5) < enc.lo_fraction < Fraction(6)
        assert Fraction(263) < enc.hi_fraction < Fraction(264)

    def test_contains_shifted(self):
        assert proposition21_interval(100, 10).contains(p_exact(90))

    def test_depends_only_on_difference(self):
        a = proposition21_interval(100, 10)
        b = proposition21_interval(90, 0)
        assert a.lo == b.lo and a.hi == b.hi

    def test_relative_width_narrows(self):
        enc = proposition21_interval(500, 0)
        assert enc.contains(p_exact(500))
        rel = enc.relative_width()
        assert Fraction(1, 10**9) < rel < Fraction(12, 10**9)

    def test_containment_sweep(self):
        for n in range(2, 302, 7):
            for j in (0, 1, 5):
                if n - j < 2:
                    continue
                enc = proposition21_interval(n, j)
                assert enc.contains(p_exact(n - j)), (n, j)

    def test_budget_components(self):
        budget = proposition21_budget(500, 0)
        assert budget.main_correction.strictly_positive()
        assert budget.tail_bound.strictly_positive()
        assert budget.main_correction.hi_fraction < Fraction(1, 50)
        assert budget.tail_bound.hi_fraction < Fraction(1, 10**8)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            proposition21_interval(5, -1)
        with pytest.raises(PreconditionError):
            proposition21_interval(5, 4)
        with pytest.raises(PreconditionError):
            proposition21_interval(0, 0)


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
                total += ctx.convert(bessel_I32_closed(to_fraction(X / k), wp))
            bound = 4 * ctx.sqrt(X / ctx.pi) * ctx.exp(X / 2)
            assert total <= bound, n

import inspect
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_le

from enclosure_views import constants_view, terms_view
from partbounds import enclosure, estimates, rademacher, verify
from partbounds.enclosure import MEMO_MAXSIZE, ORDER_ERROR, Enclosure, _dyadic_ends, _wrap
from partbounds.errors import PreconditionError
from partbounds.estimates import (
    FJN_RADIUS_A,
    FJN_RADIUS_B,
    KRANK_DIFF_RADIUS_A,
    KRANK_DIFF_RADIUS_B,
    KRANK_RATIO_RADIUS_1,
    RATIO_RADIUS_1,
    RATIO_RADIUS_2,
    CertificateKind,
    _analytic_convexity,
    _chain_fixed,
    _chain_floor,
    _fjn_fixed,
    _krank_fixed,
    _krank_forms,
    _ratio_fixed,
    convexity_certificate,
    fjn_ratio_interval,
    krank_boundary_value,
    krank_diff_interval,
    krank_ratio_interval,
    nonkary_diff_check,
    fjn_j_top,
    ratio_interval,
    ratio_j_top,
    shifted_terms,
)
from partbounds.exact import dyson_rank_count, f_jn, nu_k, p_exact, shifted_index
from partbounds.inequalities import (
    _margin_collapse_271,
    _margin_collapse_2075,
    _margin_collapse_3926,
)
from partbounds.fixed import FIXED_GUARD
from partbounds.rademacher import _prop21_fixed, h_error, proposition21_interval
from partbounds.special import mp_context


def _width(e):
    return e.hi_fraction - e.lo_fraction


def _mid(e):
    return (e.lo_fraction + e.hi_fraction) / 2


def exact_ratio(n, j):
    return Fraction(p_exact(n - j), p_exact(n))


class TestRatioInterval:
    def test_zero_shift_contains_one(self):
        for n in (14, 100, 1000):
            assert ratio_interval(n, 0).contains(1)

    def test_spot_values(self):
        assert ratio_interval(14, 1).contains(Fraction(101, 135))
        assert ratio_interval(1000, 15).contains(exact_ratio(1000, 15))

    def test_containment_sweep(self):
        for n in range(14, 600, 13):
            j = 0
            while 4 * j * j < n:
                assert ratio_interval(n, j).contains(exact_ratio(n, j)), (n, j)
                j += 1

    def test_width_scales_inversely(self):
        # width * N stays bounded by the two radii plus cross terms
        worst = max(
            _width(ratio_interval(n, 0)) * shifted_index(n)
            for n in range(20, 2000, 97)
        )
        assert worst < 2 * (Fraction(271, 100) + 1350) * 2

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            ratio_interval(13, 0)
        with pytest.raises(PreconditionError):
            ratio_interval(14, -1)
        with pytest.raises(PreconditionError):
            ratio_interval(14, 2)


class TestFjnInterval:
    def test_spot_values(self):
        assert fjn_ratio_interval(17, 1).contains(Fraction(f_jn(17, 1), p_exact(17)))
        enc = fjn_ratio_interval(2000, 10)
        assert enc.contains(Fraction(f_jn(2000, 10), p_exact(2000)))

    def test_containment_sweep(self):
        for n in range(17, 600, 7):
            j = 1
            while 16 * j * j < n:
                exact = Fraction(f_jn(n, j), p_exact(n))
                assert fjn_ratio_interval(n, j).contains(exact), (n, j)
                j += 1

    def test_license_window_is_strict(self):
        # j = 1 needs 16 < n, so n = 14..16 admit no shift at all
        for n in (14, 15, 16):
            with pytest.raises(PreconditionError):
                fjn_ratio_interval(n, 1)
        fjn_ratio_interval(17, 1)

    def test_lower_endpoint_above_minus_one_for_large_n(self):
        # the two big radii swamp small n; from about N > 6000 the total
        # interval clears -1 at j = 1
        for n in (6500, 8000, 10000):
            assert fjn_ratio_interval(n, 1).lo_fraction > -1, n

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            fjn_ratio_interval(13, 1)
        with pytest.raises(PreconditionError):
            fjn_ratio_interval(17, 0)
        with pytest.raises(PreconditionError):
            fjn_ratio_interval(17, 2)


class TestExponentialGap:
    def test_x_between_minus_one_and_zero(self):
        # X = e^{-2a} - 2e^{-a} = t^2 - 2t with t in (0,1)
        c = constants_view(128)
        for n, j in ((4, 1), (17, 1), (100, 3), (1000, 4), (5000, 17)):
            Ne = Enclosure.from_exact(shifted_index(n), 128)
            t = (-(c.pi * j / (c.sqrt6 * Ne.sqrt()))).exp()
            X = t * t - 2 * t
            assert X.lo_fraction > -1 and X.hi_fraction < 0, (n, j)


class TestConvexity:
    def test_small_cases_exact(self):
        for n in range(2, 14):
            for j in range(1, n // 2 + 1):
                cert = convexity_certificate(n, j)
                assert cert.holds and cert.kind is CertificateKind.EXACT, (n, j)

    def test_spot(self):
        assert convexity_certificate(2, 1).holds
        assert convexity_certificate(14, 1).holds

    def test_licensed_sweep(self):
        for n in range(17, 400):
            j = 1
            while 16 * j * j < n:
                assert convexity_certificate(n, j).holds, (n, j)
                j += 1

    def test_desk_scale_falls_back_to_exact(self):
        # the analytic chain needs its bracket negative, which fails until
        # N reaches billions; every desk-scale case resolves exactly
        for n in (17, 100, 1000, 9973):
            cert = convexity_certificate(n, 1)
            assert cert.holds and cert.kind is CertificateKind.EXACT

    def test_analytic_branch_at_astronomic_index(self):
        # far beyond any table: succeeds without exact fallback
        cert = convexity_certificate(10**10, 1)
        assert cert.holds and cert.kind is CertificateKind.ANALYTIC

    @pytest.mark.parametrize("prec", [16, 53, 128, 300])
    def test_chain_fails_at_and_below_its_floor(self, prec):
        floor = _chain_floor()
        assert 169_900_000 < floor < 170_000_000
        for n in (floor - 1, floor):
            for j in (1, fjn_j_top(n)):
                assert not _analytic_convexity(n, j, prec), (n, j)

    def test_chain_is_not_run_below_its_floor(self, monkeypatch):
        def chain(n, j, prec):
            raise AssertionError("the chain ran below its floor")

        monkeypatch.setattr(estimates, "_analytic_convexity", chain)
        for n in (17, 1000, 9973):
            cert = convexity_certificate(n, fjn_j_top(n))
            assert cert.holds and cert.kind is CertificateKind.EXACT

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            convexity_certificate(1, 1)
        with pytest.raises(PreconditionError):
            convexity_certificate(5, 0)
        with pytest.raises(PreconditionError):
            convexity_certificate(5, 3)


class TestKrankBoundary:
    def test_known_value(self):
        assert krank_boundary_value(1, 20, 30) == 12

    def test_vanishes_when_arguments_negative(self):
        assert krank_boundary_value(5, 20, 20) == 0

    def test_matches_rank_enumeration(self):
        for n in range(4, 17):
            for m in range(n // 2 + 1, n + 2):
                expected = dyson_rank_count(n, m)
                assert krank_boundary_value(2, m, n) == expected, (m, n)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            krank_boundary_value(1, 10, 30)
        with pytest.raises(PreconditionError):
            krank_boundary_value(0, 20, 30)


class TestKrankRatio:
    def test_containment_spot(self):
        enc = krank_ratio_interval(2, 40, 70)
        lp = 70 - 2 - 40
        exact = Fraction(p_exact(lp + 1) - p_exact(lp), p_exact(lp + 1))
        assert enc.contains(exact)
        assert 0 < exact < 1

    def test_containment_sweep(self):
        for n in range(60, 140, 11):
            for k in (1, 2, 3):
                for m in range(n // 2 + 1, n - k - 15):
                    lp = n - k - m
                    enc = krank_ratio_interval(k, m, n)
                    exact = Fraction(
                        p_exact(lp + 1) - p_exact(lp),
                        p_exact(lp + 1),
                    )
                    assert enc.contains(exact), (k, m, n)
                    assert 0 < exact < 1

    def test_cache_keys_on_shift_difference(self):
        a = krank_ratio_interval(2, 40, 70)
        b = krank_ratio_interval(1, 41, 70)
        assert a.lo == b.lo and a.hi == b.hi

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            krank_ratio_interval(1, 10, 30)
        with pytest.raises(PreconditionError):
            krank_ratio_interval(1, 16, 30)
        with pytest.raises(PreconditionError):
            krank_ratio_interval(0, 40, 70)


class TestKrankDiff:
    def test_both_normalizations_contained(self):
        # the stated collapse indexes the second difference at n-k-m; the
        # recurrence gives n-k-m+1; the enclosure is wide enough for both
        enc = krank_diff_interval(1, 60, 100)
        lp = 100 - 1 - 60
        denom = p_exact(lp + 1)
        assert enc.contains(Fraction(f_jn(lp, 1), denom))
        assert enc.contains(Fraction(f_jn(lp + 1, 1), denom))

    def test_containment_sweep(self):
        for n in range(80, 200, 17):
            for k in (1, 2):
                for m in range(n // 2 + 1, n - k - 15, 3):
                    lp = n - k - m
                    enc = krank_diff_interval(k, m, n)
                    denom = p_exact(lp + 1)
                    assert enc.contains(Fraction(f_jn(lp, 1), denom)), (k, m, n)
                    assert enc.contains(Fraction(f_jn(lp + 1, 1), denom)), (k, m, n)

    def test_midpoint_matches_unit_shift_estimate(self):
        # the shift-1 second-difference brackets keep 2j/N and pi j^2 terms
        # that this estimate absorbs into its radii; midpoints must differ
        # by exactly e^{-2a}(2/N - pi/(sqrt6 N^{3/2}))
        #            - e^{-a}(2/N - pi/(2 sqrt6 N^{3/2}))
        n = 100
        fj = fjn_ratio_interval(n, 1)
        kd = krank_diff_interval(1, 101, 201)  # 201 - 1 - 101 = n - 1
        c = constants_view(128)
        N = shifted_index(n)
        Ne = Enclosure.from_exact(N, 128)
        sqrtN = Ne.sqrt()
        e1 = (-(c.pi / (c.sqrt6 * sqrtN))).exp()
        gapA = Fraction(2) / N - _mid(c.pi / (c.sqrt6 * Ne * sqrtN))
        gapB = Fraction(2) / N - _mid(c.pi / (2 * c.sqrt6 * Ne * sqrtN))
        e1m = _mid(e1)
        expected = e1m * e1m * gapA - e1m * gapB
        observed = _mid(fj) - _mid(kd)
        assert abs(observed - expected) < Fraction(1, 10**25)

    def test_lower_endpoint_negative_at_moderate_scale(self):
        # the 3929/ell radius dominates the positive center until ell is
        # astronomically large; record the observed sign honestly
        enc = krank_diff_interval(1, 10002, 20003)
        assert enc.lo_fraction < 0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            krank_diff_interval(1, 10, 30)
        with pytest.raises(PreconditionError):
            krank_diff_interval(1, 16, 30)


def test_krank_radii_cover_the_dropped_center_terms():
    # N_k(m,n)/p(ell'+1) = 1 - p(ell')/p(ell'+1) is 1 minus the j = 1 ratio
    # at n = ell'+1, and the rank difference is f(1, ell'+1)/p(ell'+1).  The
    # k-rank brackets drop, from the centers of those two estimates, the
    # terms (1 - pi/(4 sqrt6 sqrtN))/N, (2 - pi/(sqrt6 sqrtN))/N and
    # (2 - pi/(2 sqrt6 sqrtN))/N.  Each factor in parentheses is a constant
    # less a positive term that falls as N grows, so it stays below the
    # constant and rises with N: once it is >= 0 at the least N, every larger
    # N keeps it in [0, constant], and each k-rank radius covers the paper's
    # radius plus the dropped term's largest size.
    assert RATIO_RADIUS_1 + 1 <= KRANK_RATIO_RADIUS_1
    assert FJN_RADIUS_A + 2 <= KRANK_DIFF_RADIUS_A
    assert FJN_RADIUS_B + 2 <= KRANK_DIFF_RADIUS_B
    # ell' >= 16, so n = ell'+1 >= 17, where both j = 1 estimates are licensed
    assert ratio_j_top(17) >= 1 and fjn_j_top(17) >= 1
    c, t = constants_view(128), terms_view(17, 128)
    assert t.N == shifted_index(17) == 16 + Fraction(23, 24)
    for factor, constant in (
        (1 - c.pi / (4 * t.sqrt6_sqrtN), 1),
        (2 - c.pi / t.sqrt6_sqrtN, 2),
        (2 - c.pi / (2 * t.sqrt6_sqrtN), 2),
    ):
        assert 0 <= factor.lo_fraction and factor.hi_fraction <= constant


class TestNonkary:
    def test_spot(self):
        assert nonkary_diff_check(2, 1)
        assert nonkary_diff_check(500, 5)

    def test_collapse_identity_directly(self):
        for n in range(2, 200):
            for k in range(1, n // 2 + 1):
                lhs = nu_k(n, k) - nu_k(n - k, k)
                assert lhs == f_jn(n, k), (n, k)

    def test_positive_on_licensed_sweep(self):
        for n in range(17, 2000, 13):
            k = 1
            while 16 * k * k < n:
                assert nonkary_diff_check(n, k), (n, k)
                k += 1

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            nonkary_diff_check(1, 1)
        with pytest.raises(PreconditionError):
            nonkary_diff_check(5, 0)
        with pytest.raises(PreconditionError):
            nonkary_diff_check(4, 3)


def _injection_holds(n, j, ell):
    # p(n - ell) - p(n - ell - j) <= p(n) - p(n - j), with p(m < 0) = 0
    return p_exact(n - ell) - p_exact(n - ell - j) <= p_exact(n) - p_exact(n - j)


def _shift_map(n, j, ell):
    # the convexity suite's shift map on its checked listing of n - ell
    sweep = verify._Sweep()
    partitions = verify._checked_partitions(sweep, n - ell)
    assert not sweep.failures
    return verify._shift_map(partitions, j, ell)


class TestInjection:
    def test_unique_counterexample_at_origin(self):
        # p(0) - p(-1) = 1 > 0 = p(1) - p(0): the inequality genuinely
        # fails at n = j = ell = 1; freeze that as a regression fact
        assert not _injection_holds(1, 1, 1)

    def test_zero_shift_is_equality(self):
        # ell = 0 compares the same difference with itself
        for n, j in ((25, 4), (100, 7)):
            assert _injection_holds(n, j, 0)

    def test_sweep(self):
        for n in range(2, 200):
            for j in (1, 2, 5, 8):
                for ell in (0, 1, 2, 5, 8):
                    assert _injection_holds(n, j, ell), (n, j, ell)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=400),
        j=st.integers(min_value=1, max_value=30),
        ell=st.integers(min_value=0, max_value=30),
    )
    def test_property(self, n, j, ell):
        assert _injection_holds(n, j, ell)

    def test_map_instances(self):
        for n, j, ell in ((12, 2, 3), (20, 1, 5), (18, 2, 2), (25, 4, 0)):
            injective, preserves = _shift_map(n, j, ell)
            assert injective and preserves, (n, j, ell)

    def test_map_can_break_avoidance_when_shift_small(self):
        # a largest part of 3 plus ell = 2 lands on the forbidden part 5
        assert _shift_map(12, 5, 2) == (True, False)


def _krank_query(public):
    # a public k-rank query keyed, as _krank_forms is, on lp = n - k - m
    return lambda lp, prec: public(1, lp + 2, 2 * lp + 3, prec)


@pytest.mark.parametrize(
    "memo, query, first",
    [
        (_krank_forms, _krank_query(krank_ratio_interval), 16),
        (_krank_forms, _krank_query(krank_diff_interval), 16),
        (_krank_forms, _krank_forms, 16),
        (shifted_terms, lambda n, prec: shifted_terms(n, prec + FIXED_GUARD), 1),
    ],
    ids=["krank_ratio_interval", "krank_diff_interval", "_krank_forms", "shifted_terms"],
)
def test_memo_size_is_bounded(memo, query, first):
    # more distinct keys than the bound, at the least precision to stay cheap;
    # both k-rank forms are kept by the one memo _krank_forms
    memo.cache_clear()
    assert memo.cache_info().maxsize == MEMO_MAXSIZE
    for key in range(first, first + MEMO_MAXSIZE + 10):
        query(key, 16)
        assert memo.cache_info().currsize <= MEMO_MAXSIZE
    assert memo.cache_info().currsize == MEMO_MAXSIZE
    memo.cache_clear()


# The reference Enclosure expressions of the estimates, each written as the
# paper states it and independent of the kernels: the kernels' integer ends
# must contain them at prec + 200 bits, and, rounded, lie within
# REFERENCE_ULPS of them at prec.


def _preamble(n, prec):
    N = shifted_index(n)
    Ne = Enclosure.from_exact(N, prec)
    return N, Ne, Ne.sqrt()


def _own_ratio(n, j, prec):
    c = constants_view(prec)
    N, Ne, sqrtN = _preamble(n, prec)
    expf = (-(c.pi * j / (c.sqrt6 * sqrtN))).exp()
    center1 = (
        1
        + Fraction(j) / N
        - c.pi * j * j / (4 * c.sqrt6 * Ne * sqrtN)
        - c.sqrt3 / (c.sqrt_two_pi * sqrtN)
    )
    factor1 = center1.plus_minus(Fraction(271, 100) / N)
    factor2 = (1 + c.sqrt3 / (c.pi * c.sqrt2 * sqrtN)).plus_minus(Fraction(1350) / N)
    return expf * factor1 * factor2


def _own_fjn(n, j, prec):
    c = constants_view(prec)
    N, Ne, sqrtN = _preamble(n, prec)
    exp1 = (-(c.pi * j / (c.sqrt6 * sqrtN))).exp()
    jj = Fraction(2 * j) / N
    centerA = 1 + c.delta_c / sqrtN + jj - c.pi * j * j / (c.sqrt6 * Ne * sqrtN)
    termA = centerA.plus_minus(Fraction(2075) / N)
    centerB = (
        2 + 2 * c.delta_c / sqrtN + jj - c.pi * j * j / (2 * c.sqrt6 * Ne * sqrtN)
    )
    termB = centerB.plus_minus(Fraction(3926) / N)
    return 1 + exp1 * exp1 * termA - exp1 * termB


def _own_convexity_link3(n, j, prec):
    # delta_c/sqrt N + the J-bracket at J = j + 3926/N, the bracket summed first
    c = constants_view(prec)
    N, Ne, sqrtN = _preamble(n, prec)
    bracket = Fraction(j) / N - c.pi * j**2 / (4 * c.sqrt6 * Ne * sqrtN)
    return c.delta_c / sqrtN + bracket + Fraction(3926) / N


def _own_krank(lp, prec):
    c = constants_view(prec)
    ell, Le, sqrtL = _preamble(lp + 1, prec)
    u = (-(c.pi / (c.sqrt6 * sqrtL))).exp()
    f1 = (1 - c.sqrt3 / (c.sqrt_two_pi * sqrtL)).plus_minus(Fraction(101, 25) / ell)
    f2 = (1 + c.sqrt3 / (c.pi * c.sqrt2 * sqrtL)).plus_minus(Fraction(1350) / ell)
    termA = (1 + c.delta_c / sqrtL).plus_minus(Fraction(2079) / ell)
    termB = (2 + 2 * c.delta_c / sqrtL).plus_minus(Fraction(3929) / ell)
    return [1 - u * f1 * f2, 1 + u * u * termA - u * termB]


def _own_prop21(m, prec):
    c = constants_view(prec)
    M, Me, _ = _preamble(m, prec)
    prefactor = (c.pi * (2 * Me / 3).sqrt()).exp() / (4 * c.sqrt3 * Me)
    correction = c.sqrt3 / (c.sqrt2 * c.pi * Me.sqrt())
    return prefactor * (1 - correction).plus_minus(h_error(M, prec))


def _product_error(b1, r1, b2, r2):
    # |(1+b1+E1)(1+b2+E2) - (1+b1+b2)| for |E1| <= r1, |E2| <= r2, in exact
    # Fractions, with |b| bounded by the larger magnitude of its ends
    a1 = max(-b1.lo_fraction, b1.hi_fraction)
    a2 = max(-b2.lo_fraction, b2.hi_fraction)
    return a1 * a2 + r1 * (1 + a2 + r2) + r2 * (1 + a1)


def _own_collapse(n, j, prec):
    c = constants_view(prec)
    nn = shifted_index(n)
    sq = Enclosure.from_exact(nn, prec).sqrt()
    margins = []
    b2 = -(c.sqrt3 / (c.sqrt_two_pi * sq))
    for big_j in (j, 2 * j):
        b1 = Fraction(big_j) / nn - c.pi * big_j**2 / (4 * c.sqrt6 * nn * sq)
        err = _product_error(b1, Fraction(14, 25) / nn, b2, Fraction(131, 100) / nn)
        margins.append(Enclosure.from_exact(Fraction(271, 100) - nn * err, prec))
    b1 = c.sqrt3 / (c.sqrt2 * c.pi * sq)
    b2 = (
        Fraction(2 * j) / nn
        - c.pi * j**2 / (c.sqrt6 * nn * sq)
        - c.sqrt3 / (c.sqrt_two_pi * sq)
    )
    err = _product_error(b1, Fraction(1350) / nn, b2, Fraction(271, 100) / nn)
    m2075 = Enclosure.from_exact(2075 - nn * err, prec)
    b2 = (
        Fraction(j) / nn
        - c.pi * j**2 / (4 * c.sqrt6 * nn * sq)
        - c.sqrt3 / (c.sqrt_two_pi * sq)
    )
    err = _product_error(b1, Fraction(1350) / nn, b2, Fraction(271, 100) / nn)
    m3926 = Enclosure.from_exact(3926 - 2 * nn * err, prec)
    return [min(margins, key=lambda m: m.lo_fraction), m2075, m3926]


def _own_chain(n, j, prec):
    # the chain's three links: link (iii), then j/N - 3 pi j^2/(4 sqrt6
    # N^(3/2)) and e^-2a - 2 e^-a
    c = constants_view(prec)
    N, Ne, sqrtN = _preamble(n, prec)
    e = (-(c.pi * j / (c.sqrt6 * sqrtN))).exp()
    link2 = Fraction(j) / N - 3 * c.pi * j * j / (4 * c.sqrt6 * Ne * sqrtN)
    return [_own_convexity_link3(n, j, prec), link2, e * e - 2 * e]


def _ends(encs):
    return [(e.lo, e.hi) for e in encs]


# How far a rounded end may lie outside the reference's end at prec, in
# units of the reference end's binade: the kernels round once, from 2^-32
# below prec, where the reference rounds at every step, so only an end
# within about 2^-32 ulp of a float can round one ulp outside.
REFERENCE_ULPS = 1


def _ulp(x: Fraction, prec: int) -> Fraction:
    # 2^(e + 1 - prec) for 2^(e-1) < |x| < 2^(e+1): at least one unit in the
    # last place of a prec-bit float of x's size, and at most two
    if not x:
        return Fraction(0)
    e = abs(x.numerator).bit_length() - x.denominator.bit_length()
    return Fraction(2) ** (e + 1 - prec)


def _assert_kernel_ends(lo, hi, w, want, wide, prec):
    # [lo, hi] 2^-w contains the reference at prec + 200 (wide), and its
    # outward rounding at prec lies within REFERENCE_ULPS of the reference
    # at prec (want); returns that rounding as (lo, hi) raw floats
    assert Fraction(lo, 1 << w) <= wide.lo_fraction, (lo, w, wide)
    assert wide.hi_fraction <= Fraction(hi, 1 << w), (hi, w, wide)
    rounded = _wrap(_dyadic_ends(lo, hi, w, prec), prec)
    slack_lo = _ulp(want.lo_fraction, prec) or _ulp(want.hi_fraction, prec)
    slack_hi = _ulp(want.hi_fraction, prec) or _ulp(want.lo_fraction, prec)
    assert rounded.lo_fraction >= want.lo_fraction - REFERENCE_ULPS * slack_lo, (rounded, want)
    assert rounded.hi_fraction <= want.hi_fraction + REFERENCE_ULPS * slack_hi, (rounded, want)
    return rounded.lo, rounded.hi


def _check_ratio(n, j, prec):
    lo, hi, w = _ratio_fixed(n, j, prec)
    assert w == prec + FIXED_GUARD
    ends = _assert_kernel_ends(lo, hi, w, _own_ratio(n, j, prec), _own_ratio(n, j, prec + 200),
                               prec)
    assert _ends([ratio_interval(n, j, prec)]) == [ends]


def _check_fjn(n, j, prec):
    lo, hi, w = _fjn_fixed(n, j, prec)
    ends = _assert_kernel_ends(lo, hi, w, _own_fjn(n, j, prec), _own_fjn(n, j, prec + 200), prec)
    assert _ends([fjn_ratio_interval(n, j, prec)]) == [ends]


def _check_krank(lp, prec):
    ratio, diff, w = _krank_fixed(lp, prec)
    got = [_assert_kernel_ends(*ends, w, want, wide, prec)
           for ends, want, wide in zip((ratio, diff), _own_krank(lp, prec),
                                       _own_krank(lp, prec + 200))]
    assert _ends(_krank_forms.__wrapped__(lp, prec)) == got


def _check_prop21(m, prec):
    lo, hi, w = _prop21_fixed(m, prec)
    ends = _assert_kernel_ends(lo, hi, w, _own_prop21(m, prec), _own_prop21(m, prec + 200), prec)
    assert _ends([proposition21_interval(m, prec)]) == [ends]


def _check_chain(n, j, prec):
    # each link's integer ends contain the link at prec + 200, and the
    # chain's verdict reads them
    b, q, x, w = _chain_fixed(n, j, prec)
    for (lo, hi), wide in zip((b, q, x), _own_chain(n, j, prec + 200)):
        assert Fraction(lo, 1 << w) <= wide.lo_fraction <= wide.hi_fraction <= Fraction(hi, 1 << w)
    one = 1 << w
    verdict = -one < b[0] and b[1] < 0 and q[0] >= 0 and -one < x[0] and x[1] < 0
    assert _analytic_convexity(n, j, prec) is verdict


@pytest.mark.parametrize("prec", [16, 53, 128, 300])
def test_truncation_kernel_encloses_its_expression(prec):
    # the one-term truncation interval against its Enclosure expression at
    # every m <= 400
    for m in range(2, 401):
        _check_prop21(m, prec)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(st.integers(14, 300), st.integers(14, 100_000)),
    prec=st.sampled_from([53, 128, 300]),
)
def test_shared_terms_enclose_their_expressions(data, n, prec):
    # the estimates and the registry's pair margins at one drawn point
    _check_ratio(n, data.draw(st.integers(0, ratio_j_top(n)), label="j"), prec)
    _check_prop21(data.draw(st.integers(n - math.isqrt(n - 1), n), label="prop21 m"), prec)

    if n < 17:
        return  # no licensed f(j,n) shift, and too small an ell for k-rank

    j = data.draw(st.integers(1, fjn_j_top(n)), label="fjn j")
    _check_fjn(n, j, prec)
    _check_chain(n, j, prec)

    # the registry's product margins are exact integer bounds, outward by
    # proof: they meet the expressions at prec + 200 bits, which read |b|
    # almost exactly, and lie at or above their lower ends at prec, which
    # read |b| rounded up
    margins = [
        margin((n, j), prec)
        for margin in (_margin_collapse_271, _margin_collapse_2075, _margin_collapse_3926)
    ]
    for (lo, hi), want, wide in zip(
        margins, _own_collapse(n, j, prec), _own_collapse(n, j, prec + 200)
    ):
        assert mpf_le(lo, wide.hi) and mpf_le(wide.lo, hi) and mpf_le(want.lo, hi)

    _check_krank(n - 1, prec)  # lp = n - 1, so ell is the shift of n


def test_link3_encloses_its_expression():
    # a point where summing the J-bracket before delta_c/sqrt N moved an
    # endpoint of link (iii) in prec-bit arithmetic
    _check_chain(4897, 1, 53)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.one_of(st.integers(14, 400), st.integers(14, 10**8)),
    prec=st.sampled_from([16, 53, 128, 300, 1024]),
)
def test_kernels_enclose_their_expressions(data, n, prec):
    _check_ratio(n, data.draw(st.integers(0, ratio_j_top(n)), label="j"), prec)
    if fjn_j_top(n):
        j = data.draw(st.integers(1, fjn_j_top(n)), label="fjn j")
        _check_fjn(n, j, prec)
        _check_chain(n, j, prec)
    if n >= 17:
        _check_krank(n - 1, prec)  # ell = n - 1 + 23/24 is the shift of n
    _check_prop21(n, prec)


@pytest.mark.parametrize("n", [14, 17, 99, 10**6, 10**12, 10**40])
@pytest.mark.parametrize("prec", [16, 4096])
def test_kernels_at_the_window_edges(n, prec):
    for j in (0, ratio_j_top(n)):
        _check_ratio(n, j, prec)
    for j in {1, fjn_j_top(n)} if fjn_j_top(n) else ():
        _check_fjn(n, j, prec)
        _check_chain(n, j, prec)
    if n >= 17:
        _check_krank(n - 1, prec)
    if n <= 10**6:
        _check_prop21(n, prec)


@pytest.mark.parametrize("prec", [16, 53, 128, 300, 1024, 4096])
def test_constants_hold_exactly(prec):
    # the estimates' constants enclose pi, sqrt 3, sqrt 6, kappa1, kappa2
    # and delta_c, against mpmath 64 bits wider, at the kernels' widths and
    # at the chain's widths for d up to 2^40
    ctx = mp_context(prec + FIXED_GUARD + 40 + 64)
    kappa1 = ctx.sqrt(3) / ctx.sqrt(2 * ctx.pi)
    kappa2 = ctx.sqrt(3) / (ctx.sqrt(2) * ctx.pi)
    want = {"pi": ctx.pi, "sqrt3": ctx.sqrt(3), "sqrt6": ctx.sqrt(6), "kappa1": kappa1,
            "kappa2": kappa2, "delta_c": kappa2 - kappa1}
    for w in range(prec + FIXED_GUARD, prec + FIXED_GUARD + 41):
        k = estimates._constants(w)
        for name, value in want.items():
            lo, hi = getattr(k, name)
            assert ctx.mpf(lo) / 2**w < value < ctx.mpf(hi) / 2**w, (name, w)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(14, 10**12), prec=st.sampled_from([16, 53, 128, 300, 1024]), data=st.data())
def test_decay_and_radii_hold_exactly(n, prec, data):
    # a = pi j/sqrt(6N) over 2^(w+8) and e^-a over 2^w, against mpmath 64
    # bits wider; each radius c/N raised, decided on exact fractions
    j = data.draw(st.integers(0, ratio_j_top(n)), label="j")
    w = prec + FIXED_GUARD
    t = shifted_terms(n, w)
    (a0, a1), (e0, e1) = estimates._decay(t, j, w)
    ctx = mp_context(2 * w + 64)
    a = ctx.pi * j / ctx.sqrt(6 * ctx.mpf(24 * n - 1) / 24)
    v = w + 8
    assert ctx.mpf(a0) / 2**v <= a <= ctx.mpf(a1) / 2**v
    assert 0 <= ctx.mpf(e0) / 2**w <= ctx.exp(-a) <= ctx.mpf(e1) / 2**w
    for radius in (RATIO_RADIUS_1, RATIO_RADIUS_2, FJN_RADIUS_A, FJN_RADIUS_B,
                   KRANK_RATIO_RADIUS_1, KRANK_DIFF_RADIUS_A, KRANK_DIFF_RADIUS_B):
        exact = radius / shifted_index(n) * (1 << w)
        assert exact <= estimates._radius(radius, t.d, w) < exact + 1


@pytest.mark.parametrize(
    "call, checks",
    [
        (lambda: ratio_interval(200, 3, 53), 1),
        (lambda: fjn_ratio_interval(200, 2, 53), 1),
        (lambda: _krank_forms.__wrapped__(200, 53), 2),
        (lambda: proposition21_interval(200, 53), 1),
    ],
    ids=["ratio_interval", "fjn_ratio_interval", "_krank_forms", "proposition21_interval"],
)
def test_each_returned_interval_is_checked_once(call, checks, monkeypatch):
    # every estimate is rounded once, in _dyadic_ends, whose order check is
    # the one check of each Enclosure returned, and a failing check raises
    call()  # constants and shifted terms built
    order = enclosure.ordered
    calls = []
    monkeypatch.setattr(enclosure, "ordered", lambda lo, hi: calls.append(1) or order(lo, hi))
    call()
    assert len(calls) == checks
    for bad in range(checks):
        count = iter(range(checks))
        monkeypatch.setattr(
            enclosure, "ordered", lambda lo, hi: next(count) != bad and order(lo, hi)
        )
        with pytest.raises(ValueError, match=ORDER_ERROR):
            call()


def test_estimates_read_only_fixed_point_ends():
    # the estimates and the truncation interval are built on integer ends
    # alone: none names the padded transcendental slack or an interval
    # helper of the enclosure module
    named = re.compile(r"\b(_TRANSCENDENTAL_SLACK|_exp_ends|_(add|sub|mul|div|sqrt)_ends)\b")
    sources = {
        "estimates.py": inspect.getsource(estimates),
        **{fn.__name__: inspect.getsource(fn) for fn in (
            proposition21_interval, rademacher._prop21_fixed, rademacher.proposition21_budget)},
    }
    found = [f"{name}:{n}" for name, text in sources.items()
             for n, line in enumerate(text.splitlines(), 1) if named.search(line)]
    assert not found

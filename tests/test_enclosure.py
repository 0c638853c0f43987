"""Containment properties of the interval layer, checked against exact
rational arithmetic."""

import ast
import importlib
import inspect
import math
import pkgutil
import random
from fractions import Fraction

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

import partbounds
from enclosure_views import constants_view, exp_enclosure, sqrt_enclosure
from partbounds import estimates, inequalities, rademacher, verify
from partbounds.enclosure import (
    _TRANSCENDENTAL_SLACK,
    NON_FINITE_ERROR,
    Enclosure,
    _add_ends,
    _div_ends,
    _mul_ends,
    _neg_ends,
    _sqrt_ends,
    _sub_ends,
    _widen_ends,
    constants,
    exact_decimal,
    fraction_from_raw,
    ordered,
    ratio_pair,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**9
)
small_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**6
)


def test_from_exact_contains_value():
    for v in (0, 1, -1, Fraction(1, 3), Fraction(-7, 11), 10**50 + 1):
        assert Enclosure.from_exact(v).contains(v)


def test_from_exact_small_int_is_tight():
    e = Enclosure.from_exact(5)
    assert e.lo_fraction == e.hi_fraction == 5


def test_endpoint_order_enforced():
    lo = Enclosure.from_exact(2).lo
    hi = Enclosure.from_exact(1).hi
    with pytest.raises(ValueError):
        Enclosure(lo, hi)


@given(a=rationals, b=rationals)
def test_add_sub_mul_contain_exact(a, b):
    ea, eb = Enclosure.from_exact(a), Enclosure.from_exact(b)
    assert (ea + eb).contains(a + b)
    assert (ea - eb).contains(a - b)
    assert (ea * eb).contains(a * b)


@given(a=rationals, b=rationals)
def test_div_contains_exact(a, b):
    if b == 0:
        b = Fraction(1, 7)
    assert (Enclosure.from_exact(a) / Enclosure.from_exact(b)).contains(a / b)


@given(a=rationals, b=rationals, c=rationals, d=rationals, t=st.fractions(min_value=0, max_value=1), u=st.fractions(min_value=0, max_value=1))
@settings(max_examples=300)
def test_interval_product_contains_member_products(a, b, c, d, t, u):
    # x in [min(a,b), max(a,b)], y in [min(c,d), max(c,d)] => x*y in product
    lo1, hi1 = min(a, b), max(a, b)
    lo2, hi2 = min(c, d), max(c, d)
    x = lo1 + t * (hi1 - lo1)
    y = lo2 + u * (hi2 - lo2)
    e1 = Enclosure.from_bounds(lo1, hi1)
    e2 = Enclosure.from_bounds(lo2, hi2)
    assert (e1 * e2).contains(x * y)
    assert (e1 + e2).contains(x + y)
    assert (e1 - e2).contains(x - y)


@given(v=st.fractions(min_value=0, max_value=10**8, max_denominator=10**9))
def test_sqrt_brackets_square(v):
    e = sqrt_enclosure(v)
    assert e.lo_fraction >= 0
    assert e.lo_fraction**2 <= v <= e.hi_fraction**2


def test_sqrt_exact_squares():
    for k in (0, 1, 4, 9, 144, 10**20):
        e = sqrt_enclosure(k)
        assert e.contains(_isqrt := round(k**0.5)) or e.lo_fraction**2 <= k <= e.hi_fraction**2


def test_sqrt_negative_rejected():
    with pytest.raises(ValueError):
        sqrt_enclosure(Fraction(-1, 4))


@given(v=small_rationals)
@settings(max_examples=200)
def test_exp_nested_precision(v):
    # the tighter high-precision enclosure must sit inside the coarse one
    coarse = exp_enclosure(v, prec=64)
    fine = exp_enclosure(v, prec=192)
    assert coarse.contains(fine)
    assert fine.strictly_positive()


# 45-digit truncations, far tighter than a 128-bit interval's width
E_45 = Fraction(2718281828459045235360287471352662497757247, 10**42)
PI_45 = Fraction(3141592653589793238462643383279502884197169, 10**42)


def test_exp_known_points():
    e0 = exp_enclosure(0)
    assert e0.contains(1)
    e1 = exp_enclosure(1)
    assert e1.lo_fraction < E_45 < e1.hi_fraction
    assert e1.hi_fraction - e1.lo_fraction < Fraction(1, 10**30)


def test_pi_enclosure():
    pi = Enclosure.pi()
    assert pi.lo_fraction < PI_45 < pi.hi_fraction
    assert pi.hi_fraction - pi.lo_fraction < Fraction(1, 10**30)
    tight = Enclosure.pi(prec=256)
    assert pi.contains(tight)


@given(v=rationals, r=st.fractions(min_value=0, max_value=100, max_denominator=10**6))
def test_plus_minus_widens(v, r):
    e = Enclosure.from_exact(v).plus_minus(r)
    assert e.contains(v + r) or e.hi_fraction >= v + r - Fraction(1, 10**30)
    assert e.contains(v - r) or e.lo_fraction <= v - r + Fraction(1, 10**30)
    assert e.contains(v)


def test_plus_minus_negative_radius_rejected():
    with pytest.raises(ValueError):
        Enclosure.from_exact(1).plus_minus(Fraction(-1, 2))


def test_division_by_straddling_interval_rejected():
    num = Enclosure.from_exact(1)
    den = Enclosure.from_bounds(Fraction(-1), Fraction(1))
    with pytest.raises(ZeroDivisionError):
        num / den


def test_mixed_precision_rejected():
    with pytest.raises(ValueError):
        Enclosure.from_exact(1, prec=64) + Enclosure.from_exact(1, prec=128)


def test_scalar_coercion():
    e = Enclosure.from_exact(Fraction(1, 3))
    assert (e + 1).contains(Fraction(4, 3))
    assert (1 - e).contains(Fraction(2, 3))
    assert (3 * e).contains(1)
    assert (2 / (e * 6)).contains(1)


def test_sign_predicate():
    assert Enclosure.from_bounds(Fraction(1, 10), Fraction(2)).strictly_positive()
    assert not Enclosure.from_bounds(Fraction(-2), Fraction(-1, 10)).strictly_positive()
    assert not Enclosure.from_bounds(Fraction(0), Fraction(1)).strictly_positive()
    assert not Enclosure.from_bounds(Fraction(-1), Fraction(1)).strictly_positive()


def test_containment_margin():
    e = Enclosure.from_bounds(0, 1)
    assert e.containment_margin(Fraction(1, 2)) == pytest.approx(0.5)
    assert e.containment_margin(Fraction(1, 10)) == pytest.approx(0.1)
    assert e.containment_margin(2) < 0


def test_containment_margin_is_exact():
    e = Enclosure.from_bounds(0, 1)
    assert e.containment_margin(Fraction(1, 2)) == Fraction(1, 2)
    assert e.containment_margin(1) == 0
    # a point enclosure has no width: its margin is the signed distance
    point = Enclosure.from_exact(3)
    assert point.containment_margin(3) == 0
    assert point.containment_margin(5) == -2


def test_tiny_escape_has_negative_margin():
    # the margin -10^-400 rounds to -0.0 as a float, and -0.0 >= 0 holds
    e = Enclosure.from_bounds(0, 10**300)
    v = -Fraction(1, 10**100)
    assert not e.contains(v)
    assert e.containment_margin(v) < 0


def test_relative_width():
    for lo, hi in ((Fraction(1), Fraction(3)), (Fraction(-5), Fraction(-1, 7)),
                   (Fraction(-1), Fraction(4))):
        e = Enclosure.from_bounds(lo, hi)
        lo, hi = e.lo_fraction, e.hi_fraction
        assert e.relative_width() == (hi - lo) / abs((lo + hi) / 2)
    assert Enclosure.from_bounds(-1, 1).relative_width() is None
    assert Enclosure.from_exact(0).relative_width() is None


@given(v=st.one_of(rationals, st.integers(-(2**300), 2**300)))
def test_raw_fraction_round_trip(v):
    e = Enclosure.from_exact(v)
    for raw in (e.lo, e.hi):
        assert fraction_from_raw(raw) == Fraction(*libmp.to_rational(raw))
    assert e.lo_fraction <= v <= e.hi_fraction


@given(num=st.integers(-10**12, 10**12), k=st.integers(0, 60))
def test_exact_decimal_round_trip(num, k):
    fr = Fraction(num, 1 << k)
    assert Fraction(exact_decimal(num, k)) == fr


# -- the operators against their general form -----------------------------
#
# The reference code below is written on libmp alone: subtraction adds the
# negated operand, and an int operand goes through both directed
# conversions.  Products and quotients are libmp's four-pair hull, checked
# on raw pairs by test_interval_helpers_round_as_libmp.

def _negated_sum(x, y, prec):
    # x + (-y)
    return (
        libmp.mpf_add(x.lo, libmp.mpf_neg(y.hi), prec, "f"),
        libmp.mpf_add(x.hi, libmp.mpf_neg(y.lo), prec, "c"),
    )


def _directed_int(k, prec):
    return Enclosure(libmp.from_int(k, prec, "f"), libmp.from_int(k, prec, "c"), prec)


positive = st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**6),
                        max_denominator=10**9)


@st.composite
def intervals(draw):
    kind = draw(st.sampled_from(["positive", "negative", "straddling", "zero-low",
                                 "zero-high", "point"]))
    u, v = sorted((draw(positive), draw(positive)))
    return {
        "positive": (u, v),
        "negative": (-v, -u),
        "straddling": (-u, v),
        "zero-low": (Fraction(0), v),
        "zero-high": (-v, Fraction(0)),
        "point": (u, u),
    }[kind]


def _endpoints(e):
    return e.lo, e.hi


@given(
    a=intervals(),
    b=intervals(),
    k=st.integers(min_value=-(2**200), max_value=2**200),
    prec=st.sampled_from([53, 128]),
)
@settings(max_examples=500, deadline=None)
def test_kernel_endpoints_match_general_form(a, b, k, prec):
    x = Enclosure.from_bounds(*a, prec=prec)
    y = Enclosure.from_bounds(*b, prec=prec)
    if not (y.strictly_positive() or libmp.mpf_lt(y.hi, libmp.fzero)):
        with pytest.raises(ZeroDivisionError):
            x / y
    assert _endpoints(x - y) == _negated_sum(x, y, prec)
    # the raw helpers, against the directed libmp calls they stand for
    assert _neg_ends((x.lo, x.hi)) == (libmp.mpf_neg(x.hi), libmp.mpf_neg(x.lo))
    assert _add_ends((x.lo, x.hi), (y.lo, y.hi), prec) == (
        libmp.mpf_add(x.lo, y.lo, prec, "f"), libmp.mpf_add(x.hi, y.hi, prec, "c"))
    assert _sub_ends((x.lo, x.hi), (y.lo, y.hi), prec) == (
        libmp.mpf_sub(x.lo, y.hi, prec, "f"), libmp.mpf_sub(x.hi, y.lo, prec, "c"))
    for r in (libmp.fzero, libmp.mpf_abs(y.hi)):
        assert _widen_ends((x.lo, x.hi), r, prec) == (
            libmp.mpf_sub(x.lo, r, prec, "f"), libmp.mpf_add(x.hi, r, prec, "c"))
    kk = _directed_int(k, prec)
    assert _endpoints(k - x) == _negated_sum(kk, x, prec)
    assert _endpoints(x * k) == _endpoints(x * kk)
    assert _endpoints(k * x) == _endpoints(x * k)


# -- one decision: the sign of the exact margin is the verdict ------------

@st.composite
def margin_probes(draw):
    """An enclosure at precision 53 or 128, point or not, and a value at,
    just inside or just outside one of its endpoints."""
    prec = draw(st.sampled_from([53, 128]))
    if draw(st.booleans()):
        # a dyadic value exact at both precisions gives lo == hi
        value = Fraction(draw(st.integers(-(2**40), 2**40)), 2 ** draw(st.integers(0, 60)))
        e = Enclosure.from_exact(value, prec)
    else:
        e = Enclosure.from_bounds(*draw(intervals()), prec)
    endpoint = draw(st.sampled_from([e.lo_fraction, e.hi_fraction]))
    step = Fraction(1, 2 ** draw(st.integers(1, 1500)))
    return e, endpoint + draw(st.sampled_from([-1, 0, 1])) * step


@settings(max_examples=400, deadline=None)
@given(probe=margin_probes())
def test_margin_sign_is_the_containment_verdict(probe):
    e, v = probe
    assert (e.containment_margin(v) >= 0) == e.contains(v)


# -- the integer margin and width against their Fraction formulas ---------


def _fraction_margin(e, v):
    v = Fraction(v)
    lo, hi = e.lo_fraction, e.hi_fraction
    margin = min(v - lo, hi - v)
    return margin if hi == lo else margin / (hi - lo)


def _fraction_relative_width(e):
    lo, hi = e.lo_fraction, e.hi_fraction
    return None if lo == -hi else 2 * (hi - lo) / abs(lo + hi)


@st.composite
def scaled_probes(draw):
    """An interval of every sign pattern scaled by 2^-700 .. 2^700, so
    endpoint exponents of both signs, at 16 to 300 bits, and an int or
    Fraction value inside, on, outside or far from it."""
    prec = draw(st.sampled_from([16, 53, 128, 300]))
    scale = Fraction(2) ** draw(st.integers(-700, 700))
    lo, hi = draw(intervals())
    e = Enclosure.from_bounds(lo * scale, hi * scale, prec)
    lo, hi = e.lo_fraction, e.hi_fraction
    value = draw(st.one_of(
        st.sampled_from([lo, hi, (lo + hi) / 2, lo - scale, hi + scale, 2 * hi - lo]),
        st.integers(-(2**80), 2**80),
        rationals.map(lambda r: r * scale),
    ))
    return e, value


@settings(max_examples=500, deadline=None)
@given(probe=st.one_of(margin_probes(), scaled_probes()))
@example(probe=(Enclosure.from_exact(0), 0))
@example(probe=(Enclosure.from_exact(0), Fraction(-1, 3)))
@example(probe=(Enclosure.from_bounds(0, 1), 2))
@example(probe=(Enclosure.from_bounds(-1, 0), Fraction(-1, 3)))
@example(probe=(Enclosure.from_exact(2**300), 2**300 + 1))
@example(probe=(Enclosure.from_bounds(-(2**300), 2**299), -(2**301)))
def test_integer_margin_and_width_are_the_fraction_formulas(probe):
    e, v = probe
    assert e.containment_margin(v) == _fraction_margin(e, v)
    assert e.relative_width() == _fraction_relative_width(e)


@pytest.mark.parametrize(
    "lo, hi",
    [(libmp.fninf, libmp.fone), (libmp.fzero, libmp.finf),
     (libmp.fninf, libmp.finf), (libmp.fnan, libmp.fnan)],
    ids=["-inf", "+inf", "both", "nan"],
)
def test_non_finite_endpoint_is_refused(lo, hi):
    e = Enclosure(lo, hi)
    with pytest.raises(ValueError, match=NON_FINITE_ERROR):
        fraction_from_raw(lo), fraction_from_raw(hi)
    with pytest.raises(ValueError, match=NON_FINITE_ERROR):
        e.containment_margin(0)
    with pytest.raises(ValueError, match=NON_FINITE_ERROR):
        e.relative_width()


# -- bit-identity of the conversion and order primitives ------------------

denominators = st.one_of(
    st.integers(0, 200).map(lambda e: 1 << e),
    st.integers(1, 10**40),
).flatmap(lambda q: st.sampled_from([q, -q]))


@given(
    p=st.integers(-(10**60), 10**60),
    q=denominators,
    prec=st.one_of(st.sampled_from([16, 53, 128, 300, 4096]), st.integers(16, 4096)),
)
@settings(max_examples=400, deadline=None)
@example(p=0, q=3, prec=53)
@example(p=-(10**60), q=1, prec=16)
@example(p=22, q=7, prec=114)
def test_ratio_pair_is_from_rational(p, q, prec):
    assert ratio_pair(p, q, prec) == (
        libmp.from_rational(p, q, prec, "f"),
        libmp.from_rational(p, q, prec, "c"),
    )


def test_ratio_pair_rejects_zero_denominator():
    for p in (0, 1, -5):
        with pytest.raises(ZeroDivisionError):
            ratio_pair(p, 0, 53)


SPECIALS = [libmp.fzero, libmp.finf, libmp.fninf, libmp.fnan]


@st.composite
def raw_pairs(draw):
    """Two raw floats: specials, either sign, and often one top bit at two
    different exponents, where mpf_cmp would subtract."""

    def one(top):
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(SPECIALS))
        bits = draw(st.integers(1, 300))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        sign = draw(st.sampled_from([1, 1, 1, -1]))
        exp = top - bits if top is not None else draw(st.integers(-400, 400))
        return libmp.from_man_exp(sign * man, exp)

    top = draw(st.one_of(st.none(), st.integers(-400, 400)))
    return one(top), one(top)


@given(pair=raw_pairs())
@settings(max_examples=400, deadline=None)
def test_ordered_is_not_greater(pair):
    a, b = pair
    assert ordered(a, b) == (not libmp.mpf_gt(a, b))
    assert ordered(b, a) == (not libmp.mpf_gt(b, a))
    assert ordered(a, a)


def test_ordered_one_top_bit():
    # 3/4 and 5/8 share their top bit at exponents -2 and -3
    lo, hi = libmp.from_rational(5, 8, 53), libmp.from_rational(3, 4, 53)
    assert ordered(lo, hi) and not ordered(hi, lo)
    neg = libmp.mpf_neg
    assert ordered(neg(hi), neg(lo)) and not ordered(neg(lo), neg(hi))
    assert ordered(neg(lo), lo) and not ordered(lo, neg(lo))
    for special in SPECIALS:
        for x in (lo, neg(lo), libmp.fzero, libmp.finf, libmp.fninf, libmp.fnan):
            assert ordered(special, x) == (not libmp.mpf_gt(special, x))
            assert ordered(x, special) == (not libmp.mpf_gt(x, special))


# -- the helpers are libmp's directed roundings ------------------------------

KERNEL_PRECISIONS = [16, 53, 64, 128, 300, 4096]


def _random_raw(rng):
    """A raw float: zero, or either sign with a mantissa of 1 to 300 bits
    and an exponent within +-600."""
    if rng.random() < 0.05:
        return libmp.fzero
    bits = rng.randint(1, 300)
    man = rng.randint(1 << (bits - 1), (1 << bits) - 1)
    return libmp.from_man_exp(rng.choice((1, -1)) * man, rng.randint(-600, 600))


def _random_pair(rng):
    a, b = _random_raw(rng), _random_raw(rng)
    return (b, a) if libmp.mpf_gt(a, b) else (a, b)


def _libmp_hull(op, x, y, p):
    # the least downward and the greatest upward of the four endpoint results
    down = [op(u, v, p, "f") for u in x for v in y]
    up = [op(u, v, p, "c") for u in x for v in y]
    return (min(down, key=fraction_from_raw), max(up, key=fraction_from_raw))


@pytest.mark.parametrize("prec", KERNEL_PRECISIONS)
def test_ratio_pair_rounds_as_libmp(prec):
    # quotients of up to 900 bits over odd and even divisors, both signs
    rng = random.Random(prec)
    for _ in range(1000):
        s = _random_raw(rng)
        p = rng.choice((1, -1)) * (libmp.to_int(libmp.mpf_abs(s)) or 1) << rng.randint(0, 600)
        q = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 300)) | 1
        q <<= rng.randint(0, 600)
        assert ratio_pair(p, q, prec) == (libmp.from_rational(p, q, prec, "f"),
                                          libmp.from_rational(p, q, prec, "c"))


@pytest.mark.parametrize("prec", KERNEL_PRECISIONS)
def test_interval_helpers_round_as_libmp(prec):
    rng = random.Random(-prec)
    zero = libmp.fzero
    for _ in range(200):
        x, y = _random_pair(rng), _random_pair(rng)
        assert _add_ends(x, y, prec) == (libmp.mpf_add(x[0], y[0], prec, "f"),
                                         libmp.mpf_add(x[1], y[1], prec, "c"))
        assert _sub_ends(x, y, prec) == (libmp.mpf_sub(x[0], y[1], prec, "f"),
                                         libmp.mpf_sub(x[1], y[0], prec, "c"))
        assert _mul_ends(x, y, prec) == _libmp_hull(libmp.mpf_mul, x, y, prec)
        if libmp.mpf_gt(y[0], zero) or libmp.mpf_lt(y[1], zero):
            assert _div_ends(x, y, prec) == _libmp_hull(libmp.mpf_div, x, y, prec)
        r = libmp.mpf_abs(y[1])
        assert _widen_ends(x, r, prec) == (libmp.mpf_sub(x[0], r, prec, "f"),
                                           libmp.mpf_add(x[1], r, prec, "c"))
        root = tuple(sorted(map(libmp.mpf_abs, x), key=fraction_from_raw))
        assert _sqrt_ends(root, prec) == (libmp.mpf_sqrt(root[0], prec, "f"),
                                          libmp.mpf_sqrt(root[1], prec, "c"))


# -- the transcendental slack against an exact oracle -----------------------
#
# Exact bounds on e^x and pi in integer fixed point with GUARD extra bits.
# Every rounding below is directed, so [lo, hi] / 2^W always holds the value.

GUARD = 64


def _exp_fixed(x, w):
    """(L, U) with L <= 2^w e^x <= U for rational x >= 0."""
    s = 0
    while x > Fraction(1, 2) * 2**s:
        s += 1
    p, q = x.numerator, x.denominator << s  # r = p/q <= 1/2
    one = 1 << w
    lo = hi = one
    tlo = thi = one
    i = 1
    while True:
        tlo = tlo * p // (q * i)
        thi = -(-thi * p // (q * i))
        if thi <= 1:
            break
        lo += tlo
        hi += thi
        i += 1
    # Lagrange: the remainder after r^(i-1)/(i-1)! is e^xi r^i/i! <= 2 r^i/i!
    hi += 2 * thi
    for _ in range(s):
        lo = lo * lo >> w
        hi = -(-hi * hi >> w)
    return lo, hi


def exp_oracle(x, prec):
    """Exact rational bounds (lo, hi) on e^x."""
    w = prec + GUARD + 16
    lo, hi = _exp_fixed(abs(x), w)
    if x < 0:
        return Fraction(1 << w, hi), Fraction(1 << w, lo)
    return Fraction(lo, 1 << w), Fraction(hi, 1 << w)


def _arctan_inv(n, w):
    """(L, U) with L <= 2^w arctan(1/n) <= U, from the alternating series."""
    one = 1 << w
    lo = hi = 0
    power = n
    k = 1
    sign = 1
    while True:
        tlo = one // (power * k)
        thi = -(-one // (power * k))
        if thi <= 1:
            # the alternating tail is smaller than its first term
            return lo - thi, hi + thi
        if sign > 0:
            lo, hi = lo + tlo, hi + thi
        else:
            lo, hi = lo - thi, hi - tlo
        power *= n * n
        k += 2
        sign = -sign


@lru_cache(maxsize=None)
def pi_oracle(prec):
    """Exact rational bounds (lo, hi) on pi, by Machin's formula."""
    w = prec + GUARD
    a_lo, a_hi = _arctan_inv(5, w)
    b_lo, b_hi = _arctan_inv(239, w)
    return Fraction(16 * a_lo - 4 * b_hi, 1 << w), Fraction(16 * a_hi - 4 * b_lo, 1 << w)


def _encloses(e, lo, hi):
    return e.lo_fraction <= lo and hi <= e.hi_fraction


def test_oracles_are_tight():
    # PI_45 and E_45 are truncations, at most 10^-42 below the constant
    ulp = Fraction(1, 10**42)
    lo, hi = pi_oracle(128)
    assert PI_45 < lo < hi < PI_45 + ulp and hi - lo < Fraction(1, 2**180)
    lo, hi = exp_oracle(Fraction(1), 128)
    assert E_45 < lo < hi < E_45 + ulp and hi - lo < Fraction(1, 2**180)
    lo, hi = exp_oracle(Fraction(-1), 128)
    assert E_45 * lo < 1 < (E_45 + ulp) * hi and hi - lo < Fraction(1, 2**180)


precisions = st.one_of(st.sampled_from([16, 53, 128, 300, 4096]), st.integers(16, 4096))


@given(
    x=st.fractions(min_value=-300, max_value=300, max_denominator=10**9),
    prec=precisions,
)
@settings(max_examples=150, deadline=None)
@example(x=Fraction(0), prec=16)
@example(x=Fraction(100, 2), prec=128)
@example(x=Fraction(-300), prec=4096)
# libmp's upward exp lies about 1e-4 ulp below e^x at these two; the pad
# covers it
@example(x=Fraction(56302965619865, 2**43), prec=16)
@example(x=Fraction(-5912819630798777, 2**45), prec=53)
def test_exp_encloses_exact_oracle(x, prec):
    assert _encloses(exp_enclosure(x, prec), *exp_oracle(x, prec))


@given(prec=precisions)
@settings(max_examples=60, deadline=None)
def test_pi_and_constants_enclose_exact_oracle(prec):
    lo, hi = pi_oracle(prec)
    assert _encloses(Enclosure.pi(prec), lo, hi)
    c = constants_view(prec)
    assert _encloses(c.pi, lo, hi)
    # sqrt(2 pi), through its square
    s = c.sqrt_two_pi
    assert s.lo_fraction**2 <= 2 * lo and 2 * hi <= s.hi_fraction**2
    for v in (2, 3, 6):
        root = getattr(c, f"sqrt{v}")
        assert root.lo_fraction**2 <= v <= root.hi_fraction**2
    # delta_c = s (1/pi - 1/sqrt pi), s = sqrt(3/2): the bracket is negative
    # and decreasing in pi, so it lies in [s_hi g(hi), s_lo g(lo)]
    w = prec + GUARD
    s_lo, s_hi = _sqrt_bounds(Fraction(3, 2), w)
    g_lo = 1 / hi - 1 / _sqrt_bounds(hi, w)[0]
    g_hi = 1 / lo - 1 / _sqrt_bounds(lo, w)[1]
    assert _encloses(c.delta_c, s_hi * g_lo, s_lo * g_hi)


def _sqrt_bounds(x, w):
    """Exact rational bounds (lo, hi) on sqrt(x), x >= 0, within 2^-w."""
    scaled = x * 4**w
    return (Fraction(math.isqrt(math.floor(scaled)), 2**w),
            Fraction(math.isqrt(math.ceil(scaled)) + 1, 2**w))


def _padded(raw, prec, rnd):
    # raw moved outward by _TRANSCENDENTAL_SLACK units of its last place:
    # |raw| slack 2^-prec rounded up, then added or taken off
    pad = libmp.mpf_mul(
        libmp.mpf_abs(raw), libmp.from_man_exp(_TRANSCENDENTAL_SLACK, -prec), prec, "c"
    )
    if rnd == "f":
        return libmp.mpf_sub(raw, pad, prec, "f")
    return libmp.mpf_add(raw, pad, prec, "c")


@pytest.mark.parametrize("prec", [16, 53, 128, 300])
def test_constants_keep_their_enclosure_expressions(prec):
    # every field of constants(prec), end for end, against the Enclosure
    # expression it is built by, written here on its own: pi from mpf_pi
    # padded outward (Enclosure.pi reads constants, so it is no reference)
    pi = Enclosure(_padded(libmp.mpf_pi(prec, "f"), prec, "f"),
                   _padded(libmp.mpf_pi(prec, "c"), prec, "c"), prec)
    expected = {
        "pi": pi,
        "sqrt3": Enclosure.from_exact(3, prec).sqrt(),
        "sqrt_two_pi": (2 * pi).sqrt(),
    }
    got = vars(constants(prec))
    assert got.keys() == expected.keys()
    for name, e in expected.items():
        assert got[name] == (e.lo, e.hi), name
    e = Enclosure.pi(prec)
    assert (e.lo, e.hi) == (pi.lo, pi.hi)


# -- one source for every outward rounding -------------------------------

@pytest.mark.parametrize("module", [estimates, inequalities])
def test_raw_kernels_round_only_through_the_helpers(module):
    # the directed-rounding modes and the raw +, - and negation stay in the
    # enclosure module, whose _*_ends helpers the kernels call; rademacher
    # and special round to nearest on purpose and are not checked
    tree = ast.parse(inspect.getsource(module))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert not imported & {"_DOWN", "_UP", "mpf_add", "mpf_sub", "mpf_neg"}
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not named & {"mpf_add", "mpf_sub", "mpf_neg"}
    # nor check an order: each helper checks the pair it returns, once
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not (imported | named | names) & {"ordered", "_ends"}


@pytest.mark.parametrize("module", [estimates, rademacher, inequalities])
def test_kernels_share_raw_pairs(module):
    # inside the package every interval is a raw (lo, hi) pair: no kernel
    # reads an Enclosure's ends, the registry builds no Enclosure but in
    # collapse-131's margin (kept for the benchmark's fork-pool smoke test),
    # and the estimates build one only in the return of a public function or
    # of the k-rank memo
    tree = ast.parse(inspect.getsource(module))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    if module is inequalities:
        (kept,) = [node for node in functions if node.name == "_margin_collapse_131"]
        tree.body.remove(kept)
    assert not {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & {
        "lo", "hi"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    if module is inequalities:
        assert not names & {"Enclosure", "_wrap"} and "_wrap" not in imported
        return

    def wraps(node):
        return {id(sub) for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and sub.id == "_wrap"}

    assert set().union(*map(wraps, functions)) == wraps(tree)
    for function in functions:
        returned = set().union(*(wraps(node) for node in ast.walk(function)
                                 if isinstance(node, ast.Return)))
        assert wraps(function) == returned, function.name
        if returned:
            assert not function.name.startswith("_") or function.name == "_krank_forms", (
                function.name)


def test_sweeps_decide_containment_only_in_one_verdict():
    # every exact-in-enclosure check of the sweeps goes through
    # _Sweep.contained, which keeps its margin for the report and names it
    # in a failure; no suite reads a margin or a containment of its own
    tree = ast.parse(inspect.getsource(verify))

    def deciding(node):
        return [sub for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                and sub.attr in ("containment_margin", "contains")]

    [sweep] = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_Sweep"]
    [contained] = [node for node in sweep.body
                   if isinstance(node, ast.FunctionDef) and node.name == "contained"]
    assert [node.attr for node in deciding(contained)] == ["containment_margin"]
    assert deciding(tree) == deciding(contained)
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "_margin" not in imported


_PACKAGE = [partbounds] + [importlib.import_module(f"partbounds.{m.name}")
                           for m in pkgutil.iter_modules(partbounds.__path__)]


@pytest.mark.parametrize("module", _PACKAGE, ids=lambda m: m.__name__)
def test_no_module_reaches_the_global_mpmath_context(module):
    # values cross module lines as raw libmp floats; an mpf of the global
    # mpmath context would do its arithmetic at 53 bits
    tree = ast.parse(inspect.getsource(module))
    imported = {a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names}
    assert "mpmath" not in imported  # so no module can name mpmath.mp
    from_mpmath = {a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "mpmath"
                   for a in node.names}
    assert "mp" not in from_mpmath
    named = ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
             | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})
    assert "make_mpf" not in named

"""Convergent series evaluation of p(n) and the leading-term enclosure.

The partition number is recovered from the convergent expansion

    p(n) = 2 pi (24n-1)^{-3/4} * sum_{k>=1} (A_k(n)/k) I_{3/2}(pi sqrt(2N/3)/k)

with N = n - 1/24.  Truncations are evaluated at a working precision high
enough to resolve the nearest integer; the rounded value is accepted once
its distance to that integer plus Lehmer's remainder bound is below 1/2
(Lehmer 1938, as stated in Johansson, "Efficient implementation of the
Hardy-Ramanujan-Rademacher formula", LMS J. Comput. Math. 2012, eq. 1.8).

As in Johansson's implementation, the terms are summed in integer fixed
point, here at W = wp + 16 fractional bits ("units" below are 2^-W).
X = pi sqrt(24n-1)/6 and the prefactor 2 pi (24n-1)^{-3/4} come from
fixed.pi and fixed's floor roots (its within-a-unit and floor-root lemmas),
each within 2 units.  Term k is
T_k = floor(a_k I_k / (k 2^W)), where a_k is kloosterman_A(k, n, wp)
(within phi(k) 2^(1-wp) of A_k(n)) floored to W bits (one unit more), and
I_k = special._bessel_fixed(floor(X / k), W).  With x = X/k and Delta_W the
kernel's bound (special's docstring),

    |T_k - 2^W A_k(n)/k I_{3/2}(x)|
        <= (phi(k) 2^(1-wp) + 2^-W) 2^W I_{3/2}(x) / k + 3 Delta_W(x),

since |A_k(n)| <= phi(k) <= k, the kernel's argument is within 3 units of
x, which moves I by at most 3.01 e^x / sqrt(2 pi x) units (the
floored-argument lemma in special's docstring), under 0.31 Delta_W(x), and
the floor adds one unit.  This keeps the fixed-point error eps of the rounded
value prefactor * (partial sum) far below the 1/2 that the round's safety
argument leaves for it (rademacher_round):
* the prefactor is below 1, and e^X < 2^(wp-47) since X < pi sqrt(2n/3)
  and wp > pi sqrt(2n/3) log2(e) + 47.  With X >= pi sqrt(47)/6 > 3.5 this
  gives prefactor * I(X) < 2^(wp-49), so the first part of the bound adds
  under 2^-47 per term (I_{3/2} increases);
* for x >= 1, lambda <= 1.1 wp, as x log2(e) < wp - 47 and
  3 sqrt(W) < 0.09 wp + 37, and (1 + 1/x) / sqrt(2 pi x) <= 0.8, so
  3 Delta_W(x) 2^-W < 3 wp 2^-63;
* a round ends by N = max(144, ceil(pi sqrt(2n/3))) terms, and N <= max(144, wp):
  from there sinh(pi sqrt(2n/3) / N) <= sinh(1) pi sqrt(2n/3) / N, so
  R(n, N) <= (1.1143 + 0.2526) / sqrt N < 0.114 and the round returns or
  raises.  So x >= 3.5 / max(144, wp), and 3 Delta_W(x) 2^-W for x < 1 is
  negligible against the first part;
* the prefactor's 2 units on a sum below K I(X), and the final floor,
  add under K 2^-63.
So eps < K 2^-44 < 2^-28 for wp below 2^16.

The one-term truncation also yields a rigorous two-sided enclosure of p(m):
the k = 1 term with its algebraic prefactor expanded, plus an explicit
envelope h(M) absorbing both the expansion remainder and the entire k >= 2
tail.  That enclosure is what the ratio estimates downstream consume.
h_error's ends (_h_ends) are outward by proof: special._decay_fixed's
fixed-point integers with one error bound per point (special's docstring),
rounded outward.

proposition21_interval is _prop21_fixed's integer ends over 2^w, w = prec +
FIXED_GUARD, rounded once, outward.  With M = d/24, d = 24m - 1, the
enclosure is 2 sqrt3 e^x/d (1 - kappa2/sqrt M +- h(M)), x = pi sqrt(2M/3)
= pi sqrt(d)/6, as e^x/(4 sqrt3 M) = 2 sqrt3 e^x/d.  Its ends, each
outward by monotonicity as in the estimates' docstring:
* x lies in [x0, x1] 2^-w: pi's ends (fixed.pi_ends) times the floor root r
  of d/36 and r + 1, floored and raised;
* by fixed's exponential lemma E = fixed.exp(x0, w) is within lambda_0
  e^x0 units of e^x0 2^w, lambda_0 = x0/ln 2 + 3 sqrt(w) + 8 <= L =
  floor(1.5 x0) + 3 isqrt(w) + 12.  So e^x0 2^w >= E/(1 + L 2^-w) >
  E - floor(E L 2^-w) - 1 and, while L 2^-w <= 1/2 (x0 below 2^(w-3)),
  e^x0 2^w <= E/(1 - L 2^-w) <= E + floor(2 E L 2^-w) + 1;
* e^x <= e^x1 <= e^x0 (1 + 2(x1 - x0)), as e^t <= 1 + 2t on [0, 1];
* sqrt 3 lies in fixed.root_ends(3, 1, w), and 2 sqrt3 e^x/d > 0 between
  the products of the lower and of the upper ends over d, floored and raised;
* kappa2/sqrt M is shifted_terms(m, w).kappa2, and h(M) lies below (H + E)
  2^-z, raised to 2^-w, for _decay_fixed's (H, E, z) at prec + DECAY_GUARD;
* the bracket 1 - kappa2/sqrt M +- h may have a negative lower end, so the
  product with the positive prefactor reads the ends as estimates._scale
  does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import libmp

from . import fixed
from .enclosure import (
    DEFAULT_PRECISION,
    Enclosure,
    _add_ends,
    _div_ends,
    _dyadic_ends,
    _exp_ends,
    _int_ends,
    _mul_ends,
    _ratio_ends,
    _sqrt_ends,
    _sub_ends,
    _wrap,
    constants,
    fraction_from_raw,
)
from .errors import PreconditionError, StabilizationError
from .estimates import _constants, _scale, shifted_terms
from .exact import shifted_index
from .fixed import FIXED_GUARD
from .special import DECAY_GUARD, _bessel_fixed, _decay_fixed, kloosterman_A, to_fraction

__all__ = [
    "ErrorBudget",
    "h_error",
    "proposition21_budget",
    "proposition21_interval",
    "rademacher_round",
]


# fractional bits of the fixed-point sum above the working precision wp
_FIXED_GUARD = 16


def _series_state(n: int, prec: int):
    # wp, and X = pi sqrt(24n-1)/6 and the prefactor 2 pi (24n-1)^{-3/4} as
    # integers over 2^W, W = wp + 16, each within 2 units; p(n) has about
    # pi*sqrt(2n/3)*log2(e) bits, and resolving it to +-1/4 needs all of
    # them, plus headroom for accumulated rounding
    wp = max(prec, int(math.pi * math.sqrt(2 * n / 3) * 1.4427) + 48)
    wp = ((wp + 31) // 32) * 32
    w = wp + _FIXED_GUARD
    d = 24 * n - 1
    g = (d.bit_length() + 1) // 2  # 2^g >= sqrt d
    X = fixed.pi(w + g) * fixed.floor_root(d, 1, w) // (6 << (w + g))
    prefactor = (fixed.pi(w) << (w + 1)) // math.isqrt(fixed.floor_root(d ** 3, 1, 2 * w))
    return wp, X, prefactor


def _fixed_term(n: int, k: int, wp: int, X: int) -> int:
    # A_k(n)/k * I_{3/2}(X/k) as an integer over 2^W, from A_k(n) at wp bits
    # and the fixed-point Bessel kernel at W; the bound is in the module docstring
    w = wp + _FIXED_GUARD
    a = libmp.to_fixed(kloosterman_A(k, n, wp), w)
    return a * _bessel_fixed(X // k, w) // (k << w)


@lru_cache(maxsize=1)
def _lehmer_lead():
    """R's N^{-1/2} coefficient 44 pi^2 / (225 sqrt 3) as 64-bit raw ends, the
    calls of 44 * c.pi * c.pi / (225 * c.sqrt3) for c = constants(64), and
    the first N at which the round can stop.

    R(n, N) >= lo / sqrt N for the lower end lo, which is at least 1/2 while
    N <= 4 lo^2 (about 4.97, so N <= 4); there neither the stop test nor the
    StabilizationError test can pass.
    """
    c = constants(64)
    first = _mul_ends(_mul_ends(c.pi, _int_ends(44, 64), 64), c.pi, 64)
    first = _div_ends(first, _mul_ends(c.sqrt3, _int_ends(225, 64), 64), 64)
    lo = fraction_from_raw(first[0])
    return first, math.floor(4 * lo * lo) + 1


def _remainder_bound(n: int, N: int):
    """Lehmer's bound on |p(n) - prefactor * (sum of the first N terms)|, for
    n >= 2 and N >= 1, as the raw hi of a 64-bit interval:

        R(n, N) = 44 pi^2 / (225 sqrt 3) N^{-1/2}
                  + pi sqrt 2 / 75 (N / (n-1))^{1/2} sinh(pi sqrt(2n/3) / N).

    The libmp calls, operands and roundings of the Enclosure expression

        first / root + second * root * (e - 1 / e) / 2

    with first the Enclosure of _lehmer_lead()[0], root = sqrt(N),
    second = c.pi * c.sqrt2 / 75 / sqrt(n - 1),
    e = (c.pi * sqrt(6 n) / 3 / N).exp(), c the Enclosures of constants(64)
    and each sqrt(v) taken as Enclosure.from_exact(v, 64).sqrt().
    """
    p = 64
    c = constants(p)
    root = _sqrt_ends(_ratio_ends(N, 1, p), p)
    second = _div_ends(_mul_ends(c.pi, c.sqrt2, p), _int_ends(75, p), p)
    second = _div_ends(second, _sqrt_ends(_ratio_ends(n - 1, 1, p), p), p)
    a = _mul_ends(c.pi, _sqrt_ends(_ratio_ends(6 * n, 1, p), p), p)
    e = _exp_ends(_div_ends(_div_ends(a, _int_ends(3, p), p), _int_ends(N, p), p), p)
    sinh2 = _sub_ends(e, _div_ends(_int_ends(1, p), e, p), p)
    rest = _div_ends(_mul_ends(_mul_ends(second, root, p), sinh2, p), _int_ends(2, p), p)
    return _add_ends(_div_ends(_lehmer_lead()[0], root, p), rest, p)[1]


# R(n, N)'s two coefficients 44 pi^2 / (225 sqrt 3) and pi sqrt 2 / 75 in
# double precision, and the share of the estimate that rademacher_round
# takes as a lower bound of R
_LEAD = 44 * math.pi ** 2 / (225 * math.sqrt(3))
_SECOND = math.pi * math.sqrt(2) / 75
_ESTIMATE_SHARE = 1 - 2.0 ** -30


def _remainder_estimate(n: int, N: int) -> float:
    """R(n, N) in double precision, for n >= 2 and N >= 1; inf where its
    sinh would overflow (n above about 1.9 * 10^6 at N = 5)."""
    try:
        growth = math.sinh(math.pi * math.sqrt(2 * n / 3) / N)
    except OverflowError:
        return math.inf
    return _LEAD / math.sqrt(N) + _SECOND * math.sqrt(N / (n - 1)) * growth


def rademacher_round(n: int, prec: int = DEFAULT_PRECISION) -> int:
    """p(n) by rounding the truncated series to the nearest integer.

    After N terms p(n) is within R(n, N) of prefactor * (partial sum), and
    the round returns the nearest integer once its distance from the sum
    plus R is below 1/2 - 2^(16-wp).  The 2^(16-wp) is not a rounding guard:
    wp is only about 48 bits above the size of p(n), so after K terms the
    sum carries an absolute error up to about K 2^-46, far above it (the
    module docstring bounds it by K 2^-44).  The round is safe because a
    wrong nearest integer would be a whole unit away: gap + R below 1/2
    leaves the other 1/2 for that error.  The nearest integer and the gap
    are read off the fixed-point sum.
    R decreases in N, so the test passes by the first N with R < 1/4, up to
    rounding at wp; a round still running once R < 1/8 raises
    StabilizationError instead of guessing.  n = 1 is answered directly,
    since R divides by n - 1.

    The rigorous 64-bit R (_remainder_bound) is evaluated only where one of
    the two tests can pass.  Below the first N where R can fall under 1/2
    (_lehmer_lead) neither can.  From there on, a double-precision estimate
    est of R (_remainder_estimate) is taken first, and low = est (1 - 2^-30)
    stands for a lower bound of R.  If low >= 1/8 and gap + low >= 1/2, then
    R >= 1/8 fails the StabilizationError test and gap + R >= 1/2 fails the
    stop test, so R is not evaluated.  low is a lower bound unless libm's
    sqrt and sinh err by more than 2^-30 relative: gap is read as a float
    rounded down, and the one float sum errs by 2^-53 of gap + low, far
    inside low's allowance of at least 2^-33.  A wrong skip only costs one
    more term: the round still returns only after the rigorous R passes the
    unchanged test, so it can never return a wrong integer.
    """
    if n < 1:
        raise PreconditionError("requires n >= 1")
    if n == 1:
        return 1
    wp, X, prefactor = _series_state(n, prec)
    w = wp + _FIXED_GUARD
    # 1/2 - 2^(16-wp): the round's safety is the unit to the next integer
    threshold = libmp.mpf_sub(libmp.from_man_exp(1, -1), libmp.from_man_exp(1, 16 - wp), wp, "n")
    start = _lehmer_lead()[1]
    running = 0
    for k in itertools.count(1):
        running += _fixed_term(n, k, wp, X)
        if k < start:
            continue
        value = prefactor * running >> w
        nearest = (value + (1 << (w - 1))) >> w
        gap = libmp.from_man_exp(abs(value - (nearest << w)), -w)
        low = _remainder_estimate(n, k) * _ESTIMATE_SHARE
        if low >= 0.125 and libmp.to_float(gap) + low >= 0.5:
            continue
        tail = _remainder_bound(n, k)
        if libmp.mpf_lt(libmp.mpf_add(gap, tail, wp, "n"), threshold):
            return nearest
        if libmp.mpf_lt(libmp.mpf_shift(tail, 2), threshold):
            raise StabilizationError(f"series for n={n} did not settle by R(n, {k}) < 1/8")


def _h_ends(a: int, b: int, prec: int):
    """Raw ends of h(x) for x = a/b > 0: special._decay_fixed's integers at
    prec + DECAY_GUARD bits, [H - E, H + E] 2^-z rounded outward.  They are
    outward by the proof in special's docstring, not an interval
    expression's bits."""
    h, _, e, z = _decay_fixed(a, b, prec + DECAY_GUARD)
    return _dyadic_ends(h - e, h + e, z, prec)


def h_error(x, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Envelope h(x) controlling everything beyond the leading correction.

    h(x) = (2 pi^2 / 3) x e^{-pi sqrt(2x/3)} + (8 pi / sqrt 3) sqrt(x)
           e^{-(pi/2) sqrt(x/2)}.

    Decreasing for x >= 12; h(335/24) is about 0.862, already below 1.
    x is an int or a Fraction; the ends are the fixed-point decay kernel's
    (special._decay_fixed), outward by the proof in special's docstring.
    """
    xf = to_fraction(x)
    if xf <= 0:
        raise PreconditionError("requires x > 0")
    return _wrap(_h_ends(xf.numerator, xf.denominator, prec), prec)


# ErrorBudget and proposition21_budget stay only for perfbench's tracer.
@dataclass(frozen=True)
class ErrorBudget:
    """Where the enclosure width comes from, split into its two sources."""

    main_correction: Enclosure
    tail_bound: Enclosure


def _prop21_fixed(m: int, prec: int):
    """(lo, hi, w): p(m)'s one-term enclosure in [lo, hi] 2^-w (module
    docstring), unrounded."""
    w = prec + FIXED_GUARD
    t = shifted_terms(m, w)
    k = fixed.at_width(_constants, w)
    (p0, p1), (s0, s1) = k.pi, k.sqrt3
    r = fixed.floor_root(t.d, 36, w)
    x0, x1 = p0 * r >> w, -(-(p1 * (r + 1)) >> w)
    big = fixed.exp(x0, w)
    units = (3 * x0 >> (w + 1)) + 3 * math.isqrt(w) + 12
    g0 = big - (big * units >> w) - 1
    g1 = big + (2 * big * units >> w) + 1
    g1 = -(-(g1 * ((1 << w) + 2 * (x1 - x0))) >> w)
    den = t.d << w
    factor = 2 * s0 * g0 // den, -(-(2 * s1 * g1) // den)
    h, _, e, z = _decay_fixed(t.d, 24, prec + DECAY_GUARD)
    h = -(-(h + e) >> (z - w))
    (b0, b1), one = t.kappa2, 1 << w
    return (*_scale(factor, (one - b1 - h, one - b0 + h), w), w)


def proposition21_interval(m: int, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Two-sided enclosure of p(m) from the one-term truncation.

        p(m) in e^{pi sqrt(2M/3)} / (4 sqrt(3) M) * [1 - sqrt(3)/(sqrt(2) pi
        sqrt(M)) +- h(M)],   M = m - 1/24,

    _prop21_fixed's integer ends rounded once, outward by the lemmas in the
    module docstring.  The exponent pi sqrt(2M/3) is built here alone; h
    reads its own in fixed point.
    """
    if m < 2:
        raise PreconditionError("requires m >= 2")
    return _wrap(_dyadic_ends(*_prop21_fixed(m, prec), prec), prec)


def proposition21_budget(m: int, prec: int = DEFAULT_PRECISION) -> ErrorBudget:
    """The width sources behind proposition21_interval for the same m."""
    if m < 2:
        raise PreconditionError("requires m >= 2")
    w = prec + FIXED_GUARD
    main = _dyadic_ends(*shifted_terms(m, w).kappa2, w, prec)
    return ErrorBudget(_wrap(main, prec), h_error(shifted_index(m), prec))

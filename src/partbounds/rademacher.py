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

The stop test reads Lehmer's bound
R(n, N) = A / sqrt N + B sqrt(N/(n-1)) sinh(y), with A = 44 pi^2/(225 sqrt 3),
B = pi sqrt 2/75 and y = pi sqrt(6n)/(3N), as _remainder_bound's integer
upper end over 2^W.  Each factor is bounded by fixed's ends at W (its
within-a-unit and floor-root lemmas): pi in [P0, P1] 2^-W (fixed.pi_ends),
sqrt 3 in [s0, s0 + 1] and sqrt 2 in [q0, q1] 2^-W (fixed.root_ends), and
the floor roots r of N, m of n - 1 and t of 6n, so sqrt N in [r, r + 1),
sqrt(n - 1) >= m and sqrt(6n) < t + 1, over 2^W:
* A lies in [A0, A1] 2^-W, A0 = floor(44 P0^2 / (225 (s0 + 1))) and
  A1 = ceil(44 P1^2 / (225 s0)) (_lehmer_lead), so A / sqrt N <= A1 / r,
  raised to 2^-W;
* y <= y1 2^-W, y1 = ceil(P1 (t + 1) / (3N 2^W)), and e^(y1 2^-W) 2^W <= U,
  the upper end of fixed.exp_ends(y1, W) (fixed's exponential ends; y1 2^-W
  < pi sqrt(2n/3) + 1 lies far below 2^(W-3)).  sinh and u - 1/u increase,
  so 2 sinh(y) <= (U - floor(4^W / U)) 2^-W = S 2^-W;
* so B sqrt(N/(n-1)) sinh(y) 2^W <= P1 q1 (r + 1) S / (150 m 4^W), raised.
R's upper end is the sum of the two raised terms.

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
* e^x0 2^w lies in fixed.exp_ends(x0, w) (fixed's exponential ends), and
  e^x <= e^x1 <= e^x0 (1 + 2(x1 - x0)), as e^t <= 1 + 2t on [0, 1];
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

from mpmath import libmp

from . import fixed
from .enclosure import DEFAULT_PRECISION, Enclosure, _dyadic_ends, _wrap
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


def _lehmer_lead(w: int):
    """R's N^{-1/2} coefficient A = 44 pi^2 / (225 sqrt 3) as (A0, A1) with A
    in [A0, A1] 2^-w (module docstring), read through fixed.at_width.

    R(n, N) >= A0 2^-w / sqrt N, which is at least 1/2 while N <= 4 A0^2 4^-w
    (about 4.97, so N <= 4); there neither the stop test nor the
    StabilizationError test can pass.
    """
    (p0, p1), (s0, _) = fixed.pi_ends(w), fixed.root_ends(3, 1, w)
    return 44 * p0 * p0 // (225 * (s0 + 1)), -(-44 * p1 * p1 // (225 * s0))


def _remainder_bound(n: int, N: int, w: int) -> int:
    """Lehmer's bound on |p(n) - prefactor * (sum of the first N terms)|, for
    n >= 2 and N >= 1, as an integer upper end over 2^w of

        R(n, N) = 44 pi^2 / (225 sqrt 3) N^{-1/2}
                  + pi sqrt 2 / 75 (N / (n-1))^{1/2} sinh(pi sqrt(2n/3) / N),

    outward by the lemma in the module docstring while pi sqrt(2n/3) / N lies
    below 2^(w-4).
    """
    p1 = fixed.pi_ends(w)[1]
    r = fixed.floor_root(N, 1, w)
    first = -((-fixed.at_width(_lehmer_lead, w)[1] << w) // r)
    y1 = -(-p1 * (fixed.floor_root(6 * n, 1, w) + 1) // (3 * N << w))
    big = fixed.exp_ends(y1, w)[1]
    top = p1 * fixed.root_ends(2, 1, w)[1] * (r + 1) * (big - (1 << 2 * w) // big)
    return first - (-top // (150 * fixed.floor_root(n - 1, 1, w) << 2 * w))


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

    The rigorous R (_remainder_bound, over 2^W) is evaluated only where one
    of the two tests can pass, and both compare integers over 2^W.  Below
    the first N where R can fall under 1/2 (_lehmer_lead) neither can.  From
    there on, a double-precision estimate est of R (_remainder_estimate) is
    taken first, and low = est (1 - 2^-30) stands for a lower bound of R.  If
    low >= 1/8 and gap + low >= 1/2, then R >= 1/8 fails the
    StabilizationError test and gap + R >= 1/2 fails the stop test, so R is
    not evaluated.  low is a lower bound unless libm's sqrt and sinh err by
    more than 2^-30 relative: gap is read as the nearest float, and it and
    the one float sum each err by 2^-53 of gap + low, far inside low's
    allowance of at least 2^-33.  A wrong skip only costs one more term: the
    round still returns only after the rigorous R passes the unchanged test,
    so it can never return a wrong integer.
    """
    if n < 1:
        raise PreconditionError("requires n >= 1")
    if n == 1:
        return 1
    wp, X, prefactor = _series_state(n, prec)
    w = wp + _FIXED_GUARD
    # 1/2 - 2^(16-wp) over 2^w: the round's safety is the unit to the next
    # integer
    threshold = (1 << (w - 1)) - (1 << (w + 16 - wp))
    lead = fixed.at_width(_lehmer_lead, w)[0]
    start = (lead * lead >> (2 * w - 2)) + 1
    running = 0
    for k in itertools.count(1):
        running += _fixed_term(n, k, wp, X)
        if k < start:
            continue
        value = prefactor * running >> w
        nearest = (value + (1 << (w - 1))) >> w
        gap = abs(value - (nearest << w))
        low = _remainder_estimate(n, k) * _ESTIMATE_SHARE
        if low >= 0.125 and gap / (1 << w) + low >= 0.5:
            continue
        tail = _remainder_bound(n, k, w)
        if gap + tail < threshold:
            return nearest
        if 4 * tail < threshold:
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
    g0, g1 = fixed.exp_ends(x0, w)
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

"""Worst-margin laboratory for the scalar inequalities behind the error radii.

Every closed-form bound used while assembling the interval estimates reduces
to a claim of the shape "margin expression is positive on a stated domain".
Each case below packages one such claim: a margin function that returns an
exact lower end of the margin, a rational (num, den) with den > 0, together
with a sampler for the domain.  The claim is only "margin > 0", so nothing
forms an upper end.  A run sweeps a deterministic grid plus seeded random
points and reports the least lower end seen, rounded down once to the run's
precision, so a passing run exhibits a strictly positive worst margin over
the whole sample.

Sampling conventions:

* domains are sampled in their open interior; both ends are pulled inward by
  a relative offset of 1e-9 because several bounds degenerate to equality on
  the boundary,
* unbounded domains are truncated at 10^4,
* cases quantified over admissible integer shift pairs (n, j) sample those
  pairs directly instead of a continuum,
* margins that certify a bound of the form error <= c/N are normalised by N,
  so the reported quantity is c - N * error.

A domain is one sampler object with its grid and random budget, and cases
registered with the same three share it: [335/24, 10^4] carries five cases,
the (n, j) pairs four, (0, 1/5) four and [1, 10^4] two.  run_domain is the
one sweep: it draws a domain's points once, from one random.Random(seed),
evaluates each of its cases at each point, and keeps each case's least
exact end by integer cross-multiplication, rounding down to prec bits by
ratio_pair only an end below it.  Its result is the first point with the
least rounded end, the same as rounding every end, and merge_shares joins
the results of contiguous shares of the sequence into it (run_domain's
docstring).  run_case is that sweep over one name, with the same points and
result as the name's row of its domain.

Because the cases of a domain are evaluated one after the other at each
point, the terms they share are computed once per point, by small memos
that keep the last point or two: the floor root of x, or of 1 - x, the
upper ends of h and of the correction sum sqrt3/(sqrt2 pi sqrt x) + h, and
the pair margins' integer bounds in n alone and in J = j and 2j.  Each is
keyed by the point's integers and prec: the numerator and denominator of
x = a/b, or n and J, never a Fraction, whose hash takes a modular inverse.

Three margins are one exact rational, unrounded: geometric-series-100,
reciprocal-125 and bessel-simplify-half return p/q as it stands, and
ratio_pair rounds p/q whatever the common factors of p and q, so their
rounded ends are those of the Enclosure expression they replace
(tests/test_inequalities.py keeps each expression as a reference and
compares the two).  collapse-131, one point per run, stays an Enclosure
expression (see its comment) and returns that expression's lower end,
decoded exactly.  The other sixteen are integer ends over 2^z, at or below
the margin by proof: bessel-tail-sum on special._bessel_fixed, one power
series and fixed's exponential ends; the eleven fixed-point margins, four of
them on special._decay_fixed, whose proof is in special's docstring; and the
four (n, j) pair margins, exact integer bounds (each below).  The interval
samplers build each point as one Fraction.

bessel-tail-sum sums in fixed point.  For x = a/b in [20, 100], _tail_sum
splits the sum at K = FAR_START = 20, where x/k <= 5 from k = K on.

Near terms, 2 <= k < K.  It adds the kernel special._bessel_fixed at
y' = floor(a 2^w / (b k)) 2^-w into one integer S_n, with w = prec + 16 +
max(g(x/2), g(x/(K - 1))), g the kernel's _bessel_guard_bits (g <= 16 on
[1, 50]), below 2^16 up to prec 4096.  By special's relative bound at
y0 = x/(K - 1) and y1 = x/2, each term is within delta I(x/k) 2^w of
I(x/k) 2^w, delta = 2^-(prec+12) + 2^-(prec+24).  So their exact sum T_n
has |S_n - T_n 2^w| < delta T_n 2^w < 2^-(prec+11) S_n, below
E_n = (S_n >> (prec + 10)) + K.  Only fixed's exponential lemma inside
Delta_w is tested (to 4150 bits) and not proved; E_n's factor 2 and its K
units are room beyond the proof.

Far terms, K <= k <= TAIL_TERMS, the L = 981 others.  By the power series
of I_{3/2} (DLMF 10.25.2), with u = x/K <= 5 and every term positive,

    sum_k I_{3/2}(x/k) = sqrt(2/pi) u^(3/2) sum_m t_m zeta_m,
    t_m = u^(2m) / (2^m m! (2m + 3)!!),  zeta_m = sum_k (K/k)^(2m + 3/2).

At W = prec + FAR_GUARD bits, in units 2^-W:
* _power_sums(prec), once per precision, floors z_k = (K/k)^(3/2) 2^W as
  the floor root of K^3 / k^3 (fixed), below by under a unit, and then takes
  z_k <- floor(z_k K^2 / k^2) once per m, a factor at most 1 and a floor.
  So z_k(m) lies under m + 1 units below (K/k)^(2m+3/2) 2^W, and the sum
  Z_m has zeta_m 2^W in [Z_m, Z_m + L (m + 1)); a z_k at 0 stays 0 and is
  dropped;
* _far_sum takes T_0 = floor(2^W / 3) and the forward recurrence
  T_m = floor(T_{m-1} a^2 / (b^2 K^2 2m (2m + 3))), so T_m = t_m 2^W - e_m
  with e_0 < 1 and e_m < rho_m e_{m-1} + 1, rho_m = u^2 / (2m (2m + 3)).
  No floor is amplified by the powers of u^2 <= 25: rho_1 <= 5/2 and
  rho_m <= 25/28 from m = 2 on, so e_1 < 3.5 and e_m < 10 throughout.
  (Horner's rule in u^2 at W bits multiplies each floor by up to 25 a
  step instead; at 1024 bits it kept only about 2^-725 of the sum);
* so each T_m Z_m lies below t_m zeta_m 4^W by at most 10 zeta_m 2^W +
  L (m + 1) t_m 2^W <= 10 z0 + L (m + 1)(T_m + 10), z0 = Z_0 + L, as
  zeta_m <= zeta_0 < z0 2^-W;
* the sum stops after the first term m >= 2 with T_m < 2^_FAR_STOP.  From
  m + 1 on, rho <= 25 / (2 (m + 1)(2m + 5)) <= 1/2, so the terms left add
  at most 2 t_(m+1) zeta_0 <= t_m zeta_0 < z0 (T_m + 10) 4^-W.
  _power_sums builds Z_m up to where the recurrence at u = 5 stops; T_m
  grows with u, so every u <= 5 stops within the table.
So sum_m t_m zeta_m 4^W lies in [P, P + err], P the sum of the T_m Z_m
and err the sum of those bounds.  sqrt(2/pi) u^(3/2) 2^W, the root of
2 a^3 4^W / (pi b^3 K^3), lies in [G_lo, G_hi]: G_lo is the isqrt of that
quotient floored at pi's upper end, and G_hi one more than the isqrt of it
raised at pi's lower end, fixed.pi_ends(W).  So
the far sum lies in [F_lo, F_hi] 2^-w, F_lo = floor(G_lo P 2^(w - 3W)) and
F_hi = floor(G_hi (P + err) 2^(w - 3W)) + 1, a unit or two apart.

With S = S_n + F_lo and E = E_n + F_hi - F_lo, the whole sum lies strictly
inside [S - E, S + E] 2^-w.  The right-hand side 4 sqrt(x/pi) e^(x/2)
lies above Q_lo 2^-w, floored from ends over 2^w that make it least:
* sqrt(x/pi) >= r_lo 2^-w, r_lo the floor root of a 2^w / (b P1) for pi
  in fixed.pi_ends(w) = [P0, P1] 2^-w (fixed's lemmas);
* with t the floor of x/2 over 2^w, e^(x/2) 2^w >= e^(t 2^-w) 2^w >= e_lo,
  the lower end of fixed.exp_ends(t, w) (fixed's exponential ends).
The margin's lower end is Q_lo - S - E over 2^w.  fixed's exponential
lemma, in the near terms and the right-hand side, is the one step not
proved.

The (n, j) pair margins are exact integer bounds.  With N = d/24, d = 24n - 1,
sqrt(6 N^3) = d sqrt(d)/48 and sqrt N = sqrt(d/24), so their irrational
terms are

    q = pi J^2 / (4 sqrt(6 N^3)) = 12 pi J^2 / (d sqrt d),
    c = sqrt3 / (sqrt(2 pi) sqrt N) = 6 / sqrt(pi d),
    b = sqrt3 / (sqrt2 pi sqrt N) = 6 / (pi sqrt d),

each monotone in pi and in sqrt d.  At w = prec + FIXED_GUARD, pi lies in
fixed.pi_ends(w) = [lo, hi] 2^-w and sqrt(pi) in [s_lo, s_hi + 1) 2^-w,
s_lo and s_hi the floor roots of lo 2^-w and hi 2^-w (_fixed_constants),
and _n_bounds takes the floor root r of d, so sqrt d is in [r, r + 1) 2^-w
(fixed's lemmas).  Putting in the ends that make a term
least, or greatest, and flooring, or raising, the quotient gives integers
with q, c, b and the J-bracket J/N - q = 24J/d - q within [lo, hi] 2^-w
(_n_bounds, _j_bounds):
* collapse-056's 0.56 - (0.4 + pi J^3/(4 sqrt6 N^(3/2)) + 0.4 pi J^2/(4 sqrt6
  N^(3/2)) + 0.1 + 0.1 J/N + 0.04/N) is 3/50 - 24(5J + 2)/(50 d) -
  q (5J + 2)/5, which decreases in q: over 50 d 2^w its lower end reads q's
  upper integer;
* a product margin, radius - scale N err with err = a1 a2 + (r1/N)(1 + a2 +
  r2/N) + (r2/N)(1 + a1) and a = |b|, decreases in a1 and a2: its lower end
  reads the larger magnitude of each bound, max(-lo, hi) (_product_margin).
  collapse-271 has b1 the J-bracket and b2 = -c; collapse-2075 and
  collapse-3926 have b1 = b and b2 the J-bracket less c, its bounds
  subtracted end by end.
Each lower end, an exact quotient y of integers, is floored to 2^-w (nested
floors, below).  So it lies below the margin at the exact |b|; the Enclosure
expressions it replaces read |b| from prec-bit enclosures of b, at or above
it, so their values lie at or below it, and their upper ends lie above the
new lower end at a wider precision.

shifted-envelope-11 bounds x d(Y), d(Y) = sqrt(Y) e^{-(pi/2) sqrt(Y/2)} and
Y = x - sqrt(x)/2, for x = a/b in [335/24, 10^4], at w = prec + DECAY_GUARD:
* _shifted_floor gives Yw with Y 2^w - 2 < Yw <= Y 2^w, so Y' = Yw 2^-w lies
  within 2^(1-w) below Y, and Y' > 12;
* the kernel at Y' gives (D, E, z) with d(Y') within E 2^-z of D 2^-z;
* d decreases for Y >= 1, where pi sqrt(Y) > 2 sqrt 2 (which
  sqrt-exp-decreasing certifies), so d(Y) <= d(Y') <= (D + E) 2^-z.
So the margin 11/10 - x d(Y) is at least (11 b 2^z - 10 a (D + E)) over
10 b 2^z, floored to 2^-z.

Nested floors.  Let y be a real with |y| >= 2^-(FIXED_GUARD + 1), so that
its binade [2^(e-1), 2^e) has e >= -FIXED_GUARD.  The prec-bit floats in
it are multiples of 2^(e - prec), and so of 2^-w, w = prec + FIXED_GUARD;
so the floor of y to a multiple of 2^-w lies between y's prec-bit floor and
y, and the prec-bit floor of it is y's: the two floors nest.  The pair
margins and shifted-envelope-11 floor the quotients that ratio_pair rounded
before to 2^-w, or to the finer 2^-z, and run_domain rounds that down once.
The least of their sampled margins, collapse-056's, is about 0.0018, so the
rounded end is the quotient's prec-bit floor, ratio_pair's bits, with one
rounding instead of two (tests/test_inequalities.py compares them).  Below
2^-33 it would still lie below the margin, as every floor does.

Fixed-point margins.  Eleven margins form an integer lower end L over 2^w,
w = prec + FIXED_GUARD, or over the decay kernel's 2^-z: correction-sum-099,
exp-argument-01, shift-ratio-02 and collapse-1350 on [335/24, 10^4];
sqrt-expansion-01, inverse-sqrt-06 and concavity-sqrt-positive on (0, 1/5);
tail-envelope-15, sqrt-exp-decreasing, exp-convexity-half (both sides of its
split), and shifted-envelope-11 (above).  They read:
* _fixed_constants(w), once per width in fixed.at_width: pi in
  fixed.pi_ends(w), and sqrt 6, sqrt(3/2) and 2 sqrt 2 in their
  fixed.root_ends, [r, r + 1] 2^-w with r the floor root (fixed's lemmas);
* one floor root r per point (_floor_root), of x = a/b, or of 1 - x =
  (b - a)/b on (0, 1/5), so that root lies in [r, r + 1) 2^-w;
* an exact rational part R as floor(R 2^w);
* h and its decay factor d from special._decay_fixed at prec + DECAY_GUARD,
  within E 2^-z of H 2^-z and D 2^-z.
Each margin is monotone in each of these terms, so a lower end that puts in
the bounds which make the margin least, and floors each quotient, lies at
or below it:
* shift-ratio-02, 1/5 - 1/(2 sqrt x), increases in sqrt x;
* exp-argument-01, 1/10 - pi/(40 sqrt 6) - (pi^2/24) i^2 with i =
  1/(10 sqrt x) + 1/4 > 0, decreases in pi and i, and i decreases in sqrt x;
  the margin increases in sqrt 6;
* sqrt-exp-decreasing, pi sqrt x - 2 sqrt 2, increases in pi and sqrt x
  and decreases in 2 sqrt 2;
* on (0, 1/5), with u = sqrt(1 - x): sqrt-expansion-01 is R + u,
  concavity-sqrt-positive R - u and inverse-sqrt-06 R - 1/u;
* correction-sum-099 and collapse-1350 read the upper ends of h and of the
  correction sum s = sqrt(3/2)/(pi sqrt x) + h over 2^w (_correction): h's,
  H + E over 2^-z raised to 2^-w, and s's, as s increases in sqrt(3/2) and
  h and decreases in pi and sqrt x.  99/100 - s decreases in s, and
  1350 - x (h + 100 s^2) in h and in s >= 0;
* tail-envelope-15, 15 d - h, lies above (15 D - H - 16 E) 2^-z, with no
  further floor;
* exp-convexity-half is R - e^-x, R = x^2/2 + 1 - x.  ln 2 lies below
  U 2^-v, U the upper end of fixed.ln2_ends(v), v = w + 8, so m =
  floor(x 2^v / U) has m < x / ln 2 and 0 < e^-x < 2^-m.  Where m >= w
  (x above about w ln 2; the test is a 2^v >= b w U, no division), the
  margin lies above R - 2^-w, so above (floor(R 2^w) - 1) 2^-w.  Below the
  split, with v = w + 8 and tv = floor(x 2^v), within a unit 2^-v of x,
  fixed.exp_neg(tv, v, w) gives (E, m) with e^-x = 2^-m e^u (fixed's
  reduction lemma, delta = 1), and e^u 2^w within k = fixed.reduced_units(w,
  m) units of E, as m + 2 <= w + 3 <= 2^(v-16) and 48 <= w < 2^16 up to
  prec 4096.  So the margin lies above (floor(R 2^w) - ceil((E + k) 2^-m))
  2^-w.
tests/test_fixed.py checks the constants' and roots' ends, and
tests/test_inequalities.py decides the margins' integer bounds exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from types import SimpleNamespace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import fixed
from .enclosure import (
    DEFAULT_PRECISION,
    PRECISION_MEMO_MAXSIZE,
    Enclosure,
    constants,
    fraction_from_raw,
    ratio_pair,
)
from .errors import PartboundsError, PreconditionError
from .estimates import FJN_RADIUS_A, FJN_RADIUS_B, RATIO_RADIUS_1, RATIO_RADIUS_2, fjn_j_top
from .exact import shifted_index
from .fixed import FIXED_GUARD
from .special import DECAY_GUARD, _bessel_fixed, _bessel_guard_bits, _decay_fixed

Point = Tuple
LowerEnd = Tuple[int, int]  # an exact lower end num/den of a margin, den > 0
MarginFn = Callable[[Point, int], LowerEnd]
# sampler(grid, rand, rng, start, stop) yields the points at positions
# [start, stop) of its domain's sequence, the grid points and then rand draws
# from rng; it makes the draws before start, so a cut moves no point
Sampler = Callable[[int, int, random.Random, int, int], Iterable[Point]]

GRID_POINTS = 10_000
RANDOM_POINTS = 1_000
DEFAULT_SEED = 8191

# Least shifted index in the licensed range, 14 - 1/24.
_CORNER = shifted_index(14)
# Truncation point for unbounded domains.
_CAP = Fraction(10_000)
# Relative pull-in applied to both domain endpoints.
_EDGE = Fraction(1, 10**9)

# The radii of the two factors collapse-271 combines into 2.71/N, certified
# by collapse-056 and collapse-131.
_J_FACTOR_RADIUS = Fraction(14, 25)
_SQRT_FACTOR_RADIUS = Fraction(131, 100)

# bessel-tail-sum's last k: its partial sum bounds every shorter one, as the
# terms are positive.  The terms from k = FAR_START on, where x/k <= 5, are
# summed as one power series in (x/FAR_START)^2 at FAR_GUARD bits above prec,
# and the terms below it one by one on the Bessel kernel (module docstring).
TAIL_TERMS = 1000
FAR_START = 20
FAR_GUARD = 56
# the far terms' count, and the bits below which the series stops
_FAR_TERMS = TAIL_TERMS - FAR_START + 1
_FAR_STOP = 12

def _least(ends: Iterable[LowerEnd]) -> LowerEnd:
    # the first of the least exact ends, compared by cross-multiplication
    ends = iter(ends)
    least = next(ends)
    for num, den in ends:
        if num * least[1] < least[0] * den:
            least = num, den
    return least


def _interval_sampler(lo: Fraction, hi: Fraction) -> Sampler:
    lo = Fraction(lo)
    hi = Fraction(hi)
    span = hi - lo

    def sample(grid: int, rand: int, rng: random.Random, start: int, stop: int) -> Iterable[Point]:
        a = lo + span * _EDGE
        inner = hi - span * _EDGE - a
        # a + i inner/(grid - 1) and a + inner r/2^53, each built as one
        # Fraction over the common denominator of a and inner
        den = lcm(a.denominator, inner.denominator)
        base = a.numerator * (den // a.denominator)
        width = inner.numerator * (den // inner.denominator)
        steps = grid - 1
        for i in range(start, min(grid, stop)):
            yield (Fraction(base * steps + width * i, den * steps),)
        first = max(grid, start)
        for _ in range(grid, first):
            rng.getrandbits(53)
        for _ in range(first, stop):
            yield (Fraction((base << 53) + width * rng.getrandbits(53), den << 53),)

    return sample


def _pair_sampler(n_lo: int, n_hi: int) -> Sampler:
    """Admissible integer pairs (n, j) with 16 j^2 < n.

    The grid walks n upward taking the smallest, middle, and largest
    admissible j; random points draw n and j uniformly from the same set.
    A position counts the points yielded before it: an n with no j yields none.
    """

    def sample(grid: int, rand: int, rng: random.Random, start: int, stop: int) -> Iterable[Point]:
        count = 0
        n = n_lo
        top = min(grid, stop)
        while count < top and n <= n_hi:
            jm = fjn_j_top(n)
            if jm >= 1:
                for j in sorted({1, max(1, jm // 2), jm})[:top - count]:
                    if count >= start:
                        yield (n, j)
                    count += 1
            n += 1
        for _ in range(rand):
            if count >= stop:
                return
            n = rng.randint(n_lo, n_hi)
            jm = fjn_j_top(n)
            if jm >= 1:
                j = rng.randint(1, jm)
                if count >= start:
                    yield (n, j)
                count += 1

    return sample


def _point_sampler() -> Sampler:
    def sample(grid: int, rand: int, rng: random.Random, start: int, stop: int) -> Iterable[Point]:
        return [()][start:stop]

    return sample


# the samplers that more than one case shares, so that they share a domain
_SMALL = _interval_sampler(Fraction(0), Fraction(1, 5))
_FROM_ONE = _interval_sampler(Fraction(1), _CAP)
_FROM_CORNER = _interval_sampler(_CORNER, _CAP)
_PAIRS = _pair_sampler(17, 10_000)


def _fixed_constants(w: int) -> SimpleNamespace:
    """The registry's integer constants over 2^w, w = prec + FIXED_GUARD,
    read through fixed.at_width: pi, sqrt 6, sqrt(3/2) and 2 sqrt 2 as
    (lo, hi) with the constant in [lo, hi] 2^-w; sqrt_pi, (lo, hi) with
    sqrt pi in [lo, hi + 1) 2^-w; and split = w U, U the upper end of
    fixed.ln2_ends(w + 8), exp-convexity-half's split point (module
    docstring)."""
    pi = fixed.pi_ends(w)
    return SimpleNamespace(
        w=w,
        pi=pi,
        sqrt_pi=tuple(fixed.floor_root(end, 1 << w, w) for end in pi),
        sqrt6=fixed.root_ends(6, 1, w),
        sqrt_three_halves=fixed.root_ends(3, 2, w),
        two_sqrt2=fixed.root_ends(8, 1, w),
        split=w * fixed.ln2_ends(w + 8)[1],
    )


def _floor(p: int, q: int, w: int) -> int:
    # floor(p 2^w / q)
    return (p << w) // q


# -- per-point terms that the cases of one domain share -------------------

@lru_cache(maxsize=1)
def _floor_root(p: int, q: int, w: int) -> int:
    # floor(sqrt(p/q) 2^w) for x = a/b on [335/24, 10^4], read by four of
    # its cases, and 1 - x on (0, 1/5), by three
    return fixed.floor_root(p, q, w)


@lru_cache(maxsize=1)
def _correction(a: int, b: int, prec: int) -> Tuple[int, int]:
    """(h, s): upper ends over 2^w of h(x) and of the correction sum
    s = sqrt(3/2)/(pi sqrt x) + h(x) at x = a/b (module docstring)."""
    w = prec + FIXED_GUARD
    k = fixed.at_width(_fixed_constants, w)
    r = _floor_root(a, b, w)
    big, _, e, z = _decay_fixed(a, b, prec + DECAY_GUARD)
    h = -(-(big + e) >> z - w)
    return h, -(-(k.sqrt_three_halves[1] << 2 * w) // (k.pi[0] * r)) + h


# -- margins ---------------------------------------------------------------

def _margin_geometric(point: Point, prec: int) -> LowerEnd:
    # 1/(1-z) - 1 - z = z^2/(1-z) for real |z| < 1; check both signs of z.
    # With z = s/b, 100 z^2 - z^2/(1-z) = s^2 (100 (b - s) - b)/(b^2 (b - s)).
    (u,) = point
    a, b = u.numerator, u.denominator
    return _least((a * a * (100 * (b - s) - b), b * b * (b - s)) for s in (a, -a))


def _margin_sqrt_expansion(point: Point, prec: int) -> LowerEnd:
    # x^3/10 - ((1 - x/2 - x^2/8) - sqrt(1-x)); sqrt(1-x) sits below
    # 1 - x/2 - x^2/8, so the deviation needs no abs.  With x = a/b its
    # exact part is (4a^3 - 5b (8b^2 - 4ab - a^2))/(40 b^3), plus sqrt(1-x)
    (x,) = point
    a, b = x.numerator, x.denominator
    w = prec + FIXED_GUARD
    bb = b * b
    num, den = 4 * a**3 - 5 * b * (8 * bb - 4 * a * b - a * a), 40 * bb * b
    r = _floor_root(b - a, b, w)
    return _floor(num, den, w) + r, 1 << w


def _margin_inverse_sqrt(point: Point, prec: int) -> LowerEnd:
    # 1 + (3/5) x - 1/sqrt(1-x), its exact part (5b + 3a)/(5b)
    (x,) = point
    a, b = x.numerator, x.denominator
    w = prec + FIXED_GUARD
    r = _floor_root(b - a, b, w)
    return _floor(5 * b + 3 * a, 5 * b, w) + (-(1 << 2 * w) // r), 1 << w


def _margin_reciprocal(point: Point, prec: int) -> LowerEnd:
    # (5/4) x^2 - x^2/(1-x) = a^2 (b - 5a)/(4 b^2 (b - a)) for x = a/b
    (x,) = point
    a, b = x.numerator, x.denominator
    return a * a * (b - 5 * a), 4 * b * b * (b - a)


def _margin_exp_convexity(point: Point, prec: int) -> LowerEnd:
    # x^2/2 + 1 - x - e^{-x}, its exact part R = (a^2 + 2b^2 - 2ab)/(2b^2):
    # past the split e^{-x} < 2^-w, below it e^{-x} = 2^-m e^u from
    # fixed.exp_neg, e^u 2^w within fixed.reduced_units of E (module
    # docstring)
    (x,) = point
    a, b = x.numerator, x.denominator
    num, den = a * a + 2 * b * b - 2 * a * b, 2 * b * b
    w = prec + FIXED_GUARD
    v = w + 8
    if a << v >= b * fixed.at_width(_fixed_constants, w).split:
        return _floor(num, den, w) - 1, 1 << w
    big, m = fixed.exp_neg((a << v) // b, v, w)
    return _floor(num, den, w) + (-(big + fixed.reduced_units(w, m)) >> m), 1 << w


def _margin_tail_envelope(point: Point, prec: int) -> LowerEnd:
    # 15 sqrt(x) e^{-(pi/2) sqrt(x/2)} - h(x): h's decay factor and h, both
    # from the decay kernel, within E 2^-z of D and H
    (x,) = point
    big, d, e, z = _decay_fixed(x.numerator, x.denominator, prec + DECAY_GUARD)
    return 15 * d - big - 16 * e, 1 << z


def _margin_envelope_decreasing(point: Point, prec: int) -> LowerEnd:
    # d/dx log(sqrt(x) exp(-(pi/2) sqrt(x/2))) < 0 iff pi sqrt(x) > 2 sqrt(2).
    (x,) = point
    w = prec + FIXED_GUARD
    k = fixed.at_width(_fixed_constants, w)
    r = _floor_root(x.numerator, x.denominator, w)
    return (k.pi[0] * r >> w) - k.two_sqrt2[1], 1 << w


def _shifted_floor(a: int, b: int, w: int) -> int:
    # Y 2^w rounded down by under 2 units, for Y = x - sqrt(x)/2 and x = a/b:
    # the floor root r of x at w - 1 has r <= sqrt(x) 2^(w-1) < r + 1
    return (a << w) // b - fixed.floor_root(a, b, w - 1) - 1


def _margin_shifted_envelope(point: Point, prec: int) -> LowerEnd:
    # 11/10 - x d(Y), d(Y) = sqrt(Y) e^{-(pi/2) sqrt(Y/2)}, Y = x - sqrt(x)/2:
    # the decay kernel at Y rounded down, the end a floor over 2^-z (module
    # docstring)
    (x,) = point
    a, b = x.numerator, x.denominator
    w = prec + DECAY_GUARD
    _, d, e, z = _decay_fixed(_shifted_floor(a, b, w), 1 << w, w, first=False)
    return ((11 * b << z) - 10 * a * (d + e)) // (10 * b), 1 << z


def _margin_concavity(point: Point, prec: int) -> LowerEnd:
    # 1 - x/2 - sqrt(1-x), its exact part (2b - a)/(2b)
    (x,) = point
    a, b = x.numerator, x.denominator
    w = prec + FIXED_GUARD
    return _floor(2 * b - a, 2 * b, w) - _floor_root(b - a, b, w) - 1, 1 << w


def _margin_correction_sum(point: Point, prec: int) -> LowerEnd:
    # 99/100 - s, s the correction sum
    (x,) = point
    w = prec + FIXED_GUARD
    return _floor(99, 100, w) - _correction(x.numerator, x.denominator, prec)[1], 1 << w


def _inner_upper(r: int, w: int) -> int:
    # 1/(10 sqrt x) + 1/4 at or below this over 2^w, for sqrt x >= r 2^-w
    return -(-(1 << 2 * w) // (10 * r)) + (1 << w - 2)


def _margin_exp_argument(point: Point, prec: int) -> LowerEnd:
    # 1/10 - (pi/(40 sqrt6) + (pi^2/24) inner^2), inner = 1/(10 sqrt x) + 1/4
    (x,) = point
    w = prec + FIXED_GUARD
    k = fixed.at_width(_fixed_constants, w)
    inner = _inner_upper(_floor_root(x.numerator, x.denominator, w), w)
    p_hi = k.pi[1]
    value = -(-(p_hi << w) // (40 * k.sqrt6[0])) - (-(p_hi * inner) ** 2 // (24 << 3 * w))
    return _floor(1, 10, w) - value, 1 << w


def _margin_shift_ratio(point: Point, prec: int) -> LowerEnd:
    # 1/5 - 1/(2 sqrt x)
    (x,) = point
    w = prec + FIXED_GUARD
    r = _floor_root(x.numerator, x.denominator, w)
    return _floor(1, 5, w) + (-(1 << 2 * w - 1) // r), 1 << w


# -- the (n, j) pair margins on integer bounds ------------------------------
# Each pair margin is monotone in pi, in sqrt(6 N^3) = d sqrt(d)/48 and in
# sqrt N = sqrt(d/24), N = d/24: its ends read pi's integer ends and one
# floor root of d per n (module docstring).

def _n_bounds(d: int, k):
    """(r, c, b) for d = 24n - 1 and the registry constants k over 2^w:
    sqrt(d) within [r, r + 1) 2^-w, and (lo, hi) integers with c =
    6/sqrt(pi d) = sqrt3/(sqrt(2 pi) sqrt N) and b = 6/(pi sqrt d) =
    sqrt3/(sqrt2 pi sqrt N) within [lo, hi] 2^-w."""
    (lo, hi), (s_lo, s_hi), w = k.pi, k.sqrt_pi, k.w
    r = fixed.floor_root(d, 1, w)
    c = (6 << 3 * w) // ((s_hi + 1) * (r + 1)), -(-(6 << 3 * w) // (s_lo * r))
    b = (6 << 3 * w) // (hi * (r + 1)), -(-(6 << 3 * w) // (lo * r))
    return r, c, b


@lru_cache(maxsize=1)
def _pair_n_terms(n: int, prec: int):
    # one entry: a pair point's four cases read one n in turn, and the pair
    # grid visits each n with up to three j in a row
    return _n_bounds(24 * n - 1, fixed.at_width(_fixed_constants, prec + FIXED_GUARD))


def _j_bounds(d: int, big_j: int, k, r: int):
    """(q, bracket) for d = 24n - 1, the registry constants k over 2^w and
    _n_bounds r: (lo, hi) integers with q = pi J^2/(4 sqrt(6 N^3)) =
    12 pi J^2/(d sqrt d) and the J-bracket J/N - q = 24J/d - q within
    [lo, hi] 2^-w."""
    (lo, hi), w = k.pi, k.w
    top = 12 * big_j * big_j << 2 * w
    q = (top * lo) // (d * (r + 1) << w), -(-(top * hi) // (d * r << w))
    ratio = 24 * big_j << w
    return q, (ratio // d - q[1], -(-ratio // d) - q[0])


@lru_cache(maxsize=2)
def _pair_j_terms(n: int, big_j: int, prec: int):
    # a pair point reads J = j and 2j
    return _j_bounds(24 * n - 1, big_j, fixed.at_width(_fixed_constants, prec + FIXED_GUARD),
                     _pair_n_terms(n, prec)[0])


def _margin_collapse_056(point: Point, prec: int) -> LowerEnd:
    # 0.56 - (0.4 + pi J^3/den + 0.4 pi J^2/den + 0.1 + 0.1 J/N + 0.04/N),
    # den = 4 sqrt6 N^(3/2), is 3/50 - 24(5J + 2)/(50 d) - q (5J + 2)/5 with
    # q = pi J^2/den: over 50 d, floored to 2^-w.  The bound is used with
    # both the plain and the doubled shift; the doubled one is the tight
    # branch but both must clear 0.56.
    n, j = point
    d = 24 * n - 1
    w = prec + FIXED_GUARD
    ends = []
    for big_j in (j, 2 * j):
        five = 5 * big_j + 2
        top = (3 * d - 24 * five) << w
        ends.append((top - 10 * d * five * _pair_j_terms(n, big_j, prec)[0][1]) // (50 * d))
    return min(ends), 1 << w


def _margin_collapse_131(point: Point, prec: int) -> LowerEnd:
    # 1.31 - (0.3 sqrt3/sqrt(2 pi) + 1.1), the one margin left in Enclosure
    # arithmetic: it runs at one point, and the benchmark's smoke test
    # (perfbench/test_smoke.py) reads its Enclosure calls in a fork-pool
    # worker as the sign that the workers' counters reach the parent.
    c = constants(prec)
    sqrt3, sqrt_two_pi = Enclosure(*c.sqrt3, prec), Enclosure(*c.sqrt_two_pi, prec)
    margin = _SQRT_FACTOR_RADIUS - (Fraction(3, 10) * sqrt3 / sqrt_two_pi + Fraction(11, 10))
    lo = margin.lo_fraction
    return lo.numerator, lo.denominator


def _product_margin(
    radius: Fraction, scale: int, d: int, b1, r1: Fraction, b2, r2: Fraction, prec: int
):
    """The lower end of radius - scale N err, N = d/24, for the exact bound

        err = a1 a2 + (r1/N)(1 + a2 + r2/N) + (r2/N)(1 + a1)

    on |(1 + b1 + E1)(1 + b2 + E2) - (1 + b1 + b2)| with |E1| <= r1/N,
    |E2| <= r2/N, a1 = |b1| and a2 = |b2|.  b1 and b2 are integer bounds
    (lo, hi) over 2^w; err increases with a1 and a2, so the lower end reads
    the larger magnitude of each bound.  It is computed on unreduced
    integers over the common denominator 2^{2w} D1 D2, with r/N = P/D, and
    floored to 2^-w.
    """
    w = prec + FIXED_GUARD
    K = 1 << w
    P1, D1 = 24 * r1.numerator, r1.denominator * d
    P2, D2 = 24 * r2.numerator, r2.denominator * d
    # the margin times 2^w is (top - err) / den
    Q = 24 * K * D1 * D2
    (lo1, hi1), (lo2, hi2) = b1, b2
    A1, A2 = max(-lo1, hi1), max(-lo2, hi2)
    err = A1 * A2 * D1 * D2 + (P1 * ((K + A2) * D2 + P2 * K) + P2 * (K + A1) * D1) * K
    return (radius.numerator * Q * K - radius.denominator * scale * d * err) // (
        radius.denominator * Q), K


def _margin_collapse_271(point: Point, prec: int) -> LowerEnd:
    # b1 the J-bracket, b2 = -sqrt3/(sqrt(2 pi) sqrt N), radii 0.56 and 1.31
    n, j = point
    c_lo, c_hi = _pair_n_terms(n, prec)[1]
    return _least(
        _product_margin(
            RATIO_RADIUS_1, 1, 24 * n - 1, _pair_j_terms(n, big_j, prec)[1], _J_FACTOR_RADIUS,
            (-c_hi, -c_lo), _SQRT_FACTOR_RADIUS, prec,
        )
        for big_j in (j, 2 * j)
    )


def _bracket_margin(radius: Fraction, scale: int, n: int, big_j: int, prec: int) -> LowerEnd:
    # radius - scale N err for (1 + b1 +- 1350/N)(1 + b2 +- 2.71/N), with
    # b1 = sqrt3/(sqrt2 pi sqrt N) and b2 the J-bracket less
    # sqrt3/(sqrt(2 pi) sqrt N)
    _, (c_lo, c_hi), b1 = _pair_n_terms(n, prec)
    j_lo, j_hi = _pair_j_terms(n, big_j, prec)[1]
    return _product_margin(
        radius, scale, 24 * n - 1, b1, RATIO_RADIUS_2, (j_lo - c_hi, j_hi - c_lo),
        RATIO_RADIUS_1, prec,
    )


def _margin_collapse_1350(point: Point, prec: int) -> LowerEnd:
    # 1350 - x (h + 100 s^2), s the correction sum: over 2^w, with h and s
    # upper ends over 2^w, it is 1350 2^w - a (h 2^w + 100 s^2) / (b 2^w)
    (x,) = point
    a, b = x.numerator, x.denominator
    w = prec + FIXED_GUARD
    h, s = _correction(a, b, prec)
    rn, rd = RATIO_RADIUS_2.numerator, RATIO_RADIUS_2.denominator
    return ((rn * b << 2 * w) - rd * a * ((h << w) + 100 * s * s)) // (rd * b << w), 1 << w


def _margin_collapse_2075(point: Point, prec: int) -> LowerEnd:
    n, j = point
    return _bracket_margin(FJN_RADIUS_A, 1, n, 2 * j, prec)


def _margin_collapse_3926(point: Point, prec: int) -> LowerEnd:
    n, j = point
    return _bracket_margin(FJN_RADIUS_B, 2, n, j, prec)


@lru_cache(maxsize=PRECISION_MEMO_MAXSIZE)
def _power_sums(prec: int) -> Tuple[int, ...]:
    """Z_m, m = 0..M, with the power sum zeta_m = sum over FAR_START <= k <=
    TAIL_TERMS of (FAR_START/k)^(2m + 3/2) in [Z_m, Z_m + _FAR_TERMS (m + 1))
    2^-W, W = prec + FAR_GUARD; M is where the series at x/FAR_START = 5
    stops (module docstring)."""
    w = prec + FAR_GUARD
    k2 = FAR_START * FAR_START
    ks = range(FAR_START, TAIL_TERMS + 1)
    squares = [k * k for k in ks]
    # (FAR_START/k)^(3/2) 2^W floored, then a factor (FAR_START/k)^2 a step
    powers = [fixed.floor_root(k2 * FAR_START, k**3, w) for k in ks]
    sums, t, m = [sum(powers)], (1 << w) // 3, 0
    while m < 2 or t >> _FAR_STOP:
        m += 1
        powers = [z * k2 // s for z, s in zip(powers, squares)]
        while not powers[-1]:
            powers.pop()
        sums.append(sum(powers))
        t = t * 25 // (2 * m * (2 * m + 3))
    return tuple(sums)


def _far_sum(a: int, b: int, w: int, prec: int) -> Tuple[int, int]:
    # (F_lo, F_hi): the sum of I_3/2(x/k) over FAR_START <= k <= TAIL_TERMS
    # lies in [F_lo, F_hi] 2^-w for x = a/b <= 5 FAR_START (module docstring)
    big = prec + FAR_GUARD
    zs = _power_sums(prec)
    z0 = zs[0] + _FAR_TERMS
    a2, b2 = a * a, b * b * FAR_START * FAR_START
    t = (1 << big) // 3
    total = err = 0
    for m, z in enumerate(zs):
        if m:
            t = t * a2 // (b2 * 2 * m * (2 * m + 3))
        total += t * z
        err += _FAR_TERMS * (m + 1) * (t + 10)
        if m >= 2 and not t >> _FAR_STOP:
            break
    err += z0 * (10 * (m + 1) + t + 10)
    # sqrt(2/pi) (x/FAR_START)^(3/2) 2^W, floored and raised, from pi's ends
    p_lo, p_hi = fixed.pi_ends(big)
    top, cube = 2 * a2 * a << 3 * big, b2 * b * FAR_START
    g_lo = isqrt(top // (p_hi * cube))
    g_hi = isqrt(-(-top // (p_lo * cube))) + 1
    shift = 3 * big - w
    return g_lo * total >> shift, (g_hi * (total + err) >> shift) + 1


def _tail_sum(x: Fraction, prec: int) -> Tuple[int, int, int]:
    # (S, E, w): the sum of I_3/2(x/k) over 2 <= k <= TAIL_TERMS lies
    # strictly inside [S - E, S + E] 2^-w, for 0 < x <= 5 FAR_START (module
    # docstring)
    a, b = x.numerator, x.denominator
    if not 0 < a <= 5 * FAR_START * b:
        raise PreconditionError(f"bessel-tail-sum requires 0 < x <= {5 * FAR_START}")
    w = prec + 16 + max(_bessel_guard_bits(x / 2), _bessel_guard_bits(x / (FAR_START - 1)))
    xw = a << w
    near = sum(_bessel_fixed(xw // (b * k), w) for k in range(2, FAR_START))
    far_lo, far_hi = _far_sum(a, b, w, prec)
    return near + far_lo, (near >> (prec + 10)) + FAR_START + far_hi - far_lo, w


def _margin_bessel_tail(point: Point, prec: int) -> LowerEnd:
    # 4 sqrt(x/pi) e^{x/2} less the sum, over the sum's 2^-w: sqrt(x/pi)
    # from pi's upper end, e^{x/2} from fixed.exp_ends at x/2 floored
    # (module docstring)
    (x,) = point
    a, b = x.numerator, x.denominator
    total, error, w = _tail_sum(x, prec)
    root = fixed.floor_root(a << w, b * fixed.pi_ends(w)[1], w)
    rhs = 4 * root * fixed.exp_ends((a << w) // (2 * b), w)[0] >> w
    return rhs - total - error, 1 << w


def _margin_bessel_simplify(point: Point, prec: int) -> LowerEnd:
    # 1/x - x/2 changes sign at sqrt(2), so clear both orientations: over
    # 2ab^2, x^2/2 -+ (1/x - x/2) is a^3 -+ (2b^3 - a^2 b) for x = a/b.
    (x,) = point
    a, b = x.numerator, x.denominator
    return a**3 - abs(2 * b**3 - a * a * b), 2 * a * b * b


@dataclass(frozen=True)
class InequalityCase:
    """One scalar inequality with its domain sampler and margin function."""

    name: str
    description: str
    margin: MarginFn
    sampler: Sampler
    grid_points: int = GRID_POINTS
    random_points: int = RANDOM_POINTS

    @property
    def domain(self) -> Tuple[Sampler, int, int]:
        """The sampler object and budget: cases with equal domains sample the
        same sequence of points, and run_domain draws each once for all of them."""
        return self.sampler, self.grid_points, self.random_points


@dataclass(frozen=True)
class InequalityResult:
    """Worst margin observed for one case over one sampling run."""

    name: str
    points: int
    worst_margin: Fraction
    worst_point: Point
    passed: bool


CASES: Tuple[InequalityCase, ...] = (
    InequalityCase(
        "geometric-series-100",
        "|1/(1-z) - 1 - z| <= 100 z^2 for 0 < |z| < 0.99",
        _margin_geometric,
        _interval_sampler(Fraction(0), Fraction(99, 100)),
    ),
    InequalityCase(
        "sqrt-expansion-01",
        "|sqrt(1-x) - 1 + x/2 + x^2/8| <= 0.1 x^3 on (0, 0.2)",
        _margin_sqrt_expansion,
        _SMALL,
    ),
    InequalityCase(
        "inverse-sqrt-06",
        "1/sqrt(1-x) - 1 <= 0.6 x on (0, 0.2)",
        _margin_inverse_sqrt,
        _SMALL,
    ),
    InequalityCase(
        "reciprocal-125",
        "|1/(1-x) - 1 - x| <= 1.25 x^2 on (0, 0.2)",
        _margin_reciprocal,
        _SMALL,
    ),
    InequalityCase(
        "exp-convexity-half",
        "exp(-x) - 1 + x <= x^2/2 for x > 0",
        _margin_exp_convexity,
        _interval_sampler(Fraction(0), _CAP),
    ),
    InequalityCase(
        "tail-envelope-15",
        "h_error(x) <= 15 sqrt(x) exp(-(pi/2) sqrt(x/2)) for x >= 12",
        _margin_tail_envelope,
        _interval_sampler(Fraction(12), _CAP),
    ),
    InequalityCase(
        "sqrt-exp-decreasing",
        "pi sqrt(x) > 2 sqrt(2) for x >= 1, so the decay envelope decreases",
        _margin_envelope_decreasing,
        _FROM_ONE,
    ),
    InequalityCase(
        "shifted-envelope-11",
        "N sqrt(Y) exp(-(pi/2) sqrt(Y/2)) <= 1.1 with Y = N - sqrt(N)/2",
        _margin_shifted_envelope,
        _FROM_CORNER,
    ),
    InequalityCase(
        "concavity-sqrt-positive",
        "1 - x/2 - sqrt(1-x) > 0 on (0, 0.2)",
        _margin_concavity,
        _SMALL,
    ),
    InequalityCase(
        "correction-sum-099",
        "sqrt(3)/(sqrt(2) pi sqrt(N)) + h_error(N) < 0.99 for N >= 335/24",
        _margin_correction_sum,
        _FROM_CORNER,
    ),
    InequalityCase(
        "exp-argument-01",
        "pi/(40 sqrt(6)) + (pi^2/24) (1/(10 sqrt(N)) + 1/4)^2 <= 0.1",
        _margin_exp_argument,
        _FROM_CORNER,
    ),
    InequalityCase(
        "shift-ratio-02",
        "1/(2 sqrt(N)) < 1/5 for N >= 335/24, so shifts stay in the x < 0.2 range",
        _margin_shift_ratio,
        _FROM_CORNER,
    ),
    InequalityCase(
        "collapse-056",
        "0.4 + pi J^3/(4 sqrt6 N^(3/2)) + 0.4 pi J^2/(4 sqrt6 N^(3/2))"
        " + 0.1 + 0.1 J/N + 0.04/N <= 0.56 for J in {j, 2j} over admissible pairs",
        _margin_collapse_056,
        _PAIRS,
    ),
    InequalityCase(
        "collapse-131",
        "0.3 sqrt(3)/sqrt(2 pi) + 1.1 <= 1.31",
        _margin_collapse_131,
        _point_sampler(),
        grid_points=1,
        random_points=0,
    ),
    InequalityCase(
        "collapse-271",
        "(1 + b1 +- 0.56/N)(1 + b2 +- 1.31/N) stays within 2.71/N of 1 + b1 + b2",
        _margin_collapse_271,
        _PAIRS,
    ),
    InequalityCase(
        "collapse-1350",
        "N (h_error(N) + 100 (sqrt(3)/(sqrt(2) pi sqrt(N)) + h_error(N))^2) <= 1350",
        _margin_collapse_1350,
        _FROM_CORNER,
    ),
    InequalityCase(
        "collapse-2075",
        "(1 + b1 +- 1350/N)(1 + b2 +- 2.71/N) stays within 2075/N of 1 + b1 + b2",
        _margin_collapse_2075,
        _PAIRS,
    ),
    InequalityCase(
        "collapse-3926",
        "2 (1 + b1 +- 1350/N)(1 + b2 +- 2.71/N) stays within 3926/N of the center",
        _margin_collapse_3926,
        _PAIRS,
    ),
    InequalityCase(
        "bessel-tail-sum",
        "sum over 2 <= k <= 1000 of I_3/2(X/k) <= 4 sqrt(X/pi) exp(X/2) on [20, 100]",
        _margin_bessel_tail,
        _interval_sampler(Fraction(20), Fraction(100)),
        grid_points=100,
        random_points=30,
    ),
    InequalityCase(
        "bessel-simplify-half",
        "|1/x - x/2| <= x^2/2 for x >= 1",
        _margin_bessel_simplify,
        _FROM_ONE,
    ),
)

CASE_INDEX = {case.name: case for case in CASES}


def _lookup(name: str) -> InequalityCase:
    case = CASE_INDEX.get(name)
    if case is None:
        known = ", ".join(sorted(CASE_INDEX))
        raise PreconditionError(f"unknown inequality case {name!r}; known: {known}")
    return case


def group_by_domain(names: Sequence[str]) -> List[Tuple[str, ...]]:
    """The names grouped by domain, each group in the order of its names and
    the groups in the order of their first names."""
    groups = {}
    for name in names:
        groups.setdefault(_lookup(name).domain, []).append(name)
    return [tuple(group) for group in groups.values()]


def run_domain(
    names: Sequence[str], prec: int = DEFAULT_PRECISION, seed: int = DEFAULT_SEED,
    start: int = 0, stop: Optional[int] = None,
) -> List[InequalityResult]:
    """Sweep the named cases, which share one domain, over the points at
    positions [start, stop) of its sequence, stop None for its end, and
    report each one's least lower end rounded down to prec bits, and the
    first point with that rounded end, in the order of the names.

    The points are drawn once, and every case is evaluated at each point
    before the next is drawn, so the per-point memos serve them all.

    Only an end below the least exact end so far is rounded, and the point
    moves only when that rounding is below the kept one.  This keeps the
    first point p whose end rounds to the least, R: rounding is monotone, so
    the ends before p, and their least, round above R, p's end lies below
    that least and is kept, and no later end rounds below R.  So contiguous
    shares of the sequence, merged by merge_shares, give the whole sweep's
    result: the least share margin is R, and the first share that reports R
    holds p, as every share before it rounds each end above R.
    """
    cases = [_lookup(name) for name in names]
    sampler, grid, rand = cases[0].domain
    if any(case.domain != cases[0].domain for case in cases):
        raise PreconditionError(f"inequality cases {', '.join(names)} do not share one domain")
    # each case's least exact end, and its rounding, which only an end below
    # it can lower; rounded ends are normalized raw floats, so two are equal
    # exactly when their tuples are
    least: List[Optional[LowerEnd]] = [None] * len(cases)
    worst = [None] * len(cases)
    worst_point: List[Point] = [()] * len(cases)
    count = 0
    stop = grid + rand if stop is None else stop
    for point in sampler(grid, rand, random.Random(seed), start, stop):
        count += 1
        for i, case in enumerate(cases):
            num, den = case.margin(point, prec)
            kept = least[i]
            if kept is None or num * kept[1] < kept[0] * den:
                least[i] = num, den
                lo = ratio_pair(num, den, prec)[0]
                if lo != worst[i]:
                    worst[i] = lo
                    worst_point[i] = point
    if not count:
        raise PartboundsError(f"inequality case {names[0]!r}: its sampler yielded no point")
    results = []
    for case, lo, point in zip(cases, worst, worst_point):
        margin = fraction_from_raw(lo)
        results.append(InequalityResult(case.name, count, margin, point, margin > 0))
    return results


def share_ranges(names: Sequence[str], workers: int) -> List[Tuple[int, int]]:
    """[start, stop) ranges cutting the names' domain of total points into
    one share per worker at the positions total s // workers, or one point
    a share if it has fewer points than workers, so that none is empty."""
    _, grid, rand = _lookup(names[0]).domain
    total = grid + rand
    parts = max(1, min(workers, total))
    return [(total * s // parts, total * (s + 1) // parts) for s in range(parts)]


def merge_shares(shares: Sequence[List[InequalityResult]]) -> List[InequalityResult]:
    """One domain's results from run_domain over its shares in draw order:
    each case's points summed, and its least worst margin at the point of
    the first share that reports it, the whole sweep's (run_domain)."""
    return [
        replace(min(results, key=lambda result: result.worst_margin),
                points=sum(result.points for result in results))
        for results in zip(*shares)
    ]


def run_case(
    name: str, prec: int = DEFAULT_PRECISION, seed: int = DEFAULT_SEED
) -> InequalityResult:
    """Sweep the named case over its registered grid and random points and
    report its least lower end rounded down to prec bits: run_domain over
    the one name."""
    return run_domain([name], prec=prec, seed=seed)[0]

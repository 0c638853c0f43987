"""Worst-margin laboratory for the scalar inequalities behind the error radii.

Every closed-form bound used while assembling the interval estimates reduces
to a claim of the shape "margin expression is positive on a stated domain".
Each case below packages one such claim: a margin function evaluated as the
raw (lo, hi) ends of a directed-rounding enclosure, together with a sampler
for the domain.  A run sweeps a deterministic grid plus seeded random
points and reports the smallest lower endpoint seen, so a passing run
exhibits a strictly positive worst margin over the whole sample.

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
evaluates each of its cases at each point, and keeps each case's worst lower
endpoint, ties going to the first point.  run_case is that sweep over one
name, with the same points and result as the name's row of its domain.

Because the cases of a domain are evaluated one after the other at each
point, the terms they share are computed once per point, by small memos
that keep the last point or two: x and sqrt x, h with its decay factor
(rademacher._h_ends, which h_error also wraps), the correction sum
sqrt3/(sqrt2 pi sqrt x) + h, shifted_terms(n) and the J-brackets, and
sqrt(1 - x).  Each is keyed by the point's integers and prec: the numerator
and denominator of x = a/b, or n and J, never a Fraction, whose hash takes a
modular inverse.  collapse-056's terms in n alone, 4 sqrt6 N sqrt N and
1/(25 N), are built once per n, and its terms in J alone, pi J^3 and
(2/5) pi J^2, once per J, in a memo of the last eight J.

Every margin but collapse-131 is raw: an expression in the enclosure
module's _*_ends helpers on (lo, hi) pairs.  Fourteen of them make the libmp
calls, on the same operands and with the same roundings, of the Enclosure
expression they replace, so their endpoints are libmp's, that expression's
bit for bit (tests/test_inequalities.py keeps each expression as a
reference and compares the two).  collapse-131, one point per run, stays an
Enclosure expression (see its comment) and returns that expression's ends.
The other five read fixed-point kernels of the special module, so their
endpoints are outward by proof and only meet their expressions':
bessel-tail-sum on special._bessel_fixed (below); tail-envelope-15,
correction-sum-099 and collapse-1350, which take h and its decay factor from
rademacher._h_ends; and shifted-envelope-11 (below), the last four on
special._decay_fixed, whose proof is in special's docstring.  The margins
read constants(prec) directly; the registry's own constants are built once
per precision in _raw_constants, by the calls the Enclosure expressions made
at each point.  An int operand is exact only when it fits in prec bits, and
otherwise rounds outward through ratio_pair, as Enclosure._coerce reads it
(_int_ends): J^3 exceeds 2^16 at 16 bits.  Exact rational parts, and the
product error bound of the collapse cases with its |b| and J/N, are computed
on unreduced integers, and are rounded once by ratio_pair, which rounds the
value p/q whatever the common factors of p and q.  The interval samplers
likewise build each point as one Fraction.

Each helper checks the order of the pair it returns, once, as Enclosure
arithmetic does; no margin checks one itself.

bessel-tail-sum sums in fixed point.  For x = a/b in [20, 100], _tail_sum
adds the kernel special._bessel_fixed at y' = floor(a 2^w / (b k)) 2^-w,
2 <= k <= TAIL_TERMS, into one integer S, with w = prec + 16 +
max(g(x/2), g(x/TAIL_TERMS)), g the kernel's _bessel_guard_bits, below 2^16
up to prec 4096 (g <= 31 on [1/50, 50]).
By special's relative bound at y0 = x/TAIL_TERMS and y1 = x/2, each term is
within delta I(x/k) 2^w of I(x/k) 2^w, delta = 2^-(prec+12) + 2^-(prec+24).
So the exact sum T has |S - T 2^w| < delta T 2^w < 2^-(prec+11) S, below
E = (S >> (prec + 10)) + TAIL_TERMS, and T lies strictly inside
[S - E, S + E] 2^-w; the margin is the right-hand side's enclosure minus
that interval, rounded outward.  Only the exp_fixed lemma inside Delta_w is
tested (test_exp_fixed_within_stated_units, to 4150 bits) and not proved;
E's factor 2 and its TAIL_TERMS units are room beyond the proof.

shifted-envelope-11 bounds x d(Y), d(Y) = sqrt(Y) e^{-(pi/2) sqrt(Y/2)} and
Y = x - sqrt(x)/2, for x = a/b in [335/24, 10^4], at w = prec + DECAY_GUARD:
* _shifted_floor gives Yw with Y 2^w - 2 < Yw <= Y 2^w, so Y' = Yw 2^-w lies
  within 2^(1-w) below Y, and Y' > 12;
* the kernel at Y' gives (D, E, z) with d(Y') within E 2^-z of D 2^-z;
* d decreases for Y >= 1, where pi sqrt(Y) > 2 sqrt 2 (which
  sqrt-exp-decreasing certifies), so d(Y) <= d(Y') <= (D + E) 2^-z;
* there |(ln d)'| = b2/(2 sqrt Y) - 1/(2Y) < 0.56, so
  d(Y) >= d(Y') (1 - 1.12 2^-w) >= (D - E - floor(D 2^(1-w)) - 1) 2^-z.
So the margin 11/10 - x d(Y) lies between (11 b 2^z - 10 a (D + E)) and
(11 b 2^z - 10 a (D - E - floor(D 2^(1-w)) - 1)), over 10 b 2^z, each end
rounded once, outward, by ratio_pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from types import SimpleNamespace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from mpmath import libmp

from .enclosure import (
    DEFAULT_PRECISION,
    PRECISION_MEMO_MAXSIZE,
    Enclosure,
    _add_ends,
    _checked,
    _div_ends,
    _exact_ends,
    _exp_ends,
    _int_ends,
    _mul_ends,
    _neg_ends,
    _ratio_ends,
    _sqrt_ends,
    _sub_ends,
    constants,
    fraction_from_raw,
    ratio_pair,
    scaled_ends,
)
from .errors import PartboundsError, PreconditionError
from .estimates import (
    FJN_RADIUS_A,
    FJN_RADIUS_B,
    RATIO_RADIUS_1,
    RATIO_RADIUS_2,
    _j_bracket_ends,
    fjn_j_top,
    shifted_terms,
)
from .exact import shifted_index
from .rademacher import _h_ends
from .special import DECAY_GUARD, _bessel_fixed, _bessel_guard_bits, _decay_fixed

Point = Tuple
Ends = Tuple  # a checked raw (lo, hi) pair
MarginFn = Callable[[Point, int], Ends]
Sampler = Callable[[int, int, random.Random], Iterable[Point]]

GRID_POINTS = 10_000
RANDOM_POINTS = 1_000
DEFAULT_SEED = 8191

# Least shifted index in the licensed range, 14 - 1/24.
_CORNER = shifted_index(14)
# Truncation point for unbounded domains.
_CAP = Fraction(10_000)
# Relative pull-in applied to both domain endpoints.
_EDGE = Fraction(1, 10**9)

# One entry: a pair point's four cases read one n in turn, and the pair grid
# visits each n with up to three j in a row, while a full memo of the 4031
# indices the collapse cases visit, at 128 bits, would take the pair domain's
# peak RSS from 20 MB to 32 MB.
_terms = lru_cache(maxsize=1)(shifted_terms.__wrapped__)

# The radii of the two factors collapse-271 combines into 2.71/N, certified
# by collapse-056 and collapse-131.
_J_FACTOR_RADIUS = Fraction(14, 25)
_SQRT_FACTOR_RADIUS = Fraction(131, 100)

# bessel-tail-sum's last k: its partial sum bounds every shorter one, as the
# terms are positive, and x / TAIL_TERMS, its least argument, sets the
# kernel's guard bits (module docstring).
TAIL_TERMS = 1000


def _min_lo(a: Optional[Ends], b: Ends) -> Ends:
    if a is None or libmp.mpf_lt(b[0], a[0]):
        return b
    return a


def _interval_sampler(lo: Fraction, hi: Fraction) -> Sampler:
    lo = Fraction(lo)
    hi = Fraction(hi)
    span = hi - lo

    def sample(grid: int, rand: int, rng: random.Random) -> Iterable[Point]:
        a = lo + span * _EDGE
        inner = hi - span * _EDGE - a
        # a + i inner/(grid - 1) and a + inner r/2^53, each built as one
        # Fraction over the common denominator of a and inner
        den = lcm(a.denominator, inner.denominator)
        start = a.numerator * (den // a.denominator)
        width = inner.numerator * (den // inner.denominator)
        steps = grid - 1
        for i in range(grid):
            yield (Fraction(start * steps + width * i, den * steps),)
        for _ in range(rand):
            yield (Fraction((start << 53) + width * rng.getrandbits(53), den << 53),)

    return sample


def _pair_sampler(n_lo: int, n_hi: int) -> Sampler:
    """Admissible integer pairs (n, j) with 16 j^2 < n.

    The grid walks n upward taking the smallest, middle, and largest
    admissible j; random points draw n and j uniformly from the same set.
    """

    def sample(grid: int, rand: int, rng: random.Random) -> Iterable[Point]:
        count = 0
        n = n_lo
        while count < grid and n <= n_hi:
            jm = fjn_j_top(n)
            if jm >= 1:
                for j in sorted({1, max(1, jm // 2), jm}):
                    if count >= grid:
                        break
                    yield (n, j)
                    count += 1
            n += 1
        for _ in range(rand):
            n = rng.randint(n_lo, n_hi)
            jm = fjn_j_top(n)
            if jm >= 1:
                yield (n, rng.randint(1, jm))

    return sample


def _point_sampler() -> Sampler:
    def sample(grid: int, rand: int, rng: random.Random) -> Iterable[Point]:
        yield ()

    return sample


# the samplers that more than one case shares, so that they share a domain
_SMALL = _interval_sampler(Fraction(0), Fraction(1, 5))
_FROM_ONE = _interval_sampler(Fraction(1), _CAP)
_FROM_CORNER = _interval_sampler(_CORNER, _CAP)
_PAIRS = _pair_sampler(17, 10_000)


@lru_cache(maxsize=PRECISION_MEMO_MAXSIZE)
def _raw_constants(prec: int) -> SimpleNamespace:
    """The registry's own constants at prec bits, derived from constants(prec).

    Each is built by the calls its Enclosure expression made at every point:
    an exact Fraction by from_exact's ratio_pair, an int by _int_ends, and
    sqrt2 pi, pi/(40 sqrt6), pi^2/24, 4 sqrt6, (2/5) pi and 2 sqrt2 as
    sqrt2 * pi, pi / (40 * sqrt6), pi * pi / 24, 4 * sqrt6, Fraction(2, 5) * pi
    and 2 * sqrt2, for the Enclosures of constants(prec).
    """
    c = constants(prec)
    pi, sqrt6 = c.pi, c.sqrt6
    two, two_fifths = _int_ends(2, prec), _exact_ends(Fraction(2, 5), prec)
    return SimpleNamespace(
        one=_int_ends(1, prec),
        two=two,
        fifteen=_int_ends(15, prec),
        hundred=_int_ends(100, prec),
        quarter=_exact_ends(Fraction(1, 4), prec),
        fifth=_exact_ends(Fraction(1, 5), prec),
        tenth=_exact_ends(Fraction(1, 10), prec),
        two_fifths=two_fifths,
        ninety_nine_hundredths=_exact_ends(Fraction(99, 100), prec),
        j_factor_radius=_exact_ends(_J_FACTOR_RADIUS, prec),
        ratio_radius_2=_exact_ends(RATIO_RADIUS_2, prec),
        sqrt2_pi=_mul_ends(c.sqrt2, pi, prec),
        two_sqrt2=_mul_ends(c.sqrt2, two, prec),
        pi_over_40_sqrt6=_div_ends(pi, _mul_ends(sqrt6, _int_ends(40, prec), prec), prec),
        pi_squared_over_24=_div_ends(_mul_ends(pi, pi, prec), _int_ends(24, prec), prec),
        four_sqrt6=_mul_ends(sqrt6, _int_ends(4, prec), prec),
        two_fifths_pi=_mul_ends(pi, two_fifths, prec),
    )


# -- per-point terms that the cases of one domain share -------------------

@lru_cache(maxsize=1)
def _root_ends(a: int, b: int, prec: int):
    # x = a/b and sqrt x, read in turn by four cases of [335/24, 10^4]
    xe = _ratio_ends(a, b, prec)
    return xe, _sqrt_ends(xe, prec)


@lru_cache(maxsize=1)
def _correction_ends(a: int, b: int, prec: int):
    # h(x) and the correction sum sqrt3/(sqrt2 pi sqrt x) + h(x) at x = a/b,
    # the calls of c.sqrt3 / (c.sqrt2 * c.pi * sqrt(x)) + h_error(x)
    h = _h_ends(a, b, prec)[0]
    q = _mul_ends(_raw_constants(prec).sqrt2_pi, _root_ends(a, b, prec)[1], prec)
    return h, _add_ends(_div_ends(constants(prec).sqrt3, q, prec), h, prec)


@lru_cache(maxsize=1)
def _rest_root_ends(a: int, b: int, prec: int):
    # sqrt(1 - x), Enclosure.from_exact(1 - x).sqrt() for x = a/b
    return _sqrt_ends(_ratio_ends(b - a, b, prec), prec)


@lru_cache(maxsize=2)
def _bracket_ends(n: int, big_j: int, prec: int):
    # the J-bracket at N = n - 1/24, which a pair point reads at J = j and 2j
    return _j_bracket_ends(_terms(n, prec), 24 * n - 1, big_j, prec)


# -- margins ---------------------------------------------------------------

def _margin_geometric(point: Point, prec: int) -> Ends:
    # 1/(1-z) - 1 - z = z^2/(1-z) for real |z| < 1; check both signs of z.
    # With z = s/b, 100 z^2 - z^2/(1-z) = s^2 (100 (b - s) - b)/(b^2 (b - s)).
    (u,) = point
    a, b = u.numerator, u.denominator
    worst = None
    for s in (a, -a):
        worst = _min_lo(worst, _ratio_ends(a * a * (100 * (b - s) - b), b * b * (b - s), prec))
    return worst


def _margin_sqrt_expansion(point: Point, prec: int) -> Ends:
    # x^3/10 - ((1 - x/2 - x^2/8) - sqrt(1-x)); sqrt(1-x) sits below
    # 1 - x/2 - x^2/8, so the deviation needs no abs.  With x = a/b the
    # exact parts are (8b^2 - 4ab - a^2)/(8b^2) and a^3/(10 b^3).
    (x,) = point
    a, b = x.numerator, x.denominator
    bb = b * b
    deviation = _ratio_ends(8 * bb - 4 * a * b - a * a, 8 * bb, prec)
    deviation = _sub_ends(deviation, _rest_root_ends(a, b, prec), prec)
    return _sub_ends(_ratio_ends(a**3, 10 * bb * b, prec), deviation, prec)


def _margin_inverse_sqrt(point: Point, prec: int) -> Ends:
    # 1 + (3/5) x - 1/sqrt(1-x), its exact part (5b + 3a)/(5b)
    (x,) = point
    a, b = x.numerator, x.denominator
    inverse = _div_ends(_raw_constants(prec).one, _rest_root_ends(a, b, prec), prec)
    return _sub_ends(_ratio_ends(5 * b + 3 * a, 5 * b, prec), inverse, prec)


def _margin_reciprocal(point: Point, prec: int) -> Ends:
    # (5/4) x^2 - x^2/(1-x) = a^2 (b - 5a)/(4 b^2 (b - a)) for x = a/b
    (x,) = point
    a, b = x.numerator, x.denominator
    return _ratio_ends(a * a * (b - 5 * a), 4 * b * b * (b - a), prec)


def _margin_exp_convexity(point: Point, prec: int) -> Ends:
    # x^2/2 + 1 - x - e^{-x}, its exact part (a^2 + 2b^2 - 2ab)/(2b^2)
    (x,) = point
    a, b = x.numerator, x.denominator
    tail = _exp_ends(_ratio_ends(-a, b, prec), prec)
    return _sub_ends(_ratio_ends(a * a + 2 * b * b - 2 * a * b, 2 * b * b, prec), tail, prec)


def _margin_tail_envelope(point: Point, prec: int) -> Ends:
    # 15 sqrt(x) e^{-(pi/2) sqrt(x/2)} - h(x): h's decay factor and h, both
    # from the decay kernel
    (x,) = point
    h, decay = _h_ends(x.numerator, x.denominator, prec)
    return _sub_ends(_mul_ends(decay, _raw_constants(prec).fifteen, prec), h, prec)


def _margin_envelope_decreasing(point: Point, prec: int) -> Ends:
    # d/dx log(sqrt(x) exp(-(pi/2) sqrt(x/2))) < 0 iff pi sqrt(x) > 2 sqrt(2).
    (x,) = point
    value = _mul_ends(constants(prec).pi, _sqrt_ends(_exact_ends(x, prec), prec), prec)
    return _sub_ends(value, _raw_constants(prec).two_sqrt2, prec)


def _shifted_floor(a: int, b: int, w: int) -> int:
    # Y 2^w rounded down by under 2 units, for Y = x - sqrt(x)/2 and x = a/b:
    # r = isqrt(floor(a 4^(w-1) / b)) has r <= sqrt(x) 2^(w-1) < r + 1
    return (a << w) // b - isqrt((a << (2 * w - 2)) // b) - 1


def _margin_shifted_envelope(point: Point, prec: int) -> Ends:
    # 11/10 - x d(Y), d(Y) = sqrt(Y) e^{-(pi/2) sqrt(Y/2)}, Y = x - sqrt(x)/2:
    # the decay kernel at Y rounded down, each end one rounding of a ratio
    # of integers (module docstring)
    (x,) = point
    a, b = x.numerator, x.denominator
    w = prec + DECAY_GUARD
    _, d, e, z = _decay_fixed(_shifted_floor(a, b, w), 1 << w, w, first=False)
    top, den = 11 * b << z, 10 * b << z
    return _checked(ratio_pair(top - 10 * a * (d + e), den, prec)[0],
                    ratio_pair(top - 10 * a * (d - e - (d >> (w - 1)) - 1), den, prec)[1])


def _margin_concavity(point: Point, prec: int) -> Ends:
    # 1 - x/2 - sqrt(1-x), its exact part (2b - a)/(2b)
    (x,) = point
    a, b = x.numerator, x.denominator
    return _sub_ends(_ratio_ends(2 * b - a, 2 * b, prec), _rest_root_ends(a, b, prec), prec)


def _margin_correction_sum(point: Point, prec: int) -> Ends:
    (x,) = point
    s = _correction_ends(x.numerator, x.denominator, prec)[1]
    return _sub_ends(_raw_constants(prec).ninety_nine_hundredths, s, prec)


def _margin_exp_argument(point: Point, prec: int) -> Ends:
    # 1/10 - (pi/(40 sqrt6) + (pi^2/24) inner^2), inner = 1/(10 sqrt x) + 1/4
    (x,) = point
    k = _raw_constants(prec)
    root = _root_ends(x.numerator, x.denominator, prec)[1]
    inner = _div_ends(k.tenth, root, prec)
    inner = _add_ends(inner, k.quarter, prec)
    value = _mul_ends(_mul_ends(k.pi_squared_over_24, inner, prec), inner, prec)
    value = _add_ends(k.pi_over_40_sqrt6, value, prec)
    return _sub_ends(k.tenth, value, prec)


def _margin_shift_ratio(point: Point, prec: int) -> Ends:
    # 1/5 - 1/(2 sqrt x)
    (x,) = point
    k = _raw_constants(prec)
    root = _root_ends(x.numerator, x.denominator, prec)[1]
    half = _div_ends(k.one, _mul_ends(root, k.two, prec), prec)
    return _sub_ends(k.fifth, half, prec)


@lru_cache(maxsize=1)
def _collapse_n_terms(n: int, prec: int):
    # collapse-056's terms in n alone: den = 4 sqrt6 (N sqrt N) and 1/(25 N),
    # N = d/24
    t = _terms(n, prec)
    den = _mul_ends(_raw_constants(prec).four_sqrt6,
                    _mul_ends(_sqrt_ends(t.Ne, prec), t.Ne, prec), prec)
    return den, _ratio_ends(24, 25 * (24 * n - 1), prec)


@lru_cache(maxsize=8)
def _collapse_j_terms(big_j: int, prec: int):
    # collapse-056's terms in J alone: pi J^3 and (2/5) pi J^2; a pair point
    # reads J = j and 2j, and the pair grid repeats J = 1, 2 at every n
    return (_mul_ends(constants(prec).pi, _int_ends(big_j**3, prec), prec),
            _mul_ends(_raw_constants(prec).two_fifths_pi, _int_ends(big_j**2, prec), prec))


def _margin_collapse_056(point: Point, prec: int) -> Ends:
    # 0.56 - (0.4 + pi J^3/den + 0.4 pi J^2/den + 0.1 + 0.1 J/N + 0.04/N),
    # den = 4 sqrt6 (N sqrt N), summed left to right, the 1/N terms exact
    n, j = point
    k = _raw_constants(prec)
    d = 24 * n - 1  # N = d/24
    den, last = _collapse_n_terms(n, prec)
    worst = None
    # The bound is used with both the plain and the doubled shift; the
    # doubled one is the tight branch but both must clear 0.56.
    for big_j in (j, 2 * j):
        cube, square = _collapse_j_terms(big_j, prec)
        err = _add_ends(_div_ends(cube, den, prec), k.two_fifths, prec)
        err = _add_ends(err, _div_ends(square, den, prec), prec)
        err = _add_ends(err, k.tenth, prec)
        err = _add_ends(err, _ratio_ends(24 * big_j, 10 * d, prec), prec)
        err = _add_ends(err, last, prec)
        worst = _min_lo(worst, _sub_ends(k.j_factor_radius, err, prec))
    return worst


def _margin_collapse_131(point: Point, prec: int) -> Ends:
    # 1.31 - (0.3 sqrt3/sqrt(2 pi) + 1.1), the one margin left in Enclosure
    # arithmetic: it runs at one point, and the benchmark's smoke test
    # (perfbench/test_smoke.py) reads its Enclosure calls in a fork-pool
    # worker as the sign that the workers' counters reach the parent.
    c = constants(prec)
    sqrt3, sqrt_two_pi = Enclosure(*c.sqrt3, prec), Enclosure(*c.sqrt_two_pi, prec)
    margin = _SQRT_FACTOR_RADIUS - (Fraction(3, 10) * sqrt3 / sqrt_two_pi + Fraction(11, 10))
    return margin.lo, margin.hi


def _magnitude(b):
    # (M, k) with |t| <= M/2^k for every t in the ends b: the larger of -lo, hi
    L, H, k = scaled_ends(*b)
    return max(-L, H), k


def _product_margin(
    radius: Fraction, scale: int, d: int, b1, r1: Fraction, b2, r2: Fraction, prec: int
):
    """Ends of radius - scale N err, N = d/24, for the exact bound

        err = a1 a2 + (r1/N)(1 + a2 + r2/N) + (r2/N)(1 + a1)

    on |(1 + b1 + E1)(1 + b2 + E2) - (1 + b1 + b2)| with |E1| <= r1/N,
    |E2| <= r2/N, where a1 and a2 bound |b1| and |b2| by the larger
    magnitude of their ends.  Computed on unreduced integers over the common
    denominator 2^{2k} D1 D2, with a = A/2^k and r/N = P/D, and rounded once.
    """
    A1, k1 = _magnitude(b1)
    A2, k2 = _magnitude(b2)
    k = max(k1, k2)
    A1 <<= k - k1
    A2 <<= k - k2
    K = 1 << k
    P1, D1 = 24 * r1.numerator, r1.denominator * d
    P2, D2 = 24 * r2.numerator, r2.denominator * d
    E = A1 * A2 * D1 * D2 + (P1 * ((K + A2) * D2 + P2 * K) + P2 * (K + A1) * D1) * K
    Q = 24 * K * K * D1 * D2
    return _ratio_ends(
        radius.numerator * Q - radius.denominator * scale * d * E, radius.denominator * Q, prec
    )


def _margin_collapse_271(point: Point, prec: int) -> Ends:
    # b1 the J-bracket, b2 = -sqrt3/(sqrt(2 pi) sqrt N), radii 0.56 and 1.31
    n, j = point
    t = _terms(n, prec)
    b2 = _neg_ends(t.sqrt3_over_sqrt_two_pi)
    worst = None
    for big_j in (j, 2 * j):
        margin = _product_margin(
            RATIO_RADIUS_1, 1, 24 * n - 1, _bracket_ends(n, big_j, prec), _J_FACTOR_RADIUS,
            b2, _SQRT_FACTOR_RADIUS, prec,
        )
        worst = _min_lo(worst, margin)
    return worst


def _bracket_margin(radius: Fraction, scale: int, n: int, big_j: int, prec: int) -> Ends:
    # radius - scale N err for (1 + b1 +- 1350/N)(1 + b2 +- 2.71/N), with
    # b1 = sqrt3/(sqrt2 pi sqrt N) and b2 the J-bracket less
    # sqrt3/(sqrt(2 pi) sqrt N)
    t = _terms(n, prec)
    b2 = _sub_ends(_bracket_ends(n, big_j, prec), t.sqrt3_over_sqrt_two_pi, prec)
    return _product_margin(
        radius, scale, 24 * n - 1, t.sqrt3_over_pi_sqrt2, RATIO_RADIUS_2,
        b2, RATIO_RADIUS_1, prec,
    )


def _margin_collapse_1350(point: Point, prec: int) -> Ends:
    # 1350 - x (h + 100 s s), s the correction sum
    (x,) = point
    a, b = x.numerator, x.denominator
    k = _raw_constants(prec)
    h, s = _correction_ends(a, b, prec)
    value = _mul_ends(_mul_ends(s, k.hundred, prec), s, prec)
    value = _mul_ends(_add_ends(h, value, prec), _root_ends(a, b, prec)[0], prec)
    return _sub_ends(k.ratio_radius_2, value, prec)


def _margin_collapse_2075(point: Point, prec: int) -> Ends:
    n, j = point
    return _bracket_margin(FJN_RADIUS_A, 1, n, 2 * j, prec)


def _margin_collapse_3926(point: Point, prec: int) -> Ends:
    n, j = point
    return _bracket_margin(FJN_RADIUS_B, 2, n, j, prec)


def _tail_sum(x: Fraction, prec: int) -> Tuple[int, int, int]:
    # (S, E, w): the sum of I_3/2(x/k) over 2 <= k <= TAIL_TERMS lies
    # strictly inside [S - E, S + E] 2^-w (module docstring)
    a, b = x.numerator, x.denominator
    w = prec + 16 + max(_bessel_guard_bits(x / 2), _bessel_guard_bits(x / TAIL_TERMS))
    xw = a << w
    total = sum(_bessel_fixed(xw // (b * k), w) for k in range(2, TAIL_TERMS + 1))
    return total, (total >> (prec + 10)) + TAIL_TERMS, w


def _margin_bessel_tail(point: Point, prec: int) -> Ends:
    (x,) = point
    total, error, w = _tail_sum(x, prec)
    s = (_ratio_ends(total - error, 1 << w, prec)[0],
         _ratio_ends(total + error, 1 << w, prec)[1])
    rhs = _sqrt_ends(_div_ends(_exact_ends(x, prec), constants(prec).pi, prec), prec)
    rhs = _mul_ends(rhs, _int_ends(4, prec), prec)
    half = _ratio_ends(x.numerator, 2 * x.denominator, prec)  # x/2
    rhs = _mul_ends(rhs, _exp_ends(half, prec), prec)
    return _sub_ends(rhs, s, prec)


def _margin_bessel_simplify(point: Point, prec: int) -> Ends:
    # 1/x - x/2 changes sign at sqrt(2), so clear both orientations: over
    # 2ab^2, x^2/2 -+ (1/x - x/2) is a^3 -+ (2b^3 - a^2 b) for x = a/b.
    (x,) = point
    a, b = x.numerator, x.denominator
    return _ratio_ends(a**3 - abs(2 * b**3 - a * a * b), 2 * a * b * b, prec)


@dataclass(frozen=True)
class InequalityCase:
    """One scalar inequality with its domain sampler and margin function."""

    name: str
    description: str
    margin: MarginFn
    sampler: Sampler
    grid_points: int = GRID_POINTS
    random_points: int = RANDOM_POINTS
    # a point's serial CPU in its domain's sweep, in margin terms of 1 us at
    # 128 bits (measured; see CASES)
    terms: int = 1

    @property
    def cost(self) -> int:
        """Relative running time: sampled points times a point's terms, about
        the case's serial CPU in microseconds."""
        return (self.grid_points + self.random_points) * self.terms

    @property
    def domain(self) -> Tuple[Sampler, int, int]:
        """The sampler object and budget: cases with equal domains sample the
        same points, and run_domain draws them once for all of them."""
        return self.sampler, self.grid_points, self.random_points


@dataclass(frozen=True)
class InequalityResult:
    """Worst margin observed for one case over one sampling run."""

    name: str
    points: int
    worst_margin: Fraction
    worst_point: Point
    passed: bool


# Each case's terms is its serial CPU per point at 128 bits, in us, measured
# in its domain's sweep (the first case to read a shared memo pays for it),
# three runs on a 2-vCPU VM.  So a domain's summed cost ranks it by measured
# CPU, which verify dispatches longest first: the pairs 1.15 s (104 us a
# point), bessel-tail-sum 0.83 s (6.4 ms a point), [335/24, 10^4] 0.83 s
# (75 us), (0, 1/5) 0.28 s (25 us), exp-convexity-half and tail-envelope-15
# 0.20 s each (18 us), [1, 10^4] 0.14 s (12 us), geometric-series-100 0.07 s.
CASES: Tuple[InequalityCase, ...] = (
    InequalityCase(
        "geometric-series-100",
        "|1/(1-z) - 1 - z| <= 100 z^2 for 0 < |z| < 0.99",
        _margin_geometric,
        _interval_sampler(Fraction(0), Fraction(99, 100)),
        terms=6,
    ),
    InequalityCase(
        "sqrt-expansion-01",
        "|sqrt(1-x) - 1 + x/2 + x^2/8| <= 0.1 x^3 on (0, 0.2)",
        _margin_sqrt_expansion,
        _SMALL,
        terms=12,
    ),
    InequalityCase(
        "inverse-sqrt-06",
        "1/sqrt(1-x) - 1 <= 0.6 x on (0, 0.2)",
        _margin_inverse_sqrt,
        _SMALL,
        terms=6,
    ),
    InequalityCase(
        "reciprocal-125",
        "|1/(1-x) - 1 - x| <= 1.25 x^2 on (0, 0.2)",
        _margin_reciprocal,
        _SMALL,
        terms=3,
    ),
    InequalityCase(
        "exp-convexity-half",
        "exp(-x) - 1 + x <= x^2/2 for x > 0",
        _margin_exp_convexity,
        _interval_sampler(Fraction(0), _CAP),
        terms=18,
    ),
    InequalityCase(
        "tail-envelope-15",
        "h_error(x) <= 15 sqrt(x) exp(-(pi/2) sqrt(x/2)) for x >= 12",
        _margin_tail_envelope,
        _interval_sampler(Fraction(12), _CAP),
        terms=18,
    ),
    InequalityCase(
        "sqrt-exp-decreasing",
        "pi sqrt(x) > 2 sqrt(2) for x >= 1, so the decay envelope decreases",
        _margin_envelope_decreasing,
        _FROM_ONE,
        terms=9,
    ),
    InequalityCase(
        "shifted-envelope-11",
        "N sqrt(Y) exp(-(pi/2) sqrt(Y/2)) <= 1.1 with Y = N - sqrt(N)/2",
        _margin_shifted_envelope,
        _FROM_CORNER,
        terms=17,
    ),
    InequalityCase(
        "concavity-sqrt-positive",
        "1 - x/2 - sqrt(1-x) > 0 on (0, 0.2)",
        _margin_concavity,
        _SMALL,
        terms=4,
    ),
    InequalityCase(
        "correction-sum-099",
        "sqrt(3)/(sqrt(2) pi sqrt(N)) + h_error(N) < 0.99 for N >= 335/24",
        _margin_correction_sum,
        _FROM_CORNER,
        terms=32,
    ),
    InequalityCase(
        "exp-argument-01",
        "pi/(40 sqrt(6)) + (pi^2/24) (1/(10 sqrt(N)) + 1/4)^2 <= 0.1",
        _margin_exp_argument,
        _FROM_CORNER,
        terms=11,
    ),
    InequalityCase(
        "shift-ratio-02",
        "1/(2 sqrt(N)) < 1/5 for N >= 335/24, so shifts stay in the x < 0.2 range",
        _margin_shift_ratio,
        _FROM_CORNER,
        terms=6,
    ),
    InequalityCase(
        "collapse-056",
        "0.4 + pi J^3/(4 sqrt6 N^(3/2)) + 0.4 pi J^2/(4 sqrt6 N^(3/2))"
        " + 0.1 + 0.1 J/N + 0.04/N <= 0.56 for J in {j, 2j} over admissible pairs",
        _margin_collapse_056,
        _PAIRS,
        terms=50,
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
        terms=35,
    ),
    InequalityCase(
        "collapse-1350",
        "N (h_error(N) + 100 (sqrt(3)/(sqrt(2) pi sqrt(N)) + h_error(N))^2) <= 1350",
        _margin_collapse_1350,
        _FROM_CORNER,
        terms=9,
    ),
    InequalityCase(
        "collapse-2075",
        "(1 + b1 +- 1350/N)(1 + b2 +- 2.71/N) stays within 2075/N of 1 + b1 + b2",
        _margin_collapse_2075,
        _PAIRS,
        terms=10,
    ),
    InequalityCase(
        "collapse-3926",
        "2 (1 + b1 +- 1350/N)(1 + b2 +- 2.71/N) stays within 3926/N of the center",
        _margin_collapse_3926,
        _PAIRS,
        terms=9,
    ),
    InequalityCase(
        "bessel-tail-sum",
        "sum over 2 <= k <= 1000 of I_3/2(X/k) <= 4 sqrt(X/pi) exp(X/2) on [20, 100]",
        _margin_bessel_tail,
        _interval_sampler(Fraction(20), Fraction(100)),
        grid_points=100,
        random_points=30,
        terms=6400,
    ),
    InequalityCase(
        "bessel-simplify-half",
        "|1/x - x/2| <= x^2/2 for x >= 1",
        _margin_bessel_simplify,
        _FROM_ONE,
        terms=3,
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
    names: Sequence[str], prec: int = DEFAULT_PRECISION, seed: int = DEFAULT_SEED
) -> List[InequalityResult]:
    """Sweep the named cases, which share one domain, over its grid and
    random points, and report each one's worst margin enclosure lower
    endpoint, in the order of the names.

    The points are drawn once, and every case is evaluated at each point
    before the next is drawn, so the per-point memos serve them all.
    """
    cases = [_lookup(name) for name in names]
    sampler, grid, rand = cases[0].domain
    if any(case.domain != cases[0].domain for case in cases):
        raise PreconditionError(f"inequality cases {', '.join(names)} do not share one domain")
    # raw lower endpoints compare exactly; only the worst become Fractions
    worst = [None] * len(cases)
    worst_point: List[Point] = [()] * len(cases)
    count = 0
    for point in sampler(grid, rand, random.Random(seed)):
        count += 1
        for i, case in enumerate(cases):
            lo = case.margin(point, prec)[0]
            if worst[i] is None or libmp.mpf_lt(lo, worst[i]):
                worst[i] = lo
                worst_point[i] = point
    if not count:
        raise PartboundsError(f"inequality case {names[0]!r}: its sampler yielded no point")
    results = []
    for case, lo, point in zip(cases, worst, worst_point):
        margin = fraction_from_raw(lo)
        results.append(InequalityResult(case.name, count, margin, point, margin > 0))
    return results


def run_case(
    name: str, prec: int = DEFAULT_PRECISION, seed: int = DEFAULT_SEED
) -> InequalityResult:
    """Sweep the named case over its registered grid and random points and
    report the worst margin enclosure lower endpoint: run_domain over the
    one name."""
    return run_domain([name], prec=prec, seed=seed)[0]

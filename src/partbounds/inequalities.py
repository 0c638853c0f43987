"""Worst-margin laboratory for the scalar inequalities behind the error radii.

Every closed-form bound used while assembling the interval estimates reduces
to a claim of the shape "margin expression is positive on a stated domain".
Each case below packages one such claim: a margin function evaluated as a
directed-rounding enclosure, together with a sampler for the domain.  The
driver sweeps a deterministic grid plus seeded random points and reports the
smallest lower endpoint seen, so a passing run exhibits a strictly positive
worst margin over the whole sample.

Sampling conventions:

* domains are sampled in their open interior; both ends are pulled inward by
  a relative offset of 1e-9 because several bounds degenerate to equality on
  the boundary,
* unbounded domains are truncated at 10^4,
* cases quantified over admissible integer shift pairs (n, j) sample those
  pairs directly instead of a continuum,
* margins that certify a bound of the form error <= c/N are normalised by N,
  so the reported quantity is c - N * error.

`bessel-tail-sum`, a thousand Bessel terms per point, runs in raw libmp: each
term makes the libmp calls, with the roundings, of its Enclosure expression,
through the enclosure module's _*_ends helpers that Enclosure itself uses, so
its endpoints are that expression's bit for bit
(`tests/test_inequalities.py::TestBesselTailKernel` compares the two).  Each
helper checks the order of the pair it returns, once, as Enclosure
arithmetic does; the kernel checks none itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Tuple

from mpmath import libmp

from .enclosure import (
    DEFAULT_PRECISION,
    Enclosure,
    _add_ends,
    _div_ends,
    _exp_ends,
    _mul_ends,
    _ratio_ends,
    _sqrt_ends,
    _wrap,
    constants,
    exp_enclosure,
    fraction_from_raw,
    sqrt_enclosure,
)
from .errors import PartboundsError, PreconditionError
from .estimates import (
    FJN_RADIUS_A,
    FJN_RADIUS_B,
    RATIO_RADIUS_1,
    RATIO_RADIUS_2,
    _j_bracket,
    fjn_j_top,
    shifted_terms,
)
from .exact import shifted_index
from .rademacher import h_error

Point = Tuple
MarginFn = Callable[[Point, int], Enclosure]
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

# One entry: the pair grid visits each n with up to three j in a row, while
# a full memo of the thousands of indices the collapse cases visit would add
# about 6 MB to a pool worker's 27 MB peak.
_terms = lru_cache(maxsize=1)(shifted_terms.__wrapped__)

# The radii of the two factors collapse-271 combines into 2.71/N, certified
# by collapse-056 and collapse-131.
_J_FACTOR_RADIUS = Fraction(14, 25)
_SQRT_FACTOR_RADIUS = Fraction(131, 100)

# The infinite Bessel tail is checked as a long partial sum; anything the
# partial sum proves is implied for every shorter truncation as well.
TAIL_TERMS = 1000


def abs_upper(e: Enclosure) -> Fraction:
    """Exact upper bound for |t| over all t in the enclosure."""
    return max(-e.lo_fraction, e.hi_fraction)


def _min_lo(a: Optional[Enclosure], b: Enclosure) -> Enclosure:
    if a is None or libmp.mpf_lt(b.lo, a.lo):
        return b
    return a


def _product_error(
    b1: Enclosure, r1: Fraction, b2: Enclosure, r2: Fraction
) -> Fraction:
    """Bound |(1+b1+E1)(1+b2+E2) - (1+b1+b2)| for |E1| <= r1, |E2| <= r2."""
    a1 = abs_upper(b1)
    a2 = abs_upper(b2)
    return a1 * a2 + r1 * (1 + a2 + r2) + r2 * (1 + a1)


def _interval_sampler(lo: Fraction, hi: Fraction) -> Sampler:
    lo = Fraction(lo)
    hi = Fraction(hi)
    span = hi - lo

    def sample(grid: int, rand: int, rng: random.Random) -> Iterable[Point]:
        a = lo + span * _EDGE
        b = hi - span * _EDGE
        inner = b - a
        step = inner / (grid - 1)
        for i in range(grid):
            yield (a + i * step,)
        for _ in range(rand):
            yield (a + inner * Fraction(rng.getrandbits(53), 1 << 53),)

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


def _margin_geometric(point: Point, prec: int) -> Enclosure:
    # 1/(1-z) - 1 - z = z^2/(1-z) for real |z| < 1; check both signs of z.
    (u,) = point
    worst = None
    for z in (u, -u):
        gap = 100 * z * z - z * z / (1 - z)
        worst = _min_lo(worst, Enclosure.from_exact(gap, prec))
    return worst


def _margin_sqrt_expansion(point: Point, prec: int) -> Enclosure:
    # sqrt(1-x) sits below 1 - x/2 - x^2/8, so the deviation needs no abs.
    (x,) = point
    deviation = (1 - x / 2 - x * x / 8) - sqrt_enclosure(1 - x, prec)
    return x**3 / 10 - deviation


def _margin_inverse_sqrt(point: Point, prec: int) -> Enclosure:
    (x,) = point
    return 1 + Fraction(3, 5) * x - 1 / sqrt_enclosure(1 - x, prec)


def _margin_reciprocal(point: Point, prec: int) -> Enclosure:
    (x,) = point
    return Enclosure.from_exact(Fraction(5, 4) * x * x - x * x / (1 - x), prec)


def _margin_exp_convexity(point: Point, prec: int) -> Enclosure:
    (x,) = point
    return x * x / 2 + 1 - x - exp_enclosure(-x, prec)


def _envelope(x: Fraction, prec: int) -> Enclosure:
    # sqrt(x) exp(-(pi/2) sqrt(x/2))
    c = constants(prec)
    decay = (-(c.pi / 2) * sqrt_enclosure(x / 2, prec)).exp()
    return sqrt_enclosure(x, prec) * decay


def _margin_tail_envelope(point: Point, prec: int) -> Enclosure:
    (x,) = point
    return 15 * _envelope(x, prec) - h_error(x, prec)


def _margin_envelope_decreasing(point: Point, prec: int) -> Enclosure:
    # d/dx log(sqrt(x) exp(-(pi/2) sqrt(x/2))) < 0 iff pi sqrt(x) > 2 sqrt(2).
    (x,) = point
    c = constants(prec)
    return c.pi * sqrt_enclosure(x, prec) - 2 * c.sqrt2


def _margin_shifted_envelope(point: Point, prec: int) -> Enclosure:
    (x,) = point
    y = x - sqrt_enclosure(x, prec) / 2
    c = constants(prec)
    decay = (-(c.pi / 2) * (y / 2).sqrt()).exp()
    return Fraction(11, 10) - x * y.sqrt() * decay


def _margin_concavity(point: Point, prec: int) -> Enclosure:
    (x,) = point
    return 1 - x / 2 - sqrt_enclosure(1 - x, prec)


def _correction_sum(x: Fraction, h: Enclosure, prec: int) -> Enclosure:
    # sqrt(3)/(sqrt(2) pi sqrt(x)) + h, with h = h_error(x)
    c = constants(prec)
    return c.sqrt3 / (c.sqrt2 * c.pi * sqrt_enclosure(x, prec)) + h


def _margin_correction_sum(point: Point, prec: int) -> Enclosure:
    (x,) = point
    return Fraction(99, 100) - _correction_sum(x, h_error(x, prec), prec)


def _margin_exp_argument(point: Point, prec: int) -> Enclosure:
    (x,) = point
    c = constants(prec)
    inner = Fraction(1, 10) / sqrt_enclosure(x, prec) + Fraction(1, 4)
    value = c.pi / (40 * c.sqrt6) + c.pi * c.pi / 24 * inner * inner
    return Fraction(1, 10) - value


def _margin_shift_ratio(point: Point, prec: int) -> Enclosure:
    (x,) = point
    return Fraction(1, 5) - 1 / (2 * sqrt_enclosure(x, prec))


def _margin_collapse_056(point: Point, prec: int) -> Enclosure:
    n, j = point
    c = constants(prec)
    nn = shifted_index(n)
    den = 4 * c.sqrt6 * (nn * sqrt_enclosure(nn, prec))
    worst = None
    # The bound is used with both the plain and the doubled shift; the
    # doubled one is the tight branch but both must clear 0.56.
    for big_j in (j, 2 * j):
        err_n = (
            Fraction(2, 5)
            + c.pi * big_j**3 / den
            + Fraction(2, 5) * c.pi * big_j**2 / den
            + Fraction(1, 10)
            + Fraction(big_j, 10) / nn
            + Fraction(1, 25) / nn
        )
        worst = _min_lo(worst, _J_FACTOR_RADIUS - err_n)
    return worst


def _margin_collapse_131(point: Point, prec: int) -> Enclosure:
    c = constants(prec)
    value = Fraction(3, 10) * c.sqrt3 / c.sqrt_two_pi + Fraction(11, 10)
    return _SQRT_FACTOR_RADIUS - value


def _margin_collapse_271(point: Point, prec: int) -> Enclosure:
    n, j = point
    t = _terms(n, prec)
    b2 = -t.sqrt3_over_sqrt_two_pi
    worst = None
    for big_j in (j, 2 * j):
        b1 = _j_bracket(t, big_j, prec)
        err = _product_error(
            b1, _J_FACTOR_RADIUS / t.N, b2, _SQRT_FACTOR_RADIUS / t.N
        )
        margin = Enclosure.from_exact(RATIO_RADIUS_1 - t.N * err, prec)
        worst = _min_lo(worst, margin)
    return worst


def _margin_collapse_1350(point: Point, prec: int) -> Enclosure:
    (x,) = point
    h = h_error(x, prec)
    s = _correction_sum(x, h, prec)
    return RATIO_RADIUS_2 - x * (h + 100 * s * s)


def _bracket_product_error(n: int, big_j: int, prec: int) -> Tuple[Fraction, Fraction]:
    """N and the error of (1 + b1 +- 1350/N)(1 + b2 +- 2.71/N), where b2 is
    the J-bracket less sqrt3/(sqrt(2 pi) sqrt N)."""
    t = _terms(n, prec)
    b2 = _j_bracket(t, big_j, prec) - t.sqrt3_over_sqrt_two_pi
    err = _product_error(
        t.sqrt3_over_pi_sqrt2, RATIO_RADIUS_2 / t.N, b2, RATIO_RADIUS_1 / t.N
    )
    return t.N, err


def _margin_collapse_2075(point: Point, prec: int) -> Enclosure:
    n, j = point
    N, err = _bracket_product_error(n, 2 * j, prec)
    return Enclosure.from_exact(FJN_RADIUS_A - N * err, prec)


def _margin_collapse_3926(point: Point, prec: int) -> Enclosure:
    n, j = point
    N, err = _bracket_product_error(n, j, prec)
    return Enclosure.from_exact(FJN_RADIUS_B - 2 * N * err, prec)


def _margin_bessel_tail(point: Point, prec: int) -> Enclosure:
    # Sums I_3/2(y) = [e^y (1 - 1/y) + e^-y (1 + 1/y)] / sqrt(2 pi y) at
    # y = x/k in raw libmp.  Each step makes the libmp calls, on the same
    # operands and with the same roundings, that this expression in
    # Enclosure arithmetic makes, and its helpers check the order of every
    # endpoint pair that was an Enclosure; 1 +- 1/y = (a +- b k)/a, x = a/b.
    (x,) = point
    c = constants(prec)
    a, b = x.numerator, x.denominator
    two_pi = 2 * c.pi
    two_pi = (two_pi.lo, two_pi.hi)
    one = (libmp.fone,) * 2
    s = (libmp.fzero,) * 2
    for k in range(2, TAIL_TERMS + 1):
        bk = b * k
        y = _ratio_ends(a, bk, prec)
        e = _exp_ends(y, prec)
        m = _mul_ends(e, _ratio_ends(a - bk, a, prec), prec)
        q = _mul_ends(_div_ends(one, e, prec), _ratio_ends(a + bk, a, prec), prec)
        w = _sqrt_ends(_mul_ends(two_pi, y, prec), prec)
        s = _add_ends(s, _div_ends(_add_ends(m, q, prec), w, prec), prec)
    rhs = 4 * (x / c.pi).sqrt() * exp_enclosure(x / 2, prec)
    return rhs - _wrap(s, prec)


def _margin_bessel_simplify(point: Point, prec: int) -> Enclosure:
    # 1/x - x/2 changes sign at sqrt(2), so clear both orientations.
    (x,) = point
    base = x * x / 2
    gap = min(base - (1 / x - x / 2), base - (x / 2 - 1 / x))
    return Enclosure.from_exact(gap, prec)


@dataclass(frozen=True)
class InequalityCase:
    """One scalar inequality with its domain sampler and margin function."""

    name: str
    description: str
    margin: MarginFn
    sampler: Sampler
    grid_points: int = GRID_POINTS
    random_points: int = RANDOM_POINTS
    terms: int = 1

    @property
    def cost(self) -> int:
        """Relative running time: sampled points times margin terms per point."""
        return (self.grid_points + self.random_points) * self.terms


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
        _interval_sampler(Fraction(0), Fraction(1, 5)),
    ),
    InequalityCase(
        "inverse-sqrt-06",
        "1/sqrt(1-x) - 1 <= 0.6 x on (0, 0.2)",
        _margin_inverse_sqrt,
        _interval_sampler(Fraction(0), Fraction(1, 5)),
    ),
    InequalityCase(
        "reciprocal-125",
        "|1/(1-x) - 1 - x| <= 1.25 x^2 on (0, 0.2)",
        _margin_reciprocal,
        _interval_sampler(Fraction(0), Fraction(1, 5)),
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
        _interval_sampler(Fraction(1), _CAP),
    ),
    InequalityCase(
        "shifted-envelope-11",
        "N sqrt(Y) exp(-(pi/2) sqrt(Y/2)) <= 1.1 with Y = N - sqrt(N)/2",
        _margin_shifted_envelope,
        _interval_sampler(_CORNER, _CAP),
    ),
    InequalityCase(
        "concavity-sqrt-positive",
        "1 - x/2 - sqrt(1-x) > 0 on (0, 0.2)",
        _margin_concavity,
        _interval_sampler(Fraction(0), Fraction(1, 5)),
    ),
    InequalityCase(
        "correction-sum-099",
        "sqrt(3)/(sqrt(2) pi sqrt(N)) + h_error(N) < 0.99 for N >= 335/24",
        _margin_correction_sum,
        _interval_sampler(_CORNER, _CAP),
    ),
    InequalityCase(
        "exp-argument-01",
        "pi/(40 sqrt(6)) + (pi^2/24) (1/(10 sqrt(N)) + 1/4)^2 <= 0.1",
        _margin_exp_argument,
        _interval_sampler(_CORNER, _CAP),
    ),
    InequalityCase(
        "shift-ratio-02",
        "1/(2 sqrt(N)) < 1/5 for N >= 335/24, so shifts stay in the x < 0.2 range",
        _margin_shift_ratio,
        _interval_sampler(_CORNER, _CAP),
    ),
    InequalityCase(
        "collapse-056",
        "0.4 + pi J^3/(4 sqrt6 N^(3/2)) + 0.4 pi J^2/(4 sqrt6 N^(3/2))"
        " + 0.1 + 0.1 J/N + 0.04/N <= 0.56 for J in {j, 2j} over admissible pairs",
        _margin_collapse_056,
        _pair_sampler(17, 10_000),
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
        _pair_sampler(17, 10_000),
    ),
    InequalityCase(
        "collapse-1350",
        "N (h_error(N) + 100 (sqrt(3)/(sqrt(2) pi sqrt(N)) + h_error(N))^2) <= 1350",
        _margin_collapse_1350,
        _interval_sampler(_CORNER, _CAP),
    ),
    InequalityCase(
        "collapse-2075",
        "(1 + b1 +- 1350/N)(1 + b2 +- 2.71/N) stays within 2075/N of 1 + b1 + b2",
        _margin_collapse_2075,
        _pair_sampler(17, 10_000),
    ),
    InequalityCase(
        "collapse-3926",
        "2 (1 + b1 +- 1350/N)(1 + b2 +- 2.71/N) stays within 3926/N of the center",
        _margin_collapse_3926,
        _pair_sampler(17, 10_000),
    ),
    InequalityCase(
        "bessel-tail-sum",
        "sum over 2 <= k <= 1000 of I_3/2(X/k) <= 4 sqrt(X/pi) exp(X/2) on [20, 100]",
        _margin_bessel_tail,
        _interval_sampler(Fraction(20), Fraction(100)),
        grid_points=100,
        random_points=30,
        terms=TAIL_TERMS,
    ),
    InequalityCase(
        "bessel-simplify-half",
        "|1/x - x/2| <= x^2/2 for x >= 1",
        _margin_bessel_simplify,
        _interval_sampler(Fraction(1), _CAP),
    ),
)

CASE_INDEX = {case.name: case for case in CASES}


def _lookup(name: str) -> InequalityCase:
    case = CASE_INDEX.get(name)
    if case is None:
        known = ", ".join(sorted(CASE_INDEX))
        raise PreconditionError(f"unknown inequality case {name!r}; known: {known}")
    return case


def run_case(
    name: str, prec: int = DEFAULT_PRECISION, seed: int = DEFAULT_SEED
) -> InequalityResult:
    """Sweep the named case over its registered grid and random points and
    report the worst margin enclosure lower endpoint."""
    case = _lookup(name)
    rng = random.Random(seed)
    # raw lower endpoints compare exactly; only the worst becomes a Fraction
    worst = None
    worst_point: Point = ()
    count = 0
    for point in case.sampler(case.grid_points, case.random_points, rng):
        lo = case.margin(point, prec).lo
        count += 1
        if worst is None or libmp.mpf_lt(lo, worst):
            worst = lo
            worst_point = point
    if worst is None:
        raise PartboundsError(f"inequality case {name!r}: its sampler yielded no point")
    margin = fraction_from_raw(worst)
    return InequalityResult(case.name, count, margin, worst_point, margin > 0)

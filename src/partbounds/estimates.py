"""Interval enclosures for partition ratios and differences.

Four families, all sharing the shifted index N = n - 1/24; shifted_terms is
the one source of the floor root of N and the j-free brackets for them, for
rademacher's one-term truncation and for the k-rank forms:

  * ratio_interval        p(n-j)/p(n), a product of one decaying exponential
                          and two explicit bracketed factors, returned as the
                          Enclosure of that product;
  * fjn_ratio_interval    f(j,n)/p(n) for the second shifted difference
                          f(j,n) = p(n) - 2p(n-j) + p(n-2j), a two-exponential
                          combination, returned as its Enclosure;
  * krank_*_interval      boundary k-rank counts and their consecutive
                          differences, normalized by p(n-k-m+1); these reuse
                          the same brackets with ell = n-k-m+23/24 playing
                          the role of N and the shift fixed at 1;
  * convexity_certificate f(j,n) >= 0, decided exactly for small n and by an
                          interval-checked inequality chain where licensed.

The injection inequality behind that convexity, and the shift map that
witnesses it, are exact checks with no enclosure; verify's convexity suite
owns both.

Every bracket is a center plus an explicit rational radius (2.71/N,
1350/N, 2075/N, 3926/N, 4.04/ell, 2079/ell, 3929/ell).  Containment
contracts are exercised by sweeping the exact engine against each
enclosure.

Integer ends.  Each estimate is built as integers (lo, hi) over 2^w,
w = prec + FIXED_GUARD, with the estimate in [lo, hi] 2^-w, and each end is
rounded once, outward, by enclosure._dyadic_ends, which checks their order.
The kernels _ratio_fixed, _fjn_fixed, _krank_fixed and
rademacher._prop21_fixed return the unrounded ends and w.  A term monotone
in each of its inputs lies between its values at the input ends that make
it least and greatest; those values floored, or raised, to integers are
outward ends of it.  Every bound below is of that kind, on these inputs,
which read fixed's lemmas alone:
* _constants(w), once per width in fixed.at_width: pi in fixed.pi_ends(w)
  = [P0, P1] 2^-w (within a unit), sqrt 3 and sqrt 6 in their
  fixed.root_ends; kappa1 = sqrt3/sqrt(2 pi) = sqrt(3/(2 pi)) and kappa2 =
  sqrt3/(sqrt2 pi) = sqrt(3/(2 pi^2)), each decreasing in pi, from the floor
  root at P1, and one more than the floor root at P0 (floor root); delta_c
  = kappa2 - kappa1 (about -0.3011) from kappa2's lower end less kappa1's
  upper, and the reverse;
* shifted_terms(n, w), once per (n, w): d = 24n - 1, so N = d/24; the floor
  root s of d/24, with sqrt N in [s, s + 1) 2^-w; alpha = pi/(sqrt6 sqrt N),
  increasing in pi and decreasing in sqrt 6 and sqrt N, over 2^(w+8+g),
  where 2^g > sqrt d exceeds every j the licenses admit; kappa1/sqrt N,
  kappa2/sqrt N and delta_c/sqrt N, a constant's end over the root's end
  that makes the quotient least, or greatest (_over); and the bracket
  (1 + kappa2/sqrt N) +- 1350/N;
* a radius c/N = 24c/d raised, so it covers c/N (_radius);
* _decay(t, j, w): a = pi j/sqrt(6N) = j alpha as [A0, A1] 2^-v,
  v = w + 8, alpha's ends times j floored and raised by 2^g, so within a
  unit or two of a 2^v, and e^-a (below).  Each centre's j-part, a multiple of j/N less one of
  the j^2 term, is c (k - a)/d for integers c >= 0 and k, as
  pi j^2/(4 sqrt6 N^(3/2)) = 6 j a/d, decreasing in a (_jpart).
* Products.  For ends of x and y over 2^w, x y lies between the least and
  the greatest of the four end products, over 4^w (_mul).  For e >= 0 only
  two are needed: e x at x's lower end reads e's upper end if that end is
  negative and e's lower end otherwise, and at x's upper end the reverse
  (_scale, which _mul takes when either factor is nonnegative).

Decay.  _decay's A0 and A1 are integers with a in [a0, a1], a0 = A0 2^-v
and a1 = A1 2^-v.  In every license a < pi/(2 sqrt6) (1 + 1/335)^(1/2) <
0.65 < ln 2 (4j^2 < n gives a^2 < (pi^2/24) n/N, and n >= 14), so
fixed.exp_neg(A0, v, w), at t = a0 exactly (delta = 0), gives (E, m) with
m <= 1.  By fixed's reduction lemma e^-a0 2^(w+m) = e^u 2^w lies within
k = fixed.reduced_units(w, m) = 6 isqrt(w) + 27 units of E, for
16 <= w < 2^16.  Then e^-a <= e^-a0 lies below (E + k) 2^-m raised, and
e^-a >= e^-a1 >= e^-a0 (1 - (a1 - a0)), as e^-x >= 1 - x, lies above
(E - k) (2^v - (A1 - A0)) 2^-(v+m) floored.  Both ends
are nonnegative, so e^-2a lies between their squares.  This rests on fixed's
exponential lemma, whose series step, read off libmp, is the one step not
proved.

The forms, each monotone in the terms above:
* Ratio.  e^-a F1 F2 with F1 = (1 + 6j (4 - a)/d - kappa1/sqrt N) +- 2.71/N
  and F2 the bracket: F1's lower end puts in a's upper end and
  kappa1/sqrt N's upper end, less the raised radius, and its upper end the
  reverse; then _scale by e^-a and _mul by F2.
* f(j,n).  1 + e^-2a X - e^-a Y with X = (1 + delta_c/sqrt N +
  24j (2 - a)/d) +- 2075/N and Y = (2 + 2 delta_c/sqrt N + 12j (4 - a)/d)
  +- 3926/N, each increasing in delta_c/sqrt N and decreasing in a
  (2j/N - pi j^2/(sqrt6 N^(3/2)) = 24j (2 - a)/d and 2j/N - pi j^2/(2 sqrt6
  N^(3/2)) = 12j (4 - a)/d): the lower end is 1 + (e^-2a X)'s lower end
  - (e^-a Y)'s upper end, and the upper end the reverse.
* k-rank.  The j = 1 instances with those j-terms dropped and the radii
  widened to cover them (2.71 + 1 <= 4.04, 2075 + 2 <= 2079, 3926 + 2 <=
  3929): the ratio is 1 less the ratio tail e^-a F1 F2 at F1 = (1 -
  kappa1/sqrt ell) +- 4.04/ell, and the difference the f(j,n) tail at
  centres 1 + delta_c/sqrt ell and 2 + 2 delta_c/sqrt ell, radii 2079/ell
  and 3929/ell.
* Convexity chain.  Its links compare terms as small as 1/N, and
  1 + e^-2a - 2e^-a is about a^2, with 0 and -1, so _chain_fixed builds
  them at w + bitlen(d) bits, where each such term is resolved to
  prec + FIXED_GUARD bits: (iii) delta_c/sqrt N + 6j (4 - a)/d + 3926/N, by
  the bounds above; (ii) j/N - 3 pi j^2/(4 sqrt6 N^(3/2)) = 6j (4 - 3a)/d,
  which is >= 0 for every a <= a1 exactly when 3 A1 <= 4 2^v; (i)
  e^-2a - 2 e^-a, below the upper square less twice the lower end and
  above the lower square less twice the upper end.
No estimate reads the enclosure module's padding of libmp's exp and pi,
whose guard-bit argument is empirical: every allowance above is a lemma's.

The license windows are enforced on exact integers: j < sqrt(N)/2 is
equivalent to 4j^2 < n, j < sqrt(N)/4 to 16j^2 < n, and j <= sqrt(N) to
j^2 < n, because 24 j^2 multiples can never equal 24n - 1.  ratio_j_top and
fjn_j_top below are the one source of the first two windows; the j^2 < n
window lives in verify's rademacher suite, which counts the pairs (n, j)
behind each key m = n - j in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from . import fixed
from .enclosure import DEFAULT_PRECISION, MEMO_MAXSIZE, Enclosure, _dyadic_ends, _wrap
from .errors import PreconditionError
from .exact import f_jn, nu_k, p_exact
from .fixed import FIXED_GUARD

__all__ = [
    "CertificateKind",
    "ConvexityCertificate",
    "convexity_certificate",
    "fjn_j_top",
    "fjn_licensed",
    "fjn_ratio_interval",
    "krank_boundary_value",
    "krank_diff_interval",
    "krank_ratio_interval",
    "nonkary_diff_check",
    "ratio_interval",
    "ratio_j_top",
]

RATIO_RADIUS_1 = Fraction(271, 100)
RATIO_RADIUS_2 = Fraction(1350)
FJN_RADIUS_A = Fraction(2075)
FJN_RADIUS_B = Fraction(3926)
KRANK_RATIO_RADIUS_1 = Fraction(101, 25)
KRANK_DIFF_RADIUS_A = Fraction(2079)
KRANK_DIFF_RADIUS_B = Fraction(3929)


def ratio_j_top(n: int) -> int:
    """Largest j with 4j^2 < n (two-factor ratio license)."""
    return math.isqrt((n - 1) // 4)


def fjn_j_top(n: int) -> int:
    """Largest j with 16j^2 < n (second-difference license)."""
    return math.isqrt((n - 1) // 16)


def fjn_licensed(n: int, j: int) -> bool:
    """Is (n, j), j >= 1, inside the analytic second-difference license?"""
    return n >= 14 and j <= fjn_j_top(n)


class CertificateKind(Enum):
    EXACT = "exact"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class ConvexityCertificate:
    holds: bool
    kind: CertificateKind


def _constants(w: int) -> SimpleNamespace:
    """pi, sqrt 3, sqrt 6, kappa1 = sqrt3/sqrt(2 pi), kappa2 =
    sqrt3/(sqrt2 pi) and delta_c = kappa2 - kappa1 as (lo, hi) integers over
    2^w, read through fixed.at_width (module docstring)."""
    p0, p1 = fixed.pi_ends(w)
    kappa1 = fixed.floor_root(3 << w, 2 * p1, w), fixed.floor_root(3 << w, 2 * p0, w) + 1
    kappa2 = (fixed.floor_root(3 << 2 * w, 2 * p1 * p1, w),
              fixed.floor_root(3 << 2 * w, 2 * p0 * p0, w) + 1)
    return SimpleNamespace(
        pi=(p0, p1),
        sqrt3=fixed.root_ends(3, 1, w),
        sqrt6=fixed.root_ends(6, 1, w),
        kappa1=kappa1,
        kappa2=kappa2,
        delta_c=(kappa2[0] - kappa1[1], kappa2[1] - kappa1[0]),
    )


def _over(x, s: int, w: int):
    # the ends of x/sqrt N over 2^w for the ends x, with sqrt N in
    # [s, s + 1) 2^-w
    lo, hi = x
    return ((lo << w) // (s + 1 if lo >= 0 else s),
            -(-(hi << w) // (s if hi >= 0 else s + 1)))


def _radius(radius: Fraction, d: int, w: int) -> int:
    # radius/N, N = d/24, raised to an integer over 2^w
    return -(-(24 * radius.numerator << w) // (radius.denominator * d))


@lru_cache(maxsize=MEMO_MAXSIZE)
def shifted_terms(n: int, w: int) -> SimpleNamespace:
    """The j-free terms at N = n - 1/24 as (lo, hi) integers over 2^w,
    built once per (n, w) on the floor root of N: d = 24n - 1, alpha =
    pi/(sqrt6 sqrt N) over 2^(w+8+g) with g, kappa1/sqrt N, kappa2/sqrt N =
    sqrt3/(sqrt2 pi sqrt N), delta_c/sqrt N and the bracket
    (1 + kappa2/sqrt N) +- 1350/N (module docstring)."""
    k = fixed.at_width(_constants, w)
    d = 24 * n - 1
    s = fixed.floor_root(d, 24, w)
    b0, b1 = _over(k.kappa2, s, w)
    r = _radius(RATIO_RADIUS_2, d, w)
    (p0, p1), (r0, r1), one = k.pi, k.sqrt6, 1 << w
    g = (d.bit_length() + 1) // 2  # 2^g > sqrt d > j
    shift = 2 * w + 8 + g
    return SimpleNamespace(
        d=d,
        alpha=((p0 << shift) // (r1 * (s + 1)), -(-(p1 << shift) // (r0 * s)), g),
        kappa1=_over(k.kappa1, s, w),
        kappa2=(b0, b1),
        delta_c=_over(k.delta_c, s, w),
        bracket=(one + b0 - r, one + b1 + r),
    )


def _decay(t: SimpleNamespace, j: int, w: int):
    """(a, e): a = pi j/sqrt(6N) as (a0, a1) over 2^v, v = w + 8, and e^-a
    as (lo, hi) over 2^w, from one fixed.exp_neg (module docstring)."""
    v = w + 8
    alpha0, alpha1, g = t.alpha
    a0, a1 = j * alpha0 >> g, -(-(j * alpha1) >> g)
    big, m = fixed.exp_neg(a0, v, w)
    err = fixed.reduced_units(w, m)
    return (a0, a1), ((big - err) * ((1 << v) - (a1 - a0)) >> (v + m),
                      -(-(big + err) >> m))


def _jpart(c: int, k: int, a, d: int, w: int):
    # the ends of c (k - a)/d over 2^w, for c >= 0 and a's ends over 2^(w+8)
    a0, a1 = a
    den = d << 8
    return (c * ((k << (w + 8)) - a1)) // den, -(-(c * ((k << (w + 8)) - a0)) // den)


def _scale(e, x, w: int):
    # the ends of e x over 2^w, for the ends e >= 0 and x (module docstring)
    (e0, e1), (lo, hi) = e, x
    return (e1 if lo < 0 else e0) * lo >> w, -(-((e0 if hi < 0 else e1) * hi) >> w)


def _mul(x, y, w: int):
    # the ends of x y over 2^w: _scale's two products when a factor is
    # nonnegative, else the least and greatest of the four
    if x[0] >= 0:
        return _scale(x, y, w)
    if y[0] >= 0:
        return _scale(y, x, w)
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(products) >> w, -(-max(products) >> w)


def _square(e, w: int):
    # the ends of e^2 over 2^w, for the ends e >= 0
    return e[0] * e[0] >> w, -(-(e[1] * e[1]) >> w)


def _ratio_tail(t: SimpleNamespace, e, c, radius: Fraction, w: int):
    # the ends of e ((c - kappa1/sqrt N) +- radius/N) bracket, for the ends e
    # of e^-a and c of the centre
    r = _radius(radius, t.d, w)
    k0, k1 = t.kappa1
    return _mul(_scale(e, (c[0] - k1 - r, c[1] - k0 + r), w), t.bracket, w)


def _difference_tail(t: SimpleNamespace, e, x, y, radius_a: Fraction, radius_b: Fraction,
                     w: int):
    # the ends of 1 + e^2 (x +- radius_a/N) - e (y +- radius_b/N), for the
    # ends e of e^-a and x, y of the centres
    ra, rb = _radius(radius_a, t.d, w), _radius(radius_b, t.d, w)
    x = _scale(_square(e, w), (x[0] - ra, x[1] + ra), w)
    y = _scale(e, (y[0] - rb, y[1] + rb), w)
    one = 1 << w
    return one + x[0] - y[1], one + x[1] - y[0]


def _ratio_fixed(n: int, j: int, prec: int):
    """(lo, hi, w): p(n-j)/p(n)'s estimate in [lo, hi] 2^-w (module
    docstring), unrounded."""
    w = prec + FIXED_GUARD
    t = shifted_terms(n, w)
    a, e = _decay(t, j, w)
    one = 1 << w
    c0, c1 = _jpart(6 * j, 4, a, t.d, w)
    return (*_ratio_tail(t, e, (one + c0, one + c1), RATIO_RADIUS_1, w), w)


def ratio_interval(n: int, j: int, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of p(n-j)/p(n) for n >= 14, 0 <= j < sqrt(N)/2:

    e^{-pi j/sqrt(6N)} (1 + j/N - pi j^2/(4 sqrt6 N^{3/2})
                          - sqrt3/(sqrt(2 pi) sqrt N) +- 2.71/N)
                       (1 + sqrt3/(sqrt(2N) pi) +- 1350/N),

    _ratio_fixed's integer ends rounded once, outward.
    """
    if n < 14:
        raise PreconditionError("requires n >= 14")
    if j < 0:
        raise PreconditionError("requires j >= 0")
    if j > ratio_j_top(n):
        raise PreconditionError("requires j < sqrt(N)/2, i.e. 4j^2 < n")
    return _wrap(_dyadic_ends(*_ratio_fixed(n, j, prec), prec), prec)


def _fjn_fixed(n: int, j: int, prec: int):
    """(lo, hi, w): f(j,n)/p(n)'s estimate in [lo, hi] 2^-w (module
    docstring), unrounded."""
    w = prec + FIXED_GUARD
    t = shifted_terms(n, w)
    a, e = _decay(t, j, w)
    one = 1 << w
    (d0, d1), d = t.delta_c, t.d
    x0, x1 = _jpart(24 * j, 2, a, d, w)
    y0, y1 = _jpart(12 * j, 4, a, d, w)
    x = one + d0 + x0, one + d1 + x1
    y = 2 * (one + d0) + y0, 2 * (one + d1) + y1
    return (*_difference_tail(t, e, x, y, FJN_RADIUS_A, FJN_RADIUS_B, w), w)


def fjn_ratio_interval(n: int, j: int, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of f(j,n)/p(n) for n >= 14, 1 <= j < sqrt(N)/4:

    1 + e^{-sqrt2 pi j/sqrt(3N)} termA - e^{-pi j/sqrt(6N)} termB, where
    termA = 1 + delta_c/sqrt N + 2j/N - pi j^2/(sqrt6 N^{3/2}) +- 2075/N and
    termB = 2 + 2 delta_c/sqrt N + 2j/N - pi j^2/(2 sqrt6 N^{3/2}) +- 3926/N,
    with delta_c = sqrt3/(sqrt2 pi) - sqrt3/sqrt(2 pi).  The first exponent
    is exactly twice the second.  _fjn_fixed's integer ends rounded once,
    outward.
    """
    if n < 14:
        raise PreconditionError("requires n >= 14")
    if j < 1:
        raise PreconditionError("requires j >= 1")
    if j > fjn_j_top(n):
        raise PreconditionError("requires j < sqrt(N)/4, i.e. 16j^2 < n")
    return _wrap(_dyadic_ends(*_fjn_fixed(n, j, prec), prec), prec)


def _chain_fixed(n: int, j: int, prec: int):
    """(b, q, x, w): the chain's links as (lo, hi) integers over 2^w, w =
    prec + FIXED_GUARD + bitlen(24n - 1): b = delta_c/sqrt N + J-bracket +
    3926/N, q = j/N - 3 pi j^2/(4 sqrt6 N^(3/2)) and x = e^-2a - 2 e^-a
    (module docstring)."""
    d = 24 * n - 1
    w = prec + FIXED_GUARD + d.bit_length()
    t = shifted_terms(n, w)
    a, e = _decay(t, j, w)
    b0, b1 = _jpart(6 * j, 4, a, d, w)
    r = _radius(FJN_RADIUS_B, d, w)  # 3926/N raised, and below it floored
    b = t.delta_c[0] + b0 + r - 1, t.delta_c[1] + b1 + r
    q = _jpart(6 * j, 4, (3 * a[0], 3 * a[1]), d, w)
    (e0, e1), (x0, x1) = e, _square(e, w)
    return b, q, (x0 - 2 * e1, x1 - 2 * e0), w


def _analytic_convexity(n: int, j: int, prec: int) -> bool:
    # sufficient chain: with X = e^{-2a} - 2e^{-a}, a = pi j/sqrt(6N),
    #   (i)   -1 < X < 0,
    #   (ii)  j/N - 3 pi j^2/(4 sqrt6 N^{3/2}) >= 0,
    #   (iii) -1 < delta_c/sqrt N + j/N - pi j^2/(4 sqrt6 N^{3/2}) + 3926/N < 0
    # together force f(j,n)/p(n) > 0; each comparison must hold for the
    # whole interval, else the chain is inconclusive
    b, q, x, w = _chain_fixed(n, j, prec)
    one = 1 << w
    return -one < b[0] and b[1] < 0 and q[0] >= 0 and -one < x[0] and x[1] < 0


@lru_cache(maxsize=1)
def _chain_floor() -> int:
    """The largest n at which link (iii) of the chain cannot hold.

    Inside the license pi j < 4 sqrt6 sqrt N, so j/N - pi j^2/(4 sqrt6
    N^{3/2}) >= 0 and B >= delta_c/sqrt N + 3926/N, which is >= 0 while
    3926^2 >= delta^2 N for the lower end delta of any enclosure of delta_c.
    That is N <= about 1.6997e8, whatever precision the chain runs at.
    """
    w = DEFAULT_PRECISION + FIXED_GUARD
    delta = Fraction(fixed.at_width(_constants, w).delta_c[0], 1 << w)
    return math.floor(FJN_RADIUS_B**2 / delta**2 + Fraction(1, 24))


def convexity_certificate(
    n: int, j: int, prec: int = DEFAULT_PRECISION
) -> ConvexityCertificate:
    """Certify p(n) - 2p(n-j) + p(n-2j) >= 0.

    Exact evaluation settles 2 <= n <= 13 and any (n, j) outside the
    analytic license j < sqrt(N)/4.  Licensed cases past _chain_floor() try
    the interval-checked inequality chain first and fall back to exact
    evaluation when any link is inconclusive; at or below that floor the
    chain cannot succeed and is not run.  So the verdict is always decided.
    """
    if n < 2:
        raise PreconditionError("requires n >= 2")
    if j < 1:
        raise PreconditionError("requires j >= 1")
    if 2 * j > n:
        raise PreconditionError("requires 2j <= n")
    if fjn_licensed(n, j) and n > _chain_floor() and _analytic_convexity(n, j, prec):
        return ConvexityCertificate(holds=True, kind=CertificateKind.ANALYTIC)
    return ConvexityCertificate(holds=f_jn(n, j) >= 0, kind=CertificateKind.EXACT)


def krank_boundary_value(k: int, m: int, n: int) -> int:
    """Count of partitions of n with k-rank m, on the range m > n/2 where it
    collapses to p(n-k-m+1) - p(n-k-m)."""
    if k < 1:
        raise PreconditionError("requires k >= 1")
    if n < 0:
        raise PreconditionError("requires n >= 0")
    if 2 * m <= n:
        raise PreconditionError("requires m > n/2")
    return p_exact(n - k - m + 1) - p_exact(n - k - m)


def _check_krank_domain(k: int, m: int, n: int) -> None:
    if k < 1:
        raise PreconditionError("requires k >= 1")
    if 2 * m <= n:
        raise PreconditionError("requires m > n/2")
    if n - k - m < 16:
        raise PreconditionError("requires ell > 16, i.e. n - k - m >= 16")


def krank_ratio_interval(
    k: int, m: int, n: int, prec: int = DEFAULT_PRECISION
) -> Enclosure:
    """Enclosure of N_k(m,n)/p(n-k-m+1) for m > n/2 and ell > 16:

        1 - e^{-pi/sqrt(6 ell)} (1 - sqrt3/sqrt(2 pi ell) +- 4.04/ell)
                                (1 + sqrt3/(sqrt(2 ell) pi) +- 1350/ell).

    Depends on (k, m, n) only through n-k-m; cached on it.
    """
    _check_krank_domain(k, m, n)
    return _krank_forms(n - k - m, prec)[0]


def krank_diff_interval(
    k: int, m: int, n: int, prec: int = DEFAULT_PRECISION
) -> Enclosure:
    """Enclosure of (N_k(m,n) - N_k(m+1,n))/p(n-k-m+1) for m > n/2, ell > 16:

        1 + e^{-sqrt2 pi/sqrt(3 ell)} (1 + delta_c/sqrt ell +- 2079/ell)
          - e^{-pi/sqrt(6 ell)} (2 + 2 delta_c/sqrt ell +- 3929/ell).

    The widened radii absorb the shift-dependent center terms that the
    j = 1 second-difference estimate keeps explicit.  Cached on n-k-m.
    """
    _check_krank_domain(k, m, n)
    return _krank_forms(n - k - m, prec)[1]


def _krank_fixed(lp: int, prec: int):
    """(ratio, diff, w): both k-rank forms of lp = n - k - m as (lo, hi)
    integers over 2^w, the two tails at j = 1 on one e^-a (module
    docstring), unrounded."""
    w = prec + FIXED_GUARD
    t = shifted_terms(lp + 1, w)  # ell = lp + 23/24 is the shift of lp + 1
    e = _decay(t, 1, w)[1]
    one = 1 << w
    lo, hi = _ratio_tail(t, e, (one, one), KRANK_RATIO_RADIUS_1, w)
    d0, d1 = t.delta_c
    diff = _difference_tail(t, e, (one + d0, one + d1), (2 * (one + d0), 2 * (one + d1)),
                            KRANK_DIFF_RADIUS_A, KRANK_DIFF_RADIUS_B, w)
    return (one - hi, one - lo), diff, w


@lru_cache(maxsize=MEMO_MAXSIZE)
def _krank_forms(lp: int, prec: int):
    # both k-rank forms of lp = n - k - m, each rounded once
    ratio, diff, w = _krank_fixed(lp, prec)
    return (_wrap(_dyadic_ends(*ratio, w, prec), prec),
            _wrap(_dyadic_ends(*diff, w, prec), prec))


def nonkary_diff_check(n: int, k: int) -> bool:
    """Is nu_k(n) - nu_k(n-k) positive?  Computed exactly."""
    if n < 2:
        raise PreconditionError("requires n >= 2")
    if k < 1:
        raise PreconditionError("requires k >= 1")
    if 2 * k > n:
        raise PreconditionError("requires 2k <= n")
    return nu_k(n, k) - nu_k(n - k, k) > 0

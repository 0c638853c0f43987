"""Interval enclosures for partition ratios and differences.

Four families, all sharing the shifted index N = n - 1/24; shifted_terms is
the one source of N, sqrt N and the j-free brackets for them, for
rademacher's one-term truncation and for the registry margins:

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

Every bracket is a center evaluated in interval arithmetic plus an explicit
rational radius (2.71/N, 1350/N, 2075/N, 3926/N, 4.04/ell, 2079/ell,
3929/ell).  Containment contracts are exercised by sweeping the exact engine
against each enclosure.

Every kernel here, shifted_terms and the convexity chain included, is an
expression in the enclosure module's _*_ends helpers on raw (lo, hi) pairs,
which makes the directed-rounding calls of its Enclosure expression without
the intermediate objects.  Each helper checks the order of the pair it
returns, so every interval is checked once, where it is built, and no
kernel checks one itself.  An Enclosure is built only in the return of a
public estimate or of a k-rank form.  The Enclosure expressions stay in
tests/test_estimates.py as references, and the kernels must match them bit
for bit.

Each estimate ends in a tail shared with its k-rank form: _ratio_tail,
e (c - sqrt3/(sqrt(2 pi) sqrt N) +- r) bracket, and _difference_tail,
1 + e^2 (x +- rA) - e (y +- rB).  The ratio and f(j,n) kernels put their
j-terms in the centres c, x and y.  The k-rank forms are the j = 1
instances with those j-terms dropped and the radii widened to cover them
(2.71 + 1 <= 4.04, 2075 + 2 <= 2079, 3926 + 2 <= 3929): the k-rank ratio
is 1 less the ratio tail at c = 1, and the k-rank difference is the
difference tail at x = 1 + delta_c/sqrt ell, y = 2 + 2 delta_c/sqrt ell.

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

from mpmath import libmp

from .enclosure import (
    DEFAULT_PRECISION,
    MEMO_MAXSIZE,
    Enclosure,
    _add_ends,
    _div_ends,
    _exact_ends,
    _exp_ends,
    _int_ends,
    _mul_ends,
    _neg_ends,
    _ratio_ends,
    _sqrt_ends,
    _sub_ends,
    _widen_ends,
    _wrap,
    constants,
    fraction_from_raw,
    ratio_pair,
)
from .errors import PreconditionError
from .exact import f_jn, nu_k, p_exact, shifted_index

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


# the exact constants 1, 2 and 4 as point pairs
_ONE = (libmp.fone,) * 2
_TWO = (libmp.from_int(2),) * 2
_FOUR = (libmp.from_int(4),) * 2


def _radius_hi(radius: Fraction, d: int, prec: int):
    # upper end of radius/N, N = d/24, as plus_minus reads it
    return ratio_pair(24 * radius.numerator, radius.denominator * d, prec)[1]


@lru_cache(maxsize=MEMO_MAXSIZE)
def shifted_terms(n: int, prec: int) -> SimpleNamespace:
    """Raw ends of the j-free terms at N = n - 1/24, built once per (n, prec).

    N (an exact Fraction) and Ne, sqrt6_sqrtN (the denominator of every
    exponent), sqrt6_N_sqrtN (callers scale it by 2 or 4, which commutes with
    directed rounding), sqrt3_over_sqrt_two_pi = sqrt3/(sqrt(2 pi) sqrt N),
    sqrt3_over_pi_sqrt2 = sqrt3/(sqrt2 pi sqrt N), delta_c_over_sqrtN, and
    the bracket (1 + sqrt3/(sqrt2 pi sqrt N)) +- 1350/N.

    The calls and roundings of these Enclosure expressions, with
    sqrtN = Ne.sqrt() and c the Enclosures of constants(prec):
    c.sqrt6 * sqrtN, c.sqrt6 * Ne * sqrtN, c.sqrt3 / (c.sqrt_two_pi * sqrtN),
    c.sqrt3 / (c.pi * c.sqrt2 * sqrtN), c.delta_c / sqrtN and
    (1 + sqrt3_over_pi_sqrt2).plus_minus(1350/N).
    """
    c = constants(prec)
    d = 24 * n - 1  # N = d/24
    ne = _ratio_ends(d, 24, prec)
    s = _sqrt_ends(ne, prec)
    q = _mul_ends(c.pi, c.sqrt2, prec)
    q = _div_ends(c.sqrt3, _mul_ends(q, s, prec), prec)
    x = _add_ends(q, _ONE, prec)
    return SimpleNamespace(
        N=shifted_index(n),
        Ne=ne,
        sqrt6_sqrtN=_mul_ends(c.sqrt6, s, prec),
        sqrt6_N_sqrtN=_mul_ends(_mul_ends(c.sqrt6, ne, prec), s, prec),
        sqrt3_over_sqrt_two_pi=_div_ends(c.sqrt3, _mul_ends(c.sqrt_two_pi, s, prec), prec),
        sqrt3_over_pi_sqrt2=q,
        delta_c_over_sqrtN=_div_ends(c.delta_c, s, prec),
        bracket=_widen_ends(x, _radius_hi(RATIO_RADIUS_2, d, prec), prec),
    )


def _pi_j_ends(t: SimpleNamespace, j: int, prec: int):
    # the ends of j, of pi j and of e^{-pi j/sqrt(6N)}, the libmp calls of
    # (-(pi * j / sqrt6_sqrtN)).exp() in Enclosure arithmetic
    jj = _ratio_ends(j, 1, prec)
    pj = _mul_ends(constants(prec).pi, jj, prec)
    return jj, pj, _exp_ends(_neg_ends(_div_ends(pj, t.sqrt6_sqrtN, prec)), prec)


def _ratio_tail(t: SimpleNamespace, d: int, e, c, radius, prec: int):
    # the ends of e (c - sqrt3/(sqrt(2 pi) sqrt N) +- radius/N) bracket,
    # N = d/24, for the ends e and centre c
    c = _sub_ends(c, t.sqrt3_over_sqrt_two_pi, prec)
    c = _widen_ends(c, _radius_hi(radius, d, prec), prec)
    return _mul_ends(_mul_ends(e, c, prec), t.bracket, prec)


def _difference_tail(d: int, e, x, y, radius_a, radius_b, prec: int):
    # the ends of 1 + e e (x +- radius_a/N) - e (y +- radius_b/N), N = d/24,
    # for the ends e and centres x, y
    x = _widen_ends(x, _radius_hi(radius_a, d, prec), prec)
    y = _widen_ends(y, _radius_hi(radius_b, d, prec), prec)
    x = _add_ends(_mul_ends(_mul_ends(e, e, prec), x, prec), _ONE, prec)
    return _sub_ends(x, _mul_ends(e, y, prec), prec)


def ratio_interval(n: int, j: int, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of p(n-j)/p(n) for n >= 14, 0 <= j < sqrt(N)/2.

    Returns the Enclosure of the product, evaluated left to right,

    e^{-pi j/sqrt(6N)} (1 + j/N - pi j^2/(4 sqrt6 N^{3/2})
                          - sqrt3/(sqrt(2 pi) sqrt N) +- 2.71/N)
                       (1 + sqrt3/(sqrt(2N) pi) +- 1350/N)

    in raw libmp: the calls, operands and roundings of that expression in
    Enclosure arithmetic, with the order check of every interval it builds.
    """
    if n < 14:
        raise PreconditionError("requires n >= 14")
    if j < 0:
        raise PreconditionError("requires j >= 0")
    if j > ratio_j_top(n):
        raise PreconditionError("requires j < sqrt(N)/2, i.e. 4j^2 < n")
    t = shifted_terms(n, prec)
    d = 24 * n - 1  # N = d/24
    jj, pj, e = _pi_j_ends(t, j, prec)
    # the centre 1 + j/N - pi j j / (4 sqrt6 N sqrt N)
    q = _div_ends(_mul_ends(pj, jj, prec), _mul_ends(t.sqrt6_N_sqrtN, _FOUR, prec), prec)
    c = _sub_ends(_ratio_ends(d + 24 * j, d, prec), q, prec)
    return _wrap(_ratio_tail(t, d, e, c, RATIO_RADIUS_1, prec), prec)


def _delta_centres(t: SimpleNamespace, prec: int):
    # the ends of 1 + delta_c/sqrt N and 2 + 2 delta_c/sqrt N
    dc = t.delta_c_over_sqrtN
    return _add_ends(dc, _ONE, prec), _add_ends(_mul_ends(dc, _TWO, prec), _TWO, prec)


def fjn_ratio_interval(n: int, j: int, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of f(j,n)/p(n) for n >= 14, 1 <= j < sqrt(N)/4.

    Returns the Enclosure of
    1 + e^{-sqrt2 pi j/sqrt(3N)} termA - e^{-pi j/sqrt(6N)} termB, where
    termA = 1 + delta_c/sqrt N + 2j/N - pi j^2/(sqrt6 N^{3/2}) +- 2075/N and
    termB = 2 + 2 delta_c/sqrt N + 2j/N - pi j^2/(2 sqrt6 N^{3/2}) +- 3926/N,
    with delta_c = sqrt3/(sqrt2 pi) - sqrt3/sqrt(2 pi).  The first exponent
    is exactly twice the second.  Evaluated in raw libmp as ratio_interval
    is, with the calls of that expression in Enclosure arithmetic.
    """
    if n < 14:
        raise PreconditionError("requires n >= 14")
    if j < 1:
        raise PreconditionError("requires j >= 1")
    if j > fjn_j_top(n):
        raise PreconditionError("requires j < sqrt(N)/4, i.e. 16j^2 < n")
    t = shifted_terms(n, prec)
    d = 24 * n - 1  # N = d/24
    jj, pj, e = _pi_j_ends(t, j, prec)
    k = _ratio_ends(48 * j, d, prec)  # 2j/N
    pjj = _mul_ends(pj, jj, prec)  # pi j j
    x, y = _delta_centres(t, prec)
    s = t.sqrt6_N_sqrtN
    # the centres x + 2j/N - pi j j/(sqrt6 N sqrt N)
    x = _sub_ends(_add_ends(x, k, prec), _div_ends(pjj, s, prec), prec)
    # and y + 2j/N - pi j j/(2 sqrt6 N sqrt N)
    y = _add_ends(y, k, prec)
    y = _sub_ends(y, _div_ends(pjj, _mul_ends(s, _TWO, prec), prec), prec)
    return _wrap(_difference_tail(d, e, x, y, FJN_RADIUS_A, FJN_RADIUS_B, prec), prec)


def _j_bracket_ends(t: SimpleNamespace, d: int, big_j: int, prec: int):
    # the ends of J/N - pi J^2/(4 sqrt6 N^(3/2)), N = d/24, the j-part of the
    # first ratio bracket, for the convexity chain: the calls of
    # Fraction(J) / N - pi * J**2 / (4 * t.sqrt6_N_sqrtN) in Enclosure
    # arithmetic, J/N taken as 24J/d
    q = _mul_ends(constants(prec).pi, _int_ends(big_j * big_j, prec), prec)
    q = _div_ends(q, _mul_ends(t.sqrt6_N_sqrtN, _FOUR, prec), prec)
    return _sub_ends(_ratio_ends(24 * big_j, d, prec), q, prec)


def _analytic_convexity(n: int, j: int, prec: int) -> bool:
    # sufficient chain: with X = e^{-2a} - 2e^{-a}, a = pi j/sqrt(6N),
    #   (i)   -1 < X < 0,
    #   (ii)  j/N - 3 pi j^2/(4 sqrt6 N^{3/2}) >= 0,
    #   (iii) -1 < delta_c/sqrt N + j/N - pi j^2/(4 sqrt6 N^{3/2}) + 3926/N < 0
    # together force f(j,n)/p(n) > 0; each comparison must hold for the
    # whole interval, else the chain is inconclusive.  The calls of
    # t.delta_c_over_sqrtN + b + FJN_RADIUS_B / t.N (b the J-bracket),
    # Fraction(j) / t.N - 3 * pi * j * j / (4 * t.sqrt6_N_sqrtN) and
    # e * e - 2 * e (e = e^{-a}) in Enclosure arithmetic
    t = shifted_terms(n, prec)
    d = 24 * n - 1  # N = d/24
    b = _add_ends(t.delta_c_over_sqrtN, _j_bracket_ends(t, d, j, prec), prec)
    b = _add_ends(b, _exact_ends(FJN_RADIUS_B / t.N, prec), prec)
    if not _in_unit_gap(b):
        return False
    q = _mul_ends(constants(prec).pi, _int_ends(3, prec), prec)
    q = _mul_ends(_mul_ends(q, _int_ends(j, prec), prec), _int_ends(j, prec), prec)
    q = _div_ends(q, _mul_ends(t.sqrt6_N_sqrtN, _FOUR, prec), prec)
    if fraction_from_raw(_sub_ends(_ratio_ends(24 * j, d, prec), q, prec)[0]) < 0:
        return False
    e = _pi_j_ends(t, j, prec)[2]
    return _in_unit_gap(_sub_ends(_mul_ends(e, e, prec), _mul_ends(e, _TWO, prec), prec))


def _in_unit_gap(x) -> bool:
    # -1 < x < 0 on the whole of the ends x, the test of links (i) and (iii)
    return libmp.mpf_lt(x[1], libmp.fzero) and fraction_from_raw(x[0]) > -1


@lru_cache(maxsize=1)
def _chain_floor() -> int:
    """The largest n at which link (iii) of the chain cannot hold.

    Inside the license pi j < 4 sqrt6 sqrt N, so j/N - pi j^2/(4 sqrt6
    N^{3/2}) >= 0 and B >= delta_c/sqrt N + 3926/N, which is >= 0 while
    3926^2 >= delta^2 N for the lower end delta of any enclosure of delta_c.
    That is N <= about 1.6997e8, whatever precision the chain runs at.
    """
    delta = fraction_from_raw(constants(DEFAULT_PRECISION).delta_c[0])
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


@lru_cache(maxsize=MEMO_MAXSIZE)
def _krank_forms(lp: int, prec: int):
    # both k-rank forms of lp = n - k - m, the two tails at j = 1 on one u
    t = shifted_terms(lp + 1, prec)
    d = 24 * lp + 23  # ell = d/24 = lp + 23/24, the shift of lp + 1
    u = _pi_j_ends(t, 1, prec)[2]
    return _krank_ratio(t, d, u, prec), _krank_diff(t, d, u, prec)


def _krank_ratio(t: SimpleNamespace, d: int, u, prec: int) -> Enclosure:
    # 1 - the ratio tail at centre 1 and radius 4.04/ell
    f = _ratio_tail(t, d, u, _ONE, KRANK_RATIO_RADIUS_1, prec)
    return _wrap(_sub_ends(_ONE, f, prec), prec)


def _krank_diff(t: SimpleNamespace, d: int, u, prec: int) -> Enclosure:
    # the difference tail at centres 1 + delta_c/sqrt ell, 2 + 2 delta_c/sqrt ell
    ra, rb = KRANK_DIFF_RADIUS_A, KRANK_DIFF_RADIUS_B
    return _wrap(_difference_tail(d, u, *_delta_centres(t, prec), ra, rb, prec), prec)


def nonkary_diff_check(n: int, k: int) -> bool:
    """Is nu_k(n) - nu_k(n-k) positive?  Computed exactly."""
    if n < 2:
        raise PreconditionError("requires n >= 2")
    if k < 1:
        raise PreconditionError("requires k >= 1")
    if 2 * k > n:
        raise PreconditionError("requires 2k <= n")
    return nu_k(n, k) - nu_k(n - k, k) > 0

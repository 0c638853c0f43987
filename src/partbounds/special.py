"""Dedekind sums, the Kloosterman-type sums A_k(n), and the I_{3/2} Bessel
function at configurable precision.

Dedekind sums are kept as the exact integers 4k^2 s(h,k).  A_k(n) is a
finite sum of unit complex numbers whose phases are integers over 4k^2 times
pi; it is evaluated in rectangular form with the phase reduced mod 2 before
any rounding, so no cancellation error builds up for large k.  The Bessel
function has three independent forms:

* bessel_I32_closed, the elementary closed form: the trusted path, read by
  rademacher_round;
* bessel_I32_series, the power series summed in exact integer brackets: the
  oracle the `oracles` suite checks the closed form against;
* bessel_I32_quadrature, adaptive quadrature of the integral representation:
  read only by the tier-1 tests, which compare all three forms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp
from mpmath.ctx_mp import MPContext

from .enclosure import DEFAULT_PRECISION, fraction_from_raw
from .errors import PrecisionError, PreconditionError


@lru_cache(maxsize=None)
def mp_context(prec: int) -> MPContext:
    """A cached mpmath context pinned at the given precision.

    The global mpmath.mp is never touched; every consumer asks for an
    explicit precision instead.
    """
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def to_fraction(x) -> Fraction:
    """Exact rational value of an int, Fraction or mpf."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if hasattr(x, "_mpf_"):
        return fraction_from_raw(x._mpf_)
    raise TypeError(f"cannot take {type(x).__name__} exactly")


# Entries kept by each series memo below: one process running the default
# oracles and rademacher suites left 29930 _cis_pi, 16059 _kloosterman_cached
# and 4072 _dedekind_scaled keys (2234 and 1275 of the first two after
# oracles alone).
SERIES_MEMO_MAXSIZE = 65536


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _dedekind_scaled(h: int, k: int) -> int:
    # 4k^2 s(h,k) for coprime 0 <= h < k: ((r/k)) = (2r - k)/2k, and since
    # hr is never a multiple of k, ((hr/k)) = (2(hr mod k) - k)/2k
    return sum((2 * r - k) * (2 * (h * r % k) - k) for r in range(1, k))


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h,k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)), exact."""
    if k < 1:
        raise PreconditionError("requires k >= 1")
    if math.gcd(h, k) != 1:
        raise PreconditionError("requires gcd(h,k) = 1")
    return Fraction(_dedekind_scaled(h % k, k), 4 * k * k)


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _cis_pi(num: int, den: int, wp: int):
    # (cos, sin) of pi*num/den as raw mpfs at working precision
    x = libmp.from_rational(num, den, wp + 10, "n")
    return libmp.mpf_cos_sin_pi(x, wp, "n")


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _kloosterman_cached(k: int, n_mod_k: int, prec: int):
    wp = prec + 16
    den = 4 * k * k
    re = libmp.fzero
    im = libmp.fzero
    for h in range(k):
        if math.gcd(h, k) != 1:
            continue
        # phase/pi = s(h,k) - 2nh/k = (4k^2 s(h,k) - 8nhk)/4k^2; reduce mod 2
        # and to lowest terms
        num = (_dedekind_scaled(h, k) - 8 * n_mod_k * h * k) % (2 * den)
        g = math.gcd(num, den)
        c, s = _cis_pi(num // g, den // g, wp)
        re = libmp.mpf_add(re, c, wp, "n")
        im = libmp.mpf_add(im, s, wp, "n")
    residue = libmp.mpf_abs(im)
    tol = libmp.from_man_exp(1, -(prec // 2))
    if libmp.mpf_gt(residue, tol):
        raise PrecisionError(
            f"imaginary residue of A_{k}(n) exceeds 2^-{prec // 2}"
        )
    return libmp.mpf_pos(re, prec, "n"), residue


def kloosterman_A(k: int, n: int, prec: int = DEFAULT_PRECISION):
    """A_k(n) = sum over h coprime to k of e^{pi i s(h,k) - 2 pi i n h / k}.

    The sum is real (terms pair off conjugately under h <-> k-h); the
    imaginary part is accumulated anyway and must be below 2^(-prec/2).
    Value depends on n only through n mod k.
    """
    if k < 1:
        raise PreconditionError("requires k >= 1")
    if n < 0:
        raise PreconditionError("requires n >= 0")
    raw, _ = _kloosterman_cached(k, n % k, prec)
    return mpmath.mp.make_mpf(raw)


def kloosterman_imag_residue(k: int, n: int, prec: int = DEFAULT_PRECISION):
    """The leftover imaginary magnitude from evaluating A_k(n); test probe."""
    _, residue = _kloosterman_cached(k, n % k, prec)
    return mpmath.mp.make_mpf(residue)


def _bessel_guard_bits(x: Fraction) -> int:
    # the bracket e^x(1-1/x) + e^{-x}(1+1/x) cancels from size ~1/x down to
    # ~x^2 as x -> 0, costing about 3*log2(1/x) bits
    if x >= 1:
        return 10
    mag = x.denominator.bit_length() - x.numerator.bit_length() + 1
    return 10 + 3 * max(1, mag)


def bessel_I32_closed(x, prec: int = DEFAULT_PRECISION):
    """I_{3/2}(x) by the elementary closed form.

    Starting from the integral representation
        I_{3/2}(x) = x^{3/2} / (2 sqrt(2 pi)) * int_{-1}^{1} (1-t^2) e^{xt} dt,
    the integrand has exact antiderivative
        e^{xt} (1/x - 2/x^3 + 2t/x^2 - t^2/x),
    (the 0..1 piece reduces to incomplete-gamma values Gamma(2,x) and
    Gamma(3,x), both elementary).  Evaluating at t = +-1 gives, exactly,
        int = (2 e^x / x^2)(1 - 1/x) + (2 e^{-x} / x^2)(1 + 1/x),
    so that
        I_{3/2}(x) = [e^x (1 - 1/x) + e^{-x} (1 + 1/x)] / (sqrt(2 pi x)).
    Both exponential terms are kept; nothing is discarded or bounded.

    Evaluated in raw libmp with no mpmath context: x is converted toward
    zero, as from_rational does by default, and every later step rounds to
    nearest at the working precision.
    """
    xf = to_fraction(x)
    if xf <= 0:
        raise PreconditionError("requires x > 0")
    wp = prec + _bessel_guard_bits(xf)
    xm = libmp.from_rational(xf.numerator, xf.denominator, wp)
    ex = libmp.mpf_exp(xm, wp, "n")
    inv = libmp.mpf_rdiv_int(1, xm, wp, "n")
    grow = libmp.mpf_mul(ex, libmp.mpf_sub(libmp.fone, inv, wp, "n"), wp, "n")
    decay = libmp.mpf_mul(libmp.mpf_rdiv_int(1, ex, wp, "n"),
                          libmp.mpf_add(inv, libmp.fone, wp, "n"), wp, "n")
    two_pi_x = libmp.mpf_mul(libmp.mpf_mul_int(libmp.mpf_pi(wp, "n"), 2, wp, "n"), xm, wp, "n")
    val = libmp.mpf_div(libmp.mpf_add(grow, decay, wp, "n"), libmp.mpf_sqrt(two_pi_x, wp, "n"),
                        wp, "n")
    return mpmath.mp.make_mpf(libmp.mpf_pos(val, prec, "n"))


# the domain of both Bessel oracles; the series needs about 7100 terms at the top
_ORACLE_X_MAX = 10**4


def bessel_I32_series(x, prec: int = DEFAULT_PRECISION):
    """I_{3/2}(x) for rational 0 < x <= 10^4 from its power series.

    Independent oracle for bessel_I32_closed (DLMF 10.25.2 at nu = 3/2):
        I_{3/2}(x) = x sqrt(2x/pi) / 3 * S,  S = sum_m t_m,
        t_0 = 1,  t_{m+1} = t_m x^2 / ((m+1)(4m+10)).
    For x = a/b, S is summed in integer fixed point twice, with every term
    rounded down and with every term rounded up.  Once the term ratio is at
    most 1/2 it only falls, so the tail after t_m is at most 2 t_{m+1}; the
    sum stops when that bound is below 2^-(prec+19) of the lower sum.  A
    bracket wider than 2^-(prec//2) relative raises PrecisionError.  No
    exponential is evaluated, so no step is shared with the closed form.
    """
    xf = to_fraction(x)
    if not 0 < xf <= _ORACLE_X_MAX:
        raise PreconditionError("requires 0 < x <= 10^4")
    a2, b2 = xf.numerator ** 2, xf.denominator ** 2
    wp = prec + 30
    term_lo = term_hi = low = high = 1 << wp
    for m in itertools.count():
        den = b2 * (m + 1) * (4 * m + 10)
        term_lo = term_lo * a2 // den
        term_hi = -(-term_hi * a2 // den)
        # t_{m+2}/t_{m+1} <= 1/2, and 2 t_{m+1} < 2^-(prec+19) low
        if (2 * a2 <= b2 * (m + 2) * (4 * m + 14)
                and term_hi.bit_length() + prec + 20 < low.bit_length()):
            high += 2 * term_hi
            break
        low += term_lo
        high += term_hi
    if (high - low) << (prec // 2) > low:
        raise PrecisionError(f"series bracket wider than 2^-{prec // 2} relative")
    s = libmp.from_man_exp(low + high, -(wp + 1), wp, "n")
    xm = libmp.from_rational(xf.numerator, xf.denominator, wp, "n")
    two_x_over_pi = libmp.mpf_div(libmp.mpf_shift(xm, 1), libmp.mpf_pi(wp, "n"), wp, "n")
    root = libmp.mpf_sqrt(two_x_over_pi, wp, "n")
    val = libmp.mpf_mul(libmp.mpf_mul(xm, root, wp, "n"), s, wp, "n")
    val = libmp.mpf_div(val, libmp.from_int(3), wp, "n")
    return mpmath.mp.make_mpf(libmp.mpf_pos(val, prec, "n"))


# Kept for perfbench's tracer, which patches it by name, and as the third
# independent form that tier-1 compares with the other two.
def bessel_I32_quadrature(x, prec: int = DEFAULT_PRECISION):
    """I_{3/2}(x) by adaptive quadrature of the integral representation.

    Independent oracle for bessel_I32_closed; the integrand (1-t^2)e^{xt}
    is positive on (-1,1), so there is no cancellation to manage.
    """
    xf = to_fraction(x)
    if not 0 < xf <= _ORACLE_X_MAX:
        raise PreconditionError("requires 0 < x <= 10^4")
    wp = prec + 30
    ctx = mp_context(wp)
    xm = ctx.convert(xf)

    def integrand(t):
        return (1 - t * t) * ctx.exp(xm * t)

    val, err = ctx.quad(integrand, [-1, 0, 1], error=True, maxdegree=10)
    val = val * ctx.sqrt(xm) * xm / (2 * ctx.sqrt(2 * ctx.pi))
    err = err * ctx.sqrt(xm) * xm / (2 * ctx.sqrt(2 * ctx.pi))
    if not val > 0 or err > abs(val) * ctx.mpf(2) ** (-(prec // 2)):
        raise PrecisionError("quadrature failed to reach the target accuracy")
    return mpmath.mp.make_mpf(libmp.mpf_pos(val._mpf_, prec, "n"))

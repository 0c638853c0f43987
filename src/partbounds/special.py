"""The Kloosterman-type sums A_k(n) and the I_{3/2} Bessel function at
configurable precision.

Every value leaves as a raw libmp float (sign, man, exp, bc) rounded to
nearest at the requested precision, so bc <= prec, never as an mpf of
mpmath's 53-bit global context; enclosure.fraction_from_raw decodes one.

Dedekind sums are kept as the exact integers 4k^2 s(h,k).  A_k(n) is a
finite sum of phi(k) unit complex numbers whose phases are integers over
4k^2 times pi; it is evaluated in rectangular form with the phase reduced
mod 2 before any rounding, so no cancellation error builds up for large k.
The phases come from one table per k (_phases), shared by the k residues
n mod k.  Each (cos, sin) is memoized once as integers over 2^(prec+16),
each within 2^-(prec+16) of its value, and the phi(k) integers are added
exactly, so the sum is within phi(k) 2^-(prec+16) of A_k(n).  It is
rounded once, to nearest at prec bits, which adds at most |A_k(n)| 2^-prec
(and |A_k(n)| <= phi(k)), so A_k(n) leaves within phi(k) 2^-(prec-1) of
its value.  The Bessel function has three independent forms:

* bessel_I32_closed, the elementary closed form: the trusted path, read by
  rademacher_round, which passes its arguments as raw floats; a raw
  argument gives the bits of its value passed as a Fraction;
* bessel_I32_series, the power series summed in exact integer brackets: the
  oracle the `oracles` suite checks the closed form against;
* bessel_I32_quadrature, adaptive quadrature in mp_context, the package's one
  mpmath context: read only by the tier-1 tests, which compare all three forms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from mpmath import libmp
from mpmath.ctx_mp import MPContext

from .enclosure import DEFAULT_PRECISION, PRECISION_MEMO_MAXSIZE
from .errors import PrecisionError, PreconditionError


@lru_cache(maxsize=PRECISION_MEMO_MAXSIZE)
def mp_context(prec: int) -> MPContext:
    """A cached mpmath context pinned at the given precision, for
    bessel_I32_quadrature and the tests; the global context is never touched,
    and no mpf of this one leaves the module."""
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def to_fraction(x) -> Fraction:
    """An int or Fraction x as a Fraction; any other type is a TypeError."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot take {type(x).__name__} exactly")


# Entries kept by each series memo below: one process running the default
# oracles and rademacher suites left 3852 _cis_pi, 2149 _kloosterman_cached,
# 774 _dedekind_scaled and 50 _phases keys (2234 and 1275 of the first two
# after oracles alone).  A _cis_pi entry is two integers of about prec + 16
# bits, a _phases entry phi(k) pairs of integers.
SERIES_MEMO_MAXSIZE = 65536


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _dedekind_scaled(h: int, k: int) -> int:
    # 4k^2 s(h,k) for coprime 0 <= h < k: ((r/k)) = (2r - k)/2k, and since
    # hr is never a multiple of k, ((hr/k)) = (2(hr mod k) - k)/2k
    return sum((2 * r - k) * (2 * (h * r % k) - k) for r in range(1, k))


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _phases(k: int) -> tuple:
    # (4k^2 s(h,k), 8hk) for each 0 <= h < k coprime to k: term h of A_k(n)
    # has phase pi (4k^2 s(h,k) - 8nhk)/4k^2, shared by every n mod k
    return tuple((_dedekind_scaled(h, k), 8 * h * k)
                 for h in range(k) if math.gcd(h, k) == 1)


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _cis_pi(num: int, den: int, wp: int):
    # (cos, sin) of pi*num/den, 0 <= num/den < 2, as integers over 2^wp, each
    # within 2^-wp: the argument rounded at wp + 10 bits moves them by under
    # 2^-(wp+8), the values at wp + 2 bits are off by at most 2^-(wp+2), and
    # rounding to the nearest integer adds 2^-(wp+1)
    x = libmp.from_rational(num, den, wp + 10, "n")
    return tuple(libmp.to_int(libmp.mpf_shift(v, wp), "n")
                 for v in libmp.mpf_cos_sin_pi(x, wp + 2, "n"))


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _kloosterman_cached(k: int, n_mod_k: int, prec: int):
    # fixed point at 16 guard bits; the error bound is in the module docstring
    wp = prec + 16
    den = 4 * k * k
    re = im = 0
    for dedekind, step in _phases(k):
        # phase/pi reduced mod 2 and to lowest terms
        num = (dedekind - n_mod_k * step) % (2 * den)
        g = math.gcd(num, den)
        c, s = _cis_pi(num // g, den // g, wp)
        re += c
        im += s
    if abs(im) > 1 << (wp - prec // 2):
        raise PrecisionError(
            f"imaginary residue of A_{k}(n) exceeds 2^-{prec // 2}"
        )
    return libmp.from_man_exp(re, -wp, prec, "n"), libmp.from_man_exp(abs(im), -wp, prec, "n")


def kloosterman_A(k: int, n: int, prec: int = DEFAULT_PRECISION):
    """A_k(n) = sum over h coprime to k of e^{pi i s(h,k) - 2 pi i n h / k},
    rounded to nearest at prec bits and within phi(k) 2^-(prec-1) of its
    value (see the module docstring).

    The sum is real (terms pair off conjugately under h <-> k-h); the
    imaginary part is accumulated anyway and must be below 2^(-prec/2).
    Value depends on n only through n mod k.
    """
    if k < 1:
        raise PreconditionError("requires k >= 1")
    if n < 0:
        raise PreconditionError("requires n >= 0")
    return _kloosterman_cached(k, n % k, prec)[0]


def kloosterman_imag_residue(k: int, n: int, prec: int = DEFAULT_PRECISION):
    """The leftover imaginary magnitude from evaluating A_k(n), which is
    real; the oracles suite gates on it and reports its largest value."""
    return _kloosterman_cached(k, n % k, prec)[1]


def _bessel_guard_bits(x: Fraction) -> int:
    # the bracket e^x(1-1/x) + e^{-x}(1+1/x) cancels from size ~1/x down to
    # ~x^2 as x -> 0, costing about 3*log2(1/x) bits
    if x >= 1:
        return 10
    mag = x.denominator.bit_length() - x.numerator.bit_length() + 1
    return 10 + 3 * max(1, mag)


def _raw_guard_bits(x) -> int:
    # _bessel_guard_bits of a positive raw float man 2^exp, read off its
    # exponent: the value is at least 1 exactly when exp + bc >= 1; below 1
    # its lowest terms are an odd bc-bit numerator over 2^-exp, so mag is
    # (1 - exp) - bc + 1 >= 2.  Normalizing a mantissa keeps exp + bc.
    _, _, exp, bc = x
    top = exp + bc
    return 10 if top >= 1 else 10 + 3 * (2 - top)


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

    x is an int, a Fraction or a raw libmp float; rademacher_round passes
    its dyadic arguments X/k raw, with no detour through a Fraction.
    Evaluated in raw libmp with no mpmath context: x is converted toward
    zero at the working precision, as from_rational does by default (a raw
    x of at most that many bits converts exactly), and every later step
    rounds to nearest.  A raw x gets the guard bits of its value's
    Fraction, read off its exponent, so both forms of one value give the
    same bits.
    """
    if isinstance(x, tuple):
        if x[0] or not x[1]:  # negative, zero or not finite
            raise PreconditionError("requires x > 0")
        wp = prec + _raw_guard_bits(x)
        xm = libmp.mpf_pos(x, wp, "d")
    else:
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
    return libmp.mpf_pos(val, prec, "n")


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
    return libmp.mpf_pos(val, prec, "n")


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
    return libmp.mpf_pos(val._mpf_, prec, "n")

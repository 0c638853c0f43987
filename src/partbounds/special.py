"""The Kloosterman-type sums A_k(n) and the I_{3/2} Bessel function at
configurable precision.

Every value leaves as a raw libmp float (sign, man, exp, bc) rounded to
nearest at the requested precision, so bc <= prec, never as an mpf of
mpmath's 53-bit global context; enclosure.fraction_from_raw decodes one.

Kloosterman sums.  Dedekind sums are kept as the exact integers
4k^2 s(h,k), so every phase of A_k(n) is pi j / 4k^2 for an integer
0 <= j < 8k^2, reduced mod 2 before any rounding (_phases holds the
integers of each h, shared by every n mod k).  Term h is then omega^j with
omega = e^{i pi / 4k^2}.  Per (k, prec), _root_table takes omega from one
mpf_cos_sin_pi and holds small[b] = omega^b (b < B) and big[a] = omega^{aB}
(aB < 8k^2), with B^2 >= 8k^2 > (B-1)^2, as integer pairs (cos, sin) over
2^w, w = prec + 21 + 2 bitlen(k).  Term h is the product big[a] small[b],
j = aB + b, kept exact over 2^(2w), and the phi(k) products are added
exactly.  Error, with u = 2^-w:
* omega's cos and sin are each within 0.76u: the argument rounded at w + 10
  bits moves them by under 2^-(w+8), the values at w + 2 bits are off by at
  most 2^-(w+2), and rounding to an integer adds 2^-(w+1).  So omega is
  within 1.07u as a complex number;
* a product of entries within e and e' of two unit numbers is within
  e + e' + ee' of theirs, and rounding it to nearest adds at most 0.71u.
  Every error here stays below 2^-(prec+16), so the ee' terms are far
  below u and are left out of the constants;
* so small[b] is within 1.8bu, the step omega^B within 1.8Bu, and big[a]
  within (1.8B + 0.71)au.  The exact product big[a] small[b] is within
  (1.8j + 0.71a)u < 16.6k^2 u of omega^j, since j < 8k^2 and a < B <= 3k;
* k^2 < 4^bitlen(k) makes that at most (16.6/32) 2^-(prec+16).
The sum is therefore within phi(k) 2^-(prec+16) of A_k(n).  It is rounded
once, to nearest at prec bits, which adds at most |A_k(n)| 2^-prec (and
|A_k(n)| <= phi(k)).  So A_k(n) leaves within phi(k) 2^-(prec-1) of its
value.

Bessel kernel.  _bessel_fixed(xw, w) evaluates the closed form at
x = xw 2^-w in fixed point over 2^w: E = fixed.exp(xw, w),
F = floor(2^(2w) / E), the bracket B_w = E + F - floor((E - F) 2^w / xw),
and floor(B_w 2^w / isqrt(2 fixed.pi(w) xw)).  For w >= 16, x >= 2^(-w/2)
and lambda <= 2^(w-2) it is within

    Delta_w(x) = lambda (e^x + 3)(1 + 1/x) / sqrt(2 pi x) + 2,
    lambda = 1.01 x / ln 2 + 3 sqrt(w) + 10,

units 2^-w of I_{3/2}(x), because:
* E is within lambda_0 e^x units, lambda_0 = x / ln 2 + 3 sqrt(w) + 8, by
  fixed's exponential lemma, whose step read off libmp is the one step not
  proved here;
* F is within 2 lambda_0 e^-x + 1 units of e^-x 2^w;
* the sum adds the two errors, the quotient divides them by x and truncates
  once.  So B_w is within (lambda_0 + 1/4)(e^x + 3)(1 + 1/x) units of
  (2 cosh x - 2 sinh(x)/x) 2^w;
* fixed.pi(w) is within a unit (fixed), so the isqrt is within a relative
  eps <= (1/pi + 1/sqrt(2 pi x)) 2^-w <= 2^(-3w/4) of sqrt(2 pi x) 2^w;
* dividing by it scales B_w's error by at most 1 + 2 eps and adds at most
  2 eps I(x) 2^w, which is below 1.44 (e^x + 3)(1 + 1/x) / sqrt(2 pi x)
  units as I(x) <= (e^x + 1) / sqrt(2 pi x); the floor adds one unit.
  (1 + 2 eps)(lambda_0 + 1/4) + 1.44 <= lambda gives Delta_w(x).
Floored-argument lemma: for arguments x' <= x at most m units 2^-w apart,
0 <= I(x) - I(x') <= m e^x / sqrt(2 pi x) 2^-w, as 0 <= I_{3/2}' <= I_{1/2},
which increases, and I_{1/2}(x) = (e^x - e^-x) / sqrt(2 pi x).

Relative bound.  Let g = _bessel_guard_bits, 0 < y0 <= y1, and w < 2^16
with w >= prec + 16 + max(g(y0), g(y1)).  For y in [y0, y1] and y' in
[y - 2^-w, y], the kernel's preconditions hold at y',
Delta_w(y') < 2^-(prec+12) I(y') 2^w, and I(y) - I(y') < 2^-(prec+24) I(y).
Let m = 0 if y0 >= 1, and otherwise g(y0) = 10 + 3m, so y0 > 2^-m; then
w >= prec + 26 + 3m, y' > 2^-m - 2^-w, and lambda < 1.46 y' + 778 meet the
preconditions.  With B the bracket 2 cosh y - 2 sinh(y)/y:
* for y' >= 1, (e^y' + 3)(1 + 1/y') <= 15.6 B(y') and 2 <= 6.9 I(y') bound
  Delta_w(y') / I(y') by 15.6 lambda + 6.9 < 2^14 y' < 2^(g(y1)+4);
* below 1, B(y') >= 2y'^2/3 bounds it by (17.2 lambda + 7.6) y'^-3 <
  2^(14+3m) <= 2^(g(y0)+4); and 2^(g+4) <= 2^-(prec+12) 2^w either way;
* by the lemma above the floor costs e^y / B(y) 2^-w relative: at most
  3.7 2^-(prec+27) for y >= 1, and below 1, where e^y / B < 4.1 y^-2, under
  4.1 2^(2m) 2^-(prec+26+3m).
A wider w never loosens the bound: lambda(w) 2^-w decreases for w >= 16,
its log-derivative being 3/(2 lambda sqrt w) - ln 2 < 0.  bessel_I32_closed
reads it at y0 = y1 = x, with x rounded down to w = prec + 16 + g(x) bits,
and rounds once, to nearest at prec bits: within (1 + 2^-11) 2^-prec of
I_{3/2}(x) relative.

The Bessel function has three independent forms:

* bessel_I32_closed, the elementary closed form on the fixed-point kernel,
  which rademacher_round and the registry's bessel-tail-sum also read
  directly;
* bessel_I32_series, the power series summed in exact integer brackets: the
  oracle the `oracles` suite checks the closed form against;
* bessel_I32_quadrature, adaptive quadrature in mp_context, the package's one
  mpmath context: read only by the tier-1 tests, which compare all three forms.

Decay kernel.  The envelope h(x) = C1 x e^{-b1 sqrt x} + C2 sqrt(x)
e^{-b2 sqrt x}, with C1 = 2 pi^2/3, C2 = 8 pi/sqrt 3, b1 = pi sqrt(2/3) and
b2 = pi/(2 sqrt 2), and its decay factor d(x) = sqrt(x) e^{-b2 sqrt x}.
_decay_fixed(p, q, w), for integers p, q >= 1 and w >= 16, returns integers
(H, D, E, z) with h(p/q) and d(p/q) within E 2^-z of H 2^-z and D 2^-z.  The
scale 2^-z is kept apart from the integers (z grows like 2 sqrt x bits), so
e^-300 is a mantissa, not an underflow.  With e = bitlen(p) - bitlen(q), so
2^(e-1) < x < 2^(e+1), it works at v = w + 8 + floor((|e| + 1)/2) bits;
"units" are 2^-v or 2^-w as stated.  Every factor is an exact integer with a
relative error, so the point's total error is bounded once:
* _decay_constants(v), kept in fixed.at_width, floors once the products of
  fixed.pi(v), within a unit, and the floor roots of 2, 3 and 6 over 2^v
  (fixed): b1 and b2 within 3 units, C1 within 5.2 and C2 within 14.1, so
  each C within 2^-v relative;
* N = floor(x 4^v) and S = isqrt(N), the floor root, have S > 2^(w+7) by
  the choice of v, and sqrt(x) 2^v - 2 < S <= sqrt(x) 2^v: S within
  2^-(w+6) relative, N within 2^-(2w+14);
* for t = b sqrt x, T = floor(B S 2^-v) is within delta = 3 sqrt x + 6.2
  units of t 2^v, and fixed.exp_neg(T, v, w) gives E1 (for b1) or E2 (for
  b2) and n, with e^-t = 2^-n e^u and n < 3.71 sqrt x + 1.01.  As
  sqrt x < 2^((e+1)/2), (n + delta) 2^-v is under 0.07 2^-w, so fixed's
  reduction lemma puts the reduced argument u' within 1.07 2^-w of u and
  the exponential within (3 sqrt w + 9.01) e^u' units; with e^u' within
  1.071 2^-w of e^u relative, it is within (3 sqrt w + 10.1) 2^-w of e^u 2^w
  relative;
* each of D' = S E2 and the terms C2 S E2 and C1 N E1 is an exact product
  of factors within those relative errors, so within rho = (3 sqrt w + 10.2)
  2^-w of d, or of h's term, times 2^(v+w+n2), 2^(2v+w+n2) and 2^(3v+w+n1);
* z = 2v + w + n2.  D = D' 2^v is exact, and the first term is brought to
  2^-z by a floor shift of v + n1 - n2 >= v bits (n1 >= n2, as B1 > B2), one
  unit: |H - h 2^z| <= rho h 2^z + 1 and |D - d 2^z| <= rho d 2^z, where
  d <= h / C2;
* E = floor(H lambda 2^-w) + 2 with lambda = 3 floor(sqrt w) + 14 >=
  3 sqrt w + 11 covers both, since h 2^z <= (H + 1)/(1 - rho).
With first false the kernel skips h's first term, so H is C2 D alone and E
bounds D's error the same way.  rademacher._h_ends rounds [H - E, H + E]
2^-z outward for h_error and proposition21_interval; the registry reads
the integers themselves: tail-envelope-15, correction-sum-099 and
collapse-1350 H, D and E, and shifted-envelope-11 D and E.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from mpmath import libmp
from mpmath.ctx_mp import MPContext

from . import fixed
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
# oracles and rademacher suites left 121 _root_table, 2149 _kloosterman_cached,
# 774 _dedekind_scaled and 50 _phases keys (50 and 1275 of the first two
# after oracles alone).  A _root_table entry is about 2 sqrt(8) k pairs of
# integers of prec + 2 log2 k + 21 bits, so it has a bound of its own; the
# rounds read one 32-bit band of precisions at a time, and k <= 42 up to the
# rademacher suite's ceiling n = 6000.
SERIES_MEMO_MAXSIZE = 65536
ROOT_TABLE_MAXSIZE = 256


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


@lru_cache(maxsize=ROOT_TABLE_MAXSIZE)
def _root_table(k: int, prec: int):
    """(w, B, small, big): the powers of omega = e^{i pi / 4k^2} as pairs of
    integers (cos, sin) over 2^w, w = prec + 21 + 2 bitlen(k): small[b] =
    omega^b for b < B and big[a] = omega^{aB} for aB < 8k^2, B = the least
    integer with B^2 >= 8k^2.  The error bound is in the module docstring."""
    w = prec + 21 + 2 * k.bit_length()
    period = 8 * k * k
    size = math.isqrt(period - 1) + 1
    half = 1 << (w - 1)

    def times(p, q):
        return ((p[0] * q[0] - p[1] * q[1] + half) >> w, (p[0] * q[1] + p[1] * q[0] + half) >> w)

    x = libmp.from_rational(1, 4 * k * k, w + 10, "n")
    root = tuple(libmp.to_int(libmp.mpf_shift(v, w), "n")
                 for v in libmp.mpf_cos_sin_pi(x, w + 2, "n"))
    small = [(1 << w, 0), root]
    while len(small) <= size:
        small.append(times(small[-1], root))
    stride = small.pop()
    big = [(1 << w, 0)]
    while len(big) * size < period:
        big.append(times(big[-1], stride))
    return w, size, tuple(small), tuple(big)


@lru_cache(maxsize=SERIES_MEMO_MAXSIZE)
def _kloosterman_cached(k: int, n_mod_k: int, prec: int):
    # each term omega^j = big[a] small[b], j = aB + b, summed exactly over
    # 2^(2w); the error bound is in the module docstring
    w, size, small, big = _root_table(k, prec)
    period = 8 * k * k
    re = im = 0
    for dedekind, step in _phases(k):
        a, b = divmod((dedekind - n_mod_k * step) % period, size)
        c, s = big[a]
        c2, s2 = small[b]
        re += c * c2 - s * s2
        im += c * s2 + s * c2
    if abs(im) > 1 << (2 * w - prec // 2):
        raise PrecisionError(
            f"imaginary residue of A_{k}(n) exceeds 2^-{prec // 2}"
        )
    return (libmp.from_man_exp(re, -2 * w, prec, "n"),
            libmp.from_man_exp(abs(im), -2 * w, prec, "n"))


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
    # ~x^2 as x -> 0, costing about 3*log2(1/x) bits; above 1, fixed.exp's
    # reduction by ln 2 costs about log2(x) bits
    if x >= 1:
        return 10 + (x.numerator // x.denominator).bit_length()
    mag = x.denominator.bit_length() - x.numerator.bit_length() + 1
    return 10 + 3 * max(1, mag)


def _bessel_fixed(xw: int, w: int) -> int:
    """I_{3/2}(x) 2^w as an integer, for x = xw 2^-w, by the closed form
    [(e^x + e^-x) - (e^x - e^-x)/x] / sqrt(2 pi x) in fixed point at w
    fractional bits: fixed.exp, one integer reciprocal for e^-x and one
    isqrt.  Within Delta_w(x) of I_{3/2}(x) 2^w (module docstring)."""
    ex = fixed.exp(xw, w)
    inv = (1 << 2 * w) // ex
    bracket = ex + inv - ((ex - inv) << w) // xw
    return (bracket << w) // math.isqrt(2 * fixed.pi(w) * xw)


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

    x is an int or a Fraction; the value is within (1 + 2^-11) 2^-prec of
    I_{3/2}(x) relative while the kernel's w = prec + 16 +
    _bessel_guard_bits(x) is below 2^16 (module docstring).  e^x is held as
    an integer of about 1.44x + w bits, so the cost grows with x: the
    oracles suite reads x <= 1000, and the kernel's other callers less, the
    rounds X < 200 (n <= 6000) and the registry x/k <= 50.
    """
    xf = to_fraction(x)
    if xf <= 0:
        raise PreconditionError("requires x > 0")
    w = prec + _bessel_guard_bits(xf) + 16
    value = _bessel_fixed((xf.numerator << w) // xf.denominator, w)
    return libmp.from_man_exp(value, -w, prec, "n")


# fractional bits of the decay kernel above the precision of its callers' ends
DECAY_GUARD = 20


def _decay_constants(v: int):
    # b1 = pi sqrt(2/3), b2 = pi/(2 sqrt 2), C1 = 2 pi^2/3 and C2 = 8 pi/sqrt 3
    # over 2^v, within the units of the module docstring; read through
    # fixed.at_width
    pi = fixed.pi(v)
    r2, r3, r6 = (fixed.floor_root(k, 1, v) for k in (2, 3, 6))
    return (pi * r6 // (3 << v), pi * r2 // (4 << v), 2 * pi * pi // (3 << v),
            8 * pi * r3 // (3 << v))


def _decay_fixed(p: int, q: int, w: int, first: bool = True):
    """(H, D, E, z): h(x) and d(x) = sqrt(x) e^{-(pi/2) sqrt(x/2)} at
    x = p/q > 0 lie within E 2^-z of H 2^-z and D 2^-z, for w >= 16; with
    first false, H is h's second term C2 d(x) alone.  The proof is in the
    module docstring."""
    e = p.bit_length() - q.bit_length()
    v = w + 8 + (abs(e) + 1) // 2
    b1, b2, c1, c2 = fixed.at_width(_decay_constants, v)
    big = (p << 2 * v) // q
    root = math.isqrt(big)
    e2, n2 = fixed.exp_neg(b2 * root >> v, v, w)
    d = root * e2
    h = c2 * d
    if first:
        e1, n1 = fixed.exp_neg(b1 * root >> v, v, w)
        h += c1 * big * e1 >> (v + n1 - n2)
    return h, d << v, (h * (3 * math.isqrt(w) + 14) >> w) + 2, 2 * v + w + n2


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

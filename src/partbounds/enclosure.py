"""Outward-rounded interval arithmetic over mpmath's directed-rounding kernels.

An Enclosure is a pair of binary floats [lo, hi] at an explicit precision P
(bits of significand) with the contract that the represented real quantity
lies inside the interval.  Every operation rounds the lower endpoint toward
-inf and the upper endpoint toward +inf, so the contract survives arbitrary
compositions of +, -, *, /, sqrt and exp.

Exact integers and fractions enter through directed conversion, never through
a float, so enclosures built from exact data are correct by construction.
Precision is always an argument; no global mpmath state is touched.

The _*_ends helpers are that arithmetic on raw (lo, hi) pairs, for Enclosure
and the raw-libmp kernels alike.  Each checks the order of the pair it
returns, so an interval is checked once, where it is built; only
Enclosure(lo, hi, prec) called from outside checks its own arguments.
Inside the package every interval is such a checked pair, constants(prec)
included; an Enclosure is built only where a public function returns one.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from mpmath import libmp

DEFAULT_PRECISION = 128

# Entries kept by each precision-keyed memo (constants, special.mp_context,
# inequalities._raw_constants): a run uses its working precision and 64 bits
# for Lehmer's bound or 30 more.
PRECISION_MEMO_MAXSIZE = 4

# Entries kept by each per-index memo: the k-rank memo and
# estimates.shifted_terms.  shifted_terms sees at most 5000 keys in a default
# run (n <= 5000 in the ratio and f(j,n) sweeps; convexity builds none, since
# its chain is skipped below estimates._chain_floor), but each sweep reads all
# shifts of one index before the next, so eviction costs no rebuild.
MEMO_MAXSIZE = 4096

_DOWN = "f"  # toward -inf
_UP = "c"    # toward +inf

# Extra outward ulps applied after transcendental endpoint evaluations.
# libmp computes exp/pi with guard bits and then rounds directionally; the
# guard-bit argument is empirical rather than proven, so we pad the result.
_TRANSCENDENTAL_SLACK = 8
# The pad of a p-bit float x is |x| * 2^(_PAD_SHIFT - p), exact by a shift of
# the exponent, which needs the slack to be a power of two.
_PAD_SHIFT = _TRANSCENDENTAL_SLACK.bit_length() - 1
assert _TRANSCENDENTAL_SLACK == 1 << _PAD_SHIFT

_add = libmp.mpf_add
_sub = libmp.mpf_sub
_mul = libmp.mpf_mul
_div = libmp.mpf_div
_neg = libmp.mpf_neg
_normalize = libmp.normalize
_normalize1 = libmp.normalize1
_new = object.__new__

ORDER_ERROR = "interval endpoints out of order"
NON_FINITE_ERROR = "non-finite float has no rational value"

ExactScalar = (int, Fraction)


def ratio_pair(p: int, q: int, prec: int):
    """(floor, ceiling) of p/q at prec bits, as raw libmp floats.

    The bits of from_rational(p, q, prec, "f") and (..., "c"), from the one
    quotient-and-sticky-bit step that mpf_div takes, normalized once in each
    direction.
    """
    if not q:
        raise ZeroDivisionError("ratio_pair with q = 0")
    if not p:
        return libmp.fzero, libmp.fzero
    sign = (p < 0) != (q < 0)
    p = abs(p)
    q = abs(q)
    # odd parts and exponents, as from_int leaves them
    pz = (p & -p).bit_length() - 1
    qz = (q & -q).bit_length() - 1
    man = p >> pz
    den = q >> qz
    exp = pz - qz
    if den == 1:
        bc = man.bit_length()
        return (_normalize1(sign, man, exp, bc, prec, _DOWN),
                _normalize1(sign, man, exp, bc, prec, _UP))
    extra = max(prec - man.bit_length() + den.bit_length() + 5, 5)
    quot, rem = divmod(man << extra, den)
    norm = _normalize
    if rem:
        quot = (quot << 1) | 1
        extra += 1
        norm = _normalize1
    bc = quot.bit_length()
    exp -= extra
    return norm(sign, quot, exp, bc, prec, _DOWN), norm(sign, quot, exp, bc, prec, _UP)


def _exact_pair(value, prec):
    # (floor, ceiling) of an int or Fraction at prec bits
    if isinstance(value, Fraction):
        return ratio_pair(value.numerator, value.denominator, prec)
    if isinstance(value, int):
        return ratio_pair(value, 1, prec)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def ordered(lo, hi) -> bool:
    """lo <= hi for raw libmp floats, decided as `not mpf_gt(lo, hi)` does.

    Two endpoints of one enclosure nearly always share their sign and top
    bit, where mpf_cmp would subtract; their aligned mantissas compare as
    integers instead.
    """
    lsign, lman, lexp, lbc = lo
    hsign, hman, hexp, hbc = hi
    if lman and hman and lsign == hsign and lexp + lbc == hexp + hbc:
        if lexp > hexp:
            lman <<= lexp - hexp
        else:
            hman <<= hexp - lexp
        return lman >= hman if lsign else lman <= hman
    return not libmp.mpf_gt(lo, hi)


def _checked(lo, hi):
    # the one endpoint-order check: each _*_ends helper and Enclosure() return
    # through it
    if not ordered(lo, hi):
        raise ValueError(ORDER_ERROR)
    return lo, hi


def _ratio_ends(p: int, q: int, prec: int):
    """Raw endpoints of p/q at prec bits: ratio_pair, order-checked."""
    return _checked(*ratio_pair(p, q, prec))


def _int_ends(v: int, prec: int):
    """Raw endpoints of an int operand at prec bits, as Enclosure arithmetic
    reads one: exact (from_int) when it fits in prec bits, else ratio_pair's."""
    if v.bit_length() <= prec:
        raw = libmp.from_int(v)
        return _checked(raw, raw)
    return _ratio_ends(v, 1, prec)


def _exact_ends(value, prec: int):
    """Raw endpoints of an exact int or Fraction at prec bits, as
    Enclosure.from_exact rounds it: _exact_pair, order-checked."""
    return _checked(*_exact_pair(value, prec))


def _decoded(raw):
    # (M, e) with raw = M 2^e, for a finite raw float
    sign, man, exp, _ = raw
    if not man and exp:
        raise ValueError(NON_FINITE_ERROR)
    return (-int(man) if sign else int(man)), exp


def scaled_ends(lo, hi):
    """(L, H, k) with lo = L/2^k and hi = H/2^k for finite raw floats, k >= 0."""
    L, le = _decoded(lo)
    H, he = _decoded(hi)
    k = max(0, -le, -he)
    return L << (le + k), H << (he + k), k


def _margin(lo, hi, value) -> Fraction:
    # Enclosure.containment_margin on raw ends; contains reads its sign here,
    # not through the method, so perfbench's tracer counts one decision per
    # contains.  v = a/b and the ends L/2^k, H/2^k share the denominator b 2^k
    v = value if isinstance(value, ExactScalar) else Fraction(value)
    a, b = v.numerator, v.denominator
    L, H, k = scaled_ends(lo, hi)
    a <<= k
    margin = min(a - L * b, H * b - a)
    return Fraction(margin, b << k if H == L else b * (H - L))


def fraction_from_raw(raw):
    """Exact rational value of a finite raw libmp float."""
    m, e = _decoded(raw)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


# Wide enough that scaleb and normalize below never round; str(int) would
# refuse a string of more than 4300 digits, Decimal's own rendering does not.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)


def exact_decimal(num: int, k: int) -> str:
    """Exact decimal string of num/2^k, k >= 0.

    Such numbers always have a terminating decimal expansion, so the string is
    lossless; num/2^k need not be in lowest terms.  Used to serialize interval
    endpoints.
    """
    # num/2^k == num*5^k / 10^k
    value = decimal.Decimal(num * 5**k).scaleb(-k, _EXACT_DECIMAL)
    return format(value.normalize(_EXACT_DECIMAL), "f")


def _widen_raw(raw, prec, rnd):
    # Pad a transcendental result outward by _TRANSCENDENTAL_SLACK ulps.
    _, man, exp, bc = raw
    if man and bc <= prec:
        # |raw| * slack * 2^-prec has at most prec bits, so it is exact
        pad = (0, man, exp + _PAD_SHIFT - prec, bc)
    else:
        pad = libmp.mpf_mul(
            libmp.mpf_abs(raw),
            libmp.from_man_exp(_TRANSCENDENTAL_SLACK, -prec),
            prec,
            _UP,
        )
    if rnd == _DOWN:
        return libmp.mpf_sub(raw, pad, prec, _DOWN)
    return libmp.mpf_add(raw, pad, prec, _UP)


def _neg_ends(x):
    """Raw endpoints of -x; negation is exact."""
    return _checked(_neg(x[1]), _neg(x[0]))


def _add_ends(x, y, p):
    """Raw endpoints of x + y at p bits, rounded outward."""
    return _checked(_add(x[0], y[0], p, _DOWN), _add(x[1], y[1], p, _UP))


def _sub_ends(x, y, p):
    """Raw endpoints of x - y at p bits, rounded outward."""
    return _checked(_sub(x[0], y[1], p, _DOWN), _sub(x[1], y[0], p, _UP))


def _widen_ends(x, r, p):
    """Raw endpoints of x +- r at p bits, for an upper radius r >= 0."""
    return _checked(_sub(x[0], r, p, _DOWN), _add(x[1], r, p, _UP))


def _sqrt_ends(x, p):
    """Raw endpoints of sqrt(x) at p bits; x must not reach below zero."""
    if libmp.mpf_lt(x[0], libmp.fzero):
        raise ValueError("sqrt of an interval reaching below zero")
    # libmp square root is integer-based and honors directed rounding.
    return _checked(libmp.mpf_sqrt(x[0], p, _DOWN), libmp.mpf_sqrt(x[1], p, _UP))


def _exp_ends(x, p):
    """Raw endpoints of exp(x) at p bits, padded outward."""
    return _checked(_widen_raw(libmp.mpf_exp(x[0], p, _DOWN), p, _DOWN),
                    _widen_raw(libmp.mpf_exp(x[1], p, _UP), p, _UP))


def _hull(op, a, b, c, d, p):
    # Outward hull of op over the four endpoint pairs of [a, b] and [c, d]:
    # the least downward and the greatest upward result.
    lo = None
    hi = None
    for x, y in ((a, c), (a, d), (b, c), (b, d)):
        down = op(x, y, p, _DOWN)
        up = op(x, y, p, _UP)
        if lo is None or libmp.mpf_lt(down, lo):
            lo = down
        if hi is None or libmp.mpf_gt(up, hi):
            hi = up
    return lo, hi


def _mul_ends(x, y, p):
    """Raw endpoints of x * y at p bits, rounded outward."""
    # Sign-case table: unless a factor straddles zero, the signs pick the
    # two extreme endpoint products.  Directed rounding is monotone, so
    # these are the endpoints the four-product hull would find.
    # A set sign bit on hi means hi < 0; a clear one on lo means lo >= 0.
    a, b = x
    c, d = y
    if not a[0]:
        if not c[0]:
            return _checked(_mul(a, c, p, _DOWN), _mul(b, d, p, _UP))
        if d[0]:
            return _checked(_mul(b, c, p, _DOWN), _mul(a, d, p, _UP))
    elif b[0]:
        if not c[0]:
            return _checked(_mul(a, d, p, _DOWN), _mul(b, c, p, _UP))
        if d[0]:
            return _checked(_mul(b, d, p, _DOWN), _mul(a, c, p, _UP))
    return _checked(*_hull(_mul, a, b, c, d, p))


def _div_ends(x, y, p):
    """Raw endpoints of x / y at p bits, rounded outward."""
    a, b = x
    c, d = y
    if not c[0] and c[1]:
        # positive divisor and a dividend of one sign: as in _mul_ends
        if not a[0]:
            return _checked(_div(a, d, p, _DOWN), _div(b, c, p, _UP))
        if b[0]:
            return _checked(_div(a, c, p, _DOWN), _div(b, d, p, _UP))
    elif not (libmp.mpf_gt(c, libmp.fzero) or libmp.mpf_lt(d, libmp.fzero)):
        raise ZeroDivisionError("interval divisor straddles zero")
    return _checked(*_hull(_div, a, b, c, d, p))


def _arith(ends, swap=False):
    # the Enclosure method of the helper ends, on (self, other), or on
    # (other, self) with swap
    def method(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, y = (o, self) if swap else (self, o)
        return _wrap(ends((x.lo, x.hi), (y.lo, y.hi), self.prec), self.prec)

    return method


class Enclosure:
    """Closed interval [lo, hi] of binary floats with outward rounding."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec=DEFAULT_PRECISION):
        # lo/hi are raw libmp tuples; use the class methods for exact input.
        self.lo, self.hi = _checked(lo, hi)
        self.prec = prec

    # -- construction -------------------------------------------------

    @classmethod
    def from_exact(cls, value, prec=DEFAULT_PRECISION):
        """Tightest enclosure of an exact int or Fraction."""
        return cls(*_exact_pair(value, prec), prec)

    @classmethod
    def from_bounds(cls, lo, hi, prec=DEFAULT_PRECISION):
        """Enclosure from exact rational bounds (lo may equal hi)."""
        return cls(_exact_pair(lo, prec)[0], _exact_pair(hi, prec)[1], prec)

    @classmethod
    def pi(cls, prec=DEFAULT_PRECISION):
        return cls(*constants(prec).pi, prec)

    # -- views -----------------------------------------------------------

    @property
    def lo_fraction(self) -> Fraction:
        return fraction_from_raw(self.lo)

    @property
    def hi_fraction(self) -> Fraction:
        return fraction_from_raw(self.hi)

    def relative_width(self) -> Fraction | None:
        """Width over |midpoint|, exact; None when the midpoint is 0.

        2(hi - lo)/|lo + hi| does not depend on the common scale 2^-k of the
        endpoints, so it is one Fraction of their integer numerators.
        """
        L, H, _ = scaled_ends(self.lo, self.hi)
        return None if L == -H else Fraction(2 * (H - L), abs(L + H))

    # -- predicates ----------------------------------------------------

    def contains(self, value) -> bool:
        """Exact containment test for an int, Fraction or Enclosure; a scalar
        is inside when its containment_margin is at least 0."""
        if isinstance(value, Enclosure):
            return (self.lo_fraction <= value.lo_fraction
                    and value.hi_fraction <= self.hi_fraction)
        if not isinstance(value, ExactScalar):
            raise TypeError("containment is only decided against exact values")
        return _margin(self.lo, self.hi, value) >= 0

    def containment_margin(self, value) -> Fraction:
        """Distance from value to the nearer endpoint, as a fraction of width.

        Exact, and its sign is the containment verdict: 1/2 at the midpoint,
        0 on an endpoint, negative outside.  A point enclosure has no width,
        so its margin is the signed distance itself.
        """
        return _margin(self.lo, self.hi, value)

    def strictly_positive(self) -> bool:
        return libmp.mpf_gt(self.lo, libmp.fzero)

    def strictly_negative(self) -> bool:
        return libmp.mpf_lt(self.hi, libmp.fzero)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Enclosure):
            if other.prec != self.prec:
                raise ValueError("mixed-precision interval arithmetic")
            return other
        if isinstance(other, int):
            return _wrap(_int_ends(other, self.prec), self.prec)
        if isinstance(other, Fraction):
            return Enclosure.from_exact(other, self.prec)
        return None

    __add__ = __radd__ = _arith(_add_ends)
    __sub__ = _arith(_sub_ends)
    __rsub__ = _arith(_sub_ends, swap=True)
    __mul__ = __rmul__ = _arith(_mul_ends)
    __truediv__ = _arith(_div_ends)
    __rtruediv__ = _arith(_div_ends, swap=True)

    def __neg__(self):
        return _wrap(_neg_ends((self.lo, self.hi)), self.prec)

    def sqrt(self):
        """Square root; requires a nonnegative interval."""
        p = self.prec
        return _wrap(_sqrt_ends((self.lo, self.hi), p), p)

    def exp(self):
        p = self.prec
        return _wrap(_exp_ends((self.lo, self.hi), p), p)

    def plus_minus(self, radius):
        """Widen symmetrically by an upper bound on the given radius."""
        if isinstance(radius, Enclosure):
            r = radius.hi
        elif isinstance(radius, ExactScalar):
            r = _exact_pair(radius, self.prec)[1]
        else:
            raise TypeError("radius must be exact or an Enclosure")
        if libmp.mpf_lt(r, libmp.fzero):
            raise ValueError("negative radius")
        p = self.prec
        return _wrap(_widen_ends((self.lo, self.hi), r, p), p)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return "Enclosure[{}, {}] @{}".format(
            libmp.to_str(self.lo, 12), libmp.to_str(self.hi, 12), self.prec
        )


def _wrap(ends, prec):
    # the Enclosure of a pair a _*_ends helper returned, without a second check
    e = _new(Enclosure)
    e.lo, e.hi = ends
    e.prec = prec
    return e


@lru_cache(maxsize=PRECISION_MEMO_MAXSIZE)
def constants(prec: int) -> SimpleNamespace:
    """Raw ends of pi, sqrt 2, sqrt 3, sqrt 6, sqrt(2 pi), delta_c and the
    coefficients of h_error, the one source of each: pi padded outward, the
    rest by the calls of from_exact(n).sqrt(), (2 * pi).sqrt(),
    sqrt3 / (sqrt2 * pi) - sqrt3 / sqrt_two_pi (delta_c, about -0.3011),
    2 * pi * pi / 3 and 8 * pi / sqrt3 in Enclosure arithmetic."""
    pi = _checked(_widen_raw(libmp.mpf_pi(prec, _DOWN), prec, _DOWN),
                  _widen_raw(libmp.mpf_pi(prec, _UP), prec, _UP))
    sqrt2, sqrt3, sqrt6 = (_sqrt_ends(_int_ends(v, prec), prec) for v in (2, 3, 6))
    two_pi = _mul_ends(pi, _int_ends(2, prec), prec)
    sqrt_two_pi = _sqrt_ends(two_pi, prec)
    return SimpleNamespace(
        pi=pi,
        sqrt2=sqrt2,
        sqrt3=sqrt3,
        sqrt6=sqrt6,
        sqrt_two_pi=sqrt_two_pi,
        delta_c=_sub_ends(_div_ends(sqrt3, _mul_ends(sqrt2, pi, prec), prec),
                          _div_ends(sqrt3, sqrt_two_pi, prec), prec),
        h_first=_div_ends(_mul_ends(two_pi, pi, prec), _int_ends(3, prec), prec),
        h_second=_div_ends(_mul_ends(pi, _int_ends(8, prec), prec), sqrt3, prec),
    )

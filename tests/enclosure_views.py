"""Enclosure views of the package's raw (lo, hi) values, the enclosures of
sqrt and exp at an exact point, and h in Enclosure arithmetic and in mpmath,
for the tests' reference expressions.

Inside the package constants(prec) and shifted_terms(n, prec) hold raw
pairs; a reference written in Enclosure arithmetic reads them through these
views, so it stays an expression independent of the helper calls it checks.
"""

from types import SimpleNamespace

from partbounds.enclosure import DEFAULT_PRECISION, Enclosure, _wrap, constants
from partbounds.estimates import shifted_terms


def constants_view(prec):
    """constants(prec) with each raw pair as its Enclosure."""
    return SimpleNamespace(**{k: _wrap(v, prec) for k, v in vars(constants(prec)).items()})


def terms_view(n, prec):
    """shifted_terms(n, prec) with each raw pair as its Enclosure; N stays the
    exact Fraction."""
    terms = vars(shifted_terms(n, prec)).items()
    return SimpleNamespace(**{k: v if k == "N" else _wrap(v, prec) for k, v in terms})


def sqrt_enclosure(value, prec=DEFAULT_PRECISION):
    """Enclosure of sqrt(value) for an exact nonnegative int or Fraction."""
    return Enclosure.from_exact(value, prec).sqrt()


def exp_enclosure(value, prec=DEFAULT_PRECISION):
    """Enclosure of exp(value) for an exact int or Fraction."""
    return Enclosure.from_exact(value, prec).exp()


def h_enclosure(x, prec=DEFAULT_PRECISION):
    """Enclosure of h(x) = (2 pi^2/3) x e^{-pi sqrt(2x/3)} + (8 pi/sqrt 3)
    sqrt(x) e^{-(pi/2) sqrt(x/2)}, for an exact x > 0: the expression
    h_error had before it read the fixed-point decay kernel."""
    xe = Enclosure.from_exact(x, prec)
    c = constants_view(prec)
    pi = c.pi
    first = 2 * pi * pi / 3 * xe * (-(pi * (2 * xe / 3).sqrt())).exp()
    second = 8 * pi / c.sqrt3 * xe.sqrt() * (-(pi / 2 * (xe / 2).sqrt())).exp()
    return first + second


def h_mpmath(x, ctx):
    """h(x) and its decay factor d(x) = sqrt(x) e^{-(pi/2) sqrt(x/2)} in the
    mpmath context ctx, for an exact x > 0."""
    xm = ctx.mpf(x.numerator) / x.denominator
    d = ctx.sqrt(xm) * ctx.exp(-ctx.pi / 2 * ctx.sqrt(xm / 2))
    first = 2 * ctx.pi ** 2 / 3 * xm * ctx.exp(-ctx.pi * ctx.sqrt(2 * xm / 3))
    return first + 8 * ctx.pi / ctx.sqrt(3) * d, d

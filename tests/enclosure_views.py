"""Enclosure views of the package's raw (lo, hi) values, the enclosures of
sqrt and exp at an exact point, and h in Enclosure arithmetic and in mpmath,
for the tests' reference expressions.

Inside the package constants(prec) holds raw pairs; a reference written in
Enclosure arithmetic reads them through constants_view, and the j-free terms
of the estimates through terms_view, so it stays an expression independent
of the kernels it checks.
"""

from fractions import Fraction
from types import SimpleNamespace

from partbounds.enclosure import DEFAULT_PRECISION, Enclosure, _wrap, constants
from partbounds.exact import shifted_index


def constants_view(prec):
    """constants(prec) with each raw pair as its Enclosure, and sqrt 2, sqrt 6
    and delta_c = sqrt3 / (sqrt2 pi) - sqrt3 / sqrt(2 pi) (about -0.3011) by
    the Enclosure calls that built them in the package before only the tests
    read them."""
    c = SimpleNamespace(**{k: _wrap(v, prec) for k, v in vars(constants(prec)).items()})
    c.sqrt2, c.sqrt6 = (Enclosure.from_exact(v, prec).sqrt() for v in (2, 6))
    c.delta_c = c.sqrt3 / (c.sqrt2 * c.pi) - c.sqrt3 / c.sqrt_two_pi
    return c


def terms_view(n, prec):
    """The j-free terms at N = n - 1/24 as Enclosure expressions, the form
    estimates.shifted_terms held before its terms became integer ends: N
    (the exact Fraction), Ne, sqrt6_sqrtN, sqrt6_N_sqrtN,
    sqrt3_over_sqrt_two_pi, sqrt3_over_pi_sqrt2, delta_c_over_sqrtN and the
    bracket (1 + sqrt3_over_pi_sqrt2) +- 1350/N."""
    c = constants_view(prec)
    N = shifted_index(n)
    Ne = Enclosure.from_exact(N, prec)
    sqrtN = Ne.sqrt()
    q = c.sqrt3 / (c.pi * c.sqrt2 * sqrtN)
    return SimpleNamespace(
        N=N,
        Ne=Ne,
        sqrt6_sqrtN=c.sqrt6 * sqrtN,
        sqrt6_N_sqrtN=c.sqrt6 * Ne * sqrtN,
        sqrt3_over_sqrt_two_pi=c.sqrt3 / (c.sqrt_two_pi * sqrtN),
        sqrt3_over_pi_sqrt2=q,
        delta_c_over_sqrtN=c.delta_c / sqrtN,
        bracket=(1 + q).plus_minus(Fraction(1350) / N),
    )


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

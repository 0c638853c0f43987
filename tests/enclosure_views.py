"""Enclosure views of the package's raw (lo, hi) values, and the enclosures
of sqrt and exp at an exact point, for the tests' reference expressions.

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

"""Convergent series evaluation of p(n) and the leading-term enclosure.

The partition number is recovered from the convergent expansion

    p(n) = 2 pi (24n-1)^{-3/4} * sum_{k>=1} (A_k(n)/k) I_{3/2}(pi sqrt(2N/3)/k)

with N = n - 1/24.  Truncations are evaluated at a working precision high
enough to resolve the nearest integer; the rounded value is accepted only
once it sits well inside the unit interval around an integer and repeats
over several consecutive truncation depths.

The one-term truncation also yields a rigorous two-sided enclosure of p(m):
the k = 1 term with its algebraic prefactor expanded, plus an explicit
envelope h(M) absorbing both the expansion remainder and the entire k >= 2
tail.  That enclosure is what the ratio estimates downstream consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import libmp

from .enclosure import DEFAULT_PRECISION, Enclosure, constants, fraction_from_raw
from .errors import PreconditionError, StabilizationError
from .estimates import shifted_terms
from .special import bessel_I32_closed, kloosterman_A, mp_context, to_fraction

__all__ = [
    "ErrorBudget",
    "h_error",
    "proposition21_budget",
    "proposition21_interval",
    "rademacher_round",
]


def _working_precision(n: int, prec: int) -> int:
    # p(n) has about pi*sqrt(2n/3)*log2(e) bits; resolving it to +-1/4
    # needs all of them, plus headroom for accumulated rounding
    magnitude = math.pi * math.sqrt(2 * n / 3) * 1.4427
    wp = max(prec, int(magnitude) + 48)
    return ((wp + 31) // 32) * 32


def _series_state(n: int, prec: int):
    wp = _working_precision(n, prec)
    ctx = mp_context(wp)
    X = ctx.pi * ctx.sqrt(ctx.mpf(2) * (24 * n - 1) / 72)
    prefactor = 2 * ctx.pi / ctx.mpf(24 * n - 1) ** (ctx.mpf(3) / 4)
    return wp, ctx, X, prefactor


def _term(wp: int, X, n: int, k: int):
    # A_k(n)/k * I_{3/2}(X/k) for a raw X, as a raw mpf; every step rounds
    # as the mpmath context at wp did
    kk = libmp.from_int(k)
    A = kloosterman_A(k, n, wp)._mpf_
    bess = bessel_I32_closed(fraction_from_raw(libmp.mpf_div(X, kk, wp, "n")), wp)._mpf_
    return libmp.mpf_mul(libmp.mpf_div(A, kk, wp, "n"), bess, wp, "n")


def rademacher_round(n: int, prec: int = DEFAULT_PRECISION) -> int:
    """p(n) by rounding the truncated series to the nearest integer.

    Terms are added until the remaining tail provably cannot move the sum
    across a rounding boundary.  Once K >= X every leftover Bessel argument
    X/k is below 1, where I_{3/2}(y) <= y^{3/2} / (Gamma(5/2) sqrt(2));
    together with |A_k(n)| <= k the tail after K terms is at most

        prefactor * X^{3/2} * 2 / (Gamma(5/2) sqrt(2) sqrt(K)),

    so the round is certified as soon as that bound plus the distance to the
    nearest integer drops below 1/2.  prefactor * X^{3/2} is the same
    constant (about 2.38) for every n, which forces termination no later
    than K = max(ceil(X), 103); the budget is padded past that point and
    exhausting it raises StabilizationError rather than returning a guess.
    """
    if n < 1:
        raise PreconditionError("requires n >= 1")
    wp, ctx, X, prefactor = _series_state(n, prec)
    # Gamma(5/2) = 3 sqrt(pi) / 4.
    gamma52 = 3 * ctx.sqrt(ctx.pi) / 4
    tail_coeff = prefactor * X ** (ctx.mpf(3) / 2) * 2 / (gamma52 * ctx.sqrt(ctx.mpf(2)))
    start = max(int(ctx.ceil(X)), 1)
    cap = max(start, 103) + 64
    threshold = (ctx.mpf(1) / 2 - ctx.mpf(2) ** (16 - wp))._mpf_
    X, prefactor, tail_coeff = X._mpf_, prefactor._mpf_, tail_coeff._mpf_
    running = libmp.fzero
    for k in range(1, cap + 1):
        running = libmp.mpf_add(running, _term(wp, X, n, k), wp, "n")
        if k < start:
            continue
        value = libmp.mpf_mul(prefactor, running, wp, "n")
        nearest = libmp.to_int(libmp.mpf_nint(value, wp, "n"))
        gap = libmp.mpf_abs(libmp.mpf_sub(value, libmp.from_int(nearest), wp, "n"))
        tail = libmp.mpf_div(tail_coeff, libmp.mpf_sqrt(libmp.from_int(k), wp, "n"), wp, "n")
        if libmp.mpf_lt(libmp.mpf_add(gap, tail, wp, "n"), threshold):
            return nearest
    raise StabilizationError(
        f"series for n={n} did not settle within {cap} terms at precision {wp}"
    )


def h_error(x, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Envelope h(x) controlling everything beyond the leading correction.

    h(x) = (2 pi^2 / 3) x e^{-pi sqrt(2x/3)} + (8 pi / sqrt 3) sqrt(x)
           e^{-(pi/2) sqrt(x/2)}.

    Decreasing for x >= 12; h(335/24) is about 0.862, already below 1.
    """
    xf = to_fraction(x)
    if xf <= 0:
        raise PreconditionError("requires x > 0")
    xe = Enclosure.from_exact(xf, prec)
    c = constants(prec)
    pi = c.pi
    first = c.h_first * xe * (-(pi * (2 * xe / 3).sqrt())).exp()
    second = c.h_second * xe.sqrt() * (-(pi / 2 * (xe / 2).sqrt())).exp()
    return first + second


# ErrorBudget and proposition21_budget stay only for perfbench's tracer.
@dataclass(frozen=True)
class ErrorBudget:
    """Where the enclosure width comes from, split into its two sources."""

    main_correction: Enclosure
    tail_bound: Enclosure


def _prop21(n: int, j: int, prec: int):
    if n < 1:
        raise PreconditionError("requires n >= 1")
    if j < 0:
        raise PreconditionError("requires j >= 0")
    if n - j < 2:
        raise PreconditionError("requires n - j >= 2")
    t = shifted_terms(n - j, prec)
    c = constants(prec)
    prefactor = (c.pi * (2 * t.Ne / 3).sqrt()).exp() / (4 * c.sqrt3 * t.Ne)
    correction = t.sqrt3_over_pi_sqrt2
    tail = h_error(t.N, prec)
    enclosure = prefactor * (1 - correction).plus_minus(tail)
    return enclosure, ErrorBudget(main_correction=correction, tail_bound=tail)


def proposition21_interval(n: int, j: int, prec: int = DEFAULT_PRECISION) -> Enclosure:
    """Two-sided enclosure of p(n-j) from the one-term truncation.

        p(n-j) in e^{pi sqrt(2M/3)} / (4 sqrt(3) M) * [1 - sqrt(3)/(sqrt(2) pi
        sqrt(M)) +- h(M)],   M = n - j - 1/24.

    Only n - j matters.
    """
    return _prop21(n, j, prec)[0]


def proposition21_budget(n: int, j: int, prec: int = DEFAULT_PRECISION) -> ErrorBudget:
    """The width sources behind proposition21_interval for the same (n, j)."""
    return _prop21(n, j, prec)[1]

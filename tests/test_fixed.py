"""The fixed-point primitives' lemmas, at the widths their callers read, and
the one-source rule for libmp's fixed-point constants and exponential."""

import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.libmp import ln2_fixed

import partbounds
from partbounds import fixed
from partbounds.enclosure import constants, fraction_from_raw
from partbounds.inequalities import FAR_GUARD, FIXED_GUARD
from partbounds.special import DECAY_GUARD, mp_context

CALLER_PRECS = (16, 53, 128, 1024, 4096)
# the widths the kernels read pi, ln 2 and the roots at, for each precision:
# the registry's prec + FIXED_GUARD and its split's 8 bits more, the far
# sum's prec + FAR_GUARD, the decay kernel's v = w + 8 + 1..7 (w = prec +
# DECAY_GUARD; x up to 10^5), and the rounds' W = wp + 16, wp a multiple of 32
WIDTHS = sorted({w for prec in CALLER_PRECS for w in (
    prec + FIXED_GUARD,
    prec + FIXED_GUARD + 8,
    prec + FAR_GUARD,
    prec + DECAY_GUARD + 9,
    prec + DECAY_GUARD + 15,
    -(-prec // 32) * 32 + 16,
)})


@pytest.mark.parametrize("w", WIDTHS)
def test_constants_hold_exactly(w):
    # the small roots' ends decided on squares, pi's and ln 2's units
    # against wider enclosures
    four = 4**w
    for p, q in ((2, 1), (3, 1), (6, 1), (3, 2), (8, 1)):
        lo, hi = fixed.root_ends(p, q, w)
        assert hi == lo + 1 and lo * lo * q < p * four < hi * hi * q, (p, q)
    lo, hi = fixed.pi_ends(w)
    wide = constants(w + 64).pi
    assert Fraction(lo, 1 << w) < fraction_from_raw(wide[0])
    assert fraction_from_raw(wide[1]) < Fraction(hi, 1 << w)
    lo, hi = fixed.ln2_ends(w)
    ctx = mp_context(w + 64)
    assert ctx.mpf(lo) / 2**w < ctx.ln2 < ctx.mpf(hi) / 2**w


def _points(w):
    # rationals over the callers' ranges, and at small w, where dropping
    # the + 1 of a floor root's upper bound moves a bound by about a unit
    rng = random.Random(w)
    points = [Fraction(335, 24), Fraction(1), Fraction(10**4), Fraction(1, 5 * 10**9),
              Fraction(1, 5), Fraction(9, 16), Fraction(777, 7), Fraction(24 * 10**5 - 1)]
    points += [Fraction(rng.randrange(1, 10**13), rng.randrange(1, 10**9)) for _ in range(60)]
    return points


@pytest.mark.parametrize("w", sorted({2, 3, 5, 8, 13, *WIDTHS}))
def test_floor_roots_hold_exactly(w):
    # sqrt(p/q) in [r, r + 1) 2^-w, decided on squares, of x and of 1 - x
    four = 4**w
    for x in _points(w):
        for y in (x, 1 - x) if x < 1 else (x,):
            r = fixed.floor_root(y.numerator, y.denominator, w)
            assert r * r <= y * four < (r + 1) ** 2, y
            assert fixed.root_ends(y.numerator, y.denominator, w) == (r, r + 1)


def _basecase_units(w):
    # the stated error of the exponential's step after its reduction by
    # ln 2, the step read off libmp's exp_basecase
    return 3 * math.sqrt(w) + 6


def _exp_units(t, w):
    # the stated error of fixed.exp at t = tw 2^-w, in units e^t 2^-w
    return t / math.log(2) + _basecase_units(w) + 2


# (w, reduced).  The general widths sit on both sides of the 600-bit switch
# inside libmp's exp_basecase and of the 1500-bit switch inside its
# exponential_series, up to the about 4150 bits of --precision 4096; the
# reduced ones draw only the decay kernel's arguments 0 <= tw <= L + 1, at
# its widths prec + DECAY_GUARD
EXP_CASES = [(w, False) for w in (16, 40, 53, 144, 300, 599, 601, 1200, 1499, 1501, 2048,
                                  4150)]
EXP_CASES += [(prec + DECAY_GUARD, True) for prec in (16, 53, 128, 300, 1024, 4096)]


@pytest.mark.parametrize("w, reduced", EXP_CASES)
def test_exp_fixed_within_stated_units(w, reduced):
    # the exponential lemma.  Its proved step: ln2_fixed(w) is ln 2 2^w
    # floored, so the n = tw // ln2_fixed(w) copies subtracted move the
    # argument by under n units; that step alone nearly fills its allowance
    # where ln 2 2^w lies just below an integer (0.98 units above ln2_fixed
    # at w = 1200).  The step read off exp_basecase is measured against e^x
    # with that move taken out, and its worst sample must keep a quarter of
    # its allowance free.
    rng = random.Random(w)
    ctx = mp_context(4 * w)
    unit = ctx.mpf(2) ** -w
    ln2 = ln2_fixed(w)
    assert 0 <= ctx.ln2 / unit - ln2 < 1, w
    if reduced:
        draws = [0, ln2 + 1] + [rng.randrange(ln2 + 2) for _ in range(40 if w < 1500 else 20)]
    else:
        draws = [rng.randrange(1, rng.choice([1 << w, 10 << w, 10**4 << w]))
                 for _ in range(60 if w <= 1200 else 30)]
    worst = 0
    for tw in draws:
        t = ctx.mpf(tw) * unit
        got = ctx.mpf(fixed.exp(tw, w)) * unit
        assert abs(got - ctx.exp(t)) <= _exp_units(float(t), w) * ctx.exp(t) * unit, tw
        n, rest = divmod(tw, ln2)
        moved = ctx.exp(ctx.mpf(rest) * unit) * ctx.mpf(2) ** n
        worst = max(worst, abs(got - moved) / (moved * unit) / _basecase_units(w))
    assert worst < 0.75, worst


def test_libmp_primitives_are_named_only_in_fixed():
    # one source for pi, ln 2 and the exponential in fixed point: every other
    # module reads them through partbounds.fixed
    named = re.compile(r"\b(pi_fixed|ln2_fixed|exp_fixed)\b")
    found = [f"{path.name}:{n}"
             for path in sorted(Path(partbounds.__file__).parent.glob("*.py"))
             if path.name != "fixed.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if named.search(line)]
    assert not found

"""Fixed-point integers over 2^w: pi, ln 2, floor roots and the exponential.

The integer kernels of special, rademacher and inequalities read their
constants, roots and exponentials here and cite the lemmas below by name.
"Within m units" of a real y means within m 2^-w of y 2^w.

Within a unit.  pi(w) and ln2(w) are libmp's fixed-point constants: each is
evaluated at about 1.05 w + 10 bits, the widest value asked for so far is
kept, and it is shifted down to w bits.  Each is read as within a unit of
pi 2^w and ln 2 2^w on libmp's word, not proved here; tests/test_fixed.py
checks both against wider values at the widths the kernels use.  So with
P = pi(w) and L = ln2(w), pi lies in [P - 1, P + 1] 2^-w (pi_ends) and ln 2
in [L - 1, L + 1] 2^-w (ln2_ends).

Floor root.  For integers p >= 0, q >= 1 and w >= 0, floor_root(p, q, w) =
isqrt(floor(p 4^w / q)) is floor(sqrt(p/q) 2^w): an integer r has r^2 <= y
if and only if r^2 <= floor(y), so the isqrt of a floor is the floor of the
root.  So sqrt(p/q) lies in [r, r + 1) 2^-w, and inside root_ends' (r, r + 1).

Exponential.  exp(xw, w) is e^x 2^w for x = xw 2^-w >= 0, libmp's kernel.
It subtracts n = floor(xw / L) copies of L = ln2(w), each within a unit, so
its reduced argument is off by at most n units.  It then sums about sqrt(w)
Taylor terms of e^(t 2^-r) at r ~ sqrt(w) guard bits and squares r times,
which is within 3 sqrt(w) + 6 units.  So exp(xw, w) is within lambda_0 e^x
units, lambda_0 = x / ln 2 + 3 sqrt(w) + 8.  The second step is read off
libmp's exp_basecase, not proved here: it is the one unproved step under
the package's fixed-point bounds, and its allowance is about three times
what it was seen to use.  tests/test_fixed.py checks both steps, and the
whole claim, at 16 to 4150 bits, on both sides of libmp's switches to other
series at 600 and 1500 bits (--precision 4096 runs the kernels at about
4150).

Reduction.  exp_neg(tv, v, w) takes e^-t for t >= 0 with tv 2^-v within
delta units 2^-v of t, for integers tv >= 0 and v >= w + 8.  With L = ln2(v)
it returns (E, n), n = ceil(tv/L), and E = exp(u_w, w) at the reduced
argument u_w = floor(U 2^(w-v)), U = nL - tv in [0, L):
* u = n ln 2 - t has e^-t = 2^-n e^u exactly;
* U 2^-v is within (n + delta) 2^-v of u, as nL is within n of n ln 2 2^v,
  and the floor adds under 2^-w: u' = u_w 2^-w has
  |u' - u| < (n + delta) 2^-v + 2^-w and 0 <= u' <= ln 2 + 2^-v;
* so by the exponential lemma at x = u', x / ln 2 < 1.01, E is within
  (3 sqrt(w) + 9.01) e^u' units.

The constants the kernels derive per width are built on first use, never at
import, and kept in one memo, at_width.
"""

from functools import lru_cache
from math import isqrt

# libmp's kernels, read through these names alone (module docstring)
from mpmath.libmp import ln2_fixed as ln2, pi_fixed as pi
from mpmath.libmp.libelefun import exp_fixed as exp

# the bits above prec that the registry's margins and the estimates carry
# their integer ends at: w = prec + FIXED_GUARD
FIXED_GUARD = 32

# Entries kept by at_width.  A 128-bit registry run reads 7 keys: the decay
# constants at the 6 widths v that x in [335/24, 10^4] reaches, and the
# registry constants at prec + 32; the default suites read the same 6 decay
# widths.  So a process reads about 7 keys per precision it runs at, and a
# bound of PRECISION_MEMO_MAXSIZE (4) would evict within one run.  64 holds
# nine precisions; an entry is a few integers of about w bits, under 3 kB at
# 4096 bits.
WIDTH_MEMO_MAXSIZE = 64


@lru_cache(maxsize=WIDTH_MEMO_MAXSIZE)
def at_width(build, w: int):
    """build(w), for a module-level function build of the width w alone:
    the one memo of the constants over 2^w that the kernels derive from
    the values below."""
    return build(w)


def pi_ends(w: int):
    """(lo, hi) with pi in [lo, hi] 2^-w."""
    p = pi(w)
    return p - 1, p + 1


def ln2_ends(w: int):
    """(lo, hi) with ln 2 in [lo, hi] 2^-w."""
    big = ln2(w)
    return big - 1, big + 1


def floor_root(p: int, q: int, w: int) -> int:
    """floor(sqrt(p/q) 2^w), for integers p >= 0 and q >= 1."""
    return isqrt((p << 2 * w) // q)


def root_ends(p: int, q: int, w: int):
    """(lo, hi) with sqrt(p/q) in [lo, hi] 2^-w, one unit apart."""
    r = floor_root(p, q, w)
    return r, r + 1


def exp_neg(tv: int, v: int, w: int):
    """(E, n) with e^-t = 2^-n e^u and E = exp(u_w, w), u_w 2^-w within
    (n + delta) 2^-v + 2^-w of u, for t within delta units 2^-v of tv 2^-v
    (module docstring)."""
    big = ln2(v)
    n = -(-tv // big)
    return exp((n * big - tv) >> (v - w), w), n

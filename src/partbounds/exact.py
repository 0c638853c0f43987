"""Exact integer partition arithmetic.

Everything in this module is exact: arbitrary-precision integers and
rationals only, no floating point.  The partition counter p(n) is computed
by Euler's pentagonal-number recurrence

    p(m) = sum_{k >= 1} (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)]

and memoized in a growable table.  The generalized pentagonal offsets g are
listed once, at import.  Each table keeps, across growths, one gather per
sign over the negative indices -g of its offsets g <= m; while the table
holds p(0..m-1), the value at index -g is p(m - g), so every new entry is
the sum of one gather less the sum of the other, and a gather is rebuilt
only when a new offset comes into play.  The oracles for that fast path
never read the table: one counting pass, _part_counts, expands the product
prod 1/(1 - q^part), one part size at a time, for the enumeration and
part-avoiding oracles and series_delta_coeffs.  Literal enumeration builds
each partition from the previous one in place, and Dyson ranks are tallied
from one such enumeration per n.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import itemgetter

from .errors import PreconditionError

ENUMERATION_BOUND = 90
LISTING_BOUND = 45
AVOIDING_BOUND = 60
RANK_BOUND = 40
# Largest index the table grows to: growing from empty to it took about
# 4.5 s and 32 MB on a 2-vCPU VM.  No verify suite needs more than 10^4.
TABLE_CEILING = 100_000


def _pentagonal_offsets(top: int) -> list:
    """The generalized pentagonal numbers k(3k-1)/2, k(3k+1)/2 in ascending
    order, through the first one past top."""
    offsets, k = [], 0
    while not offsets or offsets[-1] <= top:
        k += 1
        offsets += (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
    return offsets


# The terms of k = 1, 3, 5, ... enter the recurrence with sign +, the others
# with sign -.  The last offset lies past TABLE_CEILING, so growth never runs
# off the list.
_OFFSETS = _pentagonal_offsets(TABLE_CEILING)
_PLUS = tuple(-g for i, g in enumerate(_OFFSETS) if not i & 2)
_MINUS = tuple(-g for i, g in enumerate(_OFFSETS) if i & 2)


def _gather(indices):
    # the items at indices; itemgetter returns a bare item for one index and
    # takes no empty list
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda vals: [vals[i] for i in indices]


def _gathers(active: int):
    """The gather of each sign over the first `active` offsets."""
    plus = active // 4 * 2 + min(active % 4, 2)
    return _gather(_PLUS[:plus]), _gather(_MINUS[:active - plus])


def shifted_index(n: int) -> Fraction:
    """The exact shift N = n - 1/24 shared by every estimate."""
    return Fraction(24 * n - 1, 24)


class PartitionTable:
    """Memoized exact values of p(n), grown by the pentagonal recurrence."""

    def __init__(self):
        self._values = [1]
        # the number of offsets in play (those g <= len - 1) and the gather
        # of each sign over them, replaced together
        self._growth = (0, *_gathers(0))

    def __len__(self):
        return len(self._values)

    def ensure(self, n: int):
        """Grow the table so that p(0..n) are all available (n <= TABLE_CEILING)."""
        vals = self._values
        if n < len(vals):
            return
        if n > TABLE_CEILING:
            raise PreconditionError(f"requires n <= {TABLE_CEILING} (partition table ceiling)")
        active, plus, minus = self._growth
        for m in range(len(vals), n + 1):
            # the offsets are distinct, so at most one comes into play per m
            if _OFFSETS[active] <= m:
                active += 1
                plus, minus = _gathers(active)
                self._growth = active, plus, minus
            vals.append(sum(plus(vals)) - sum(minus(vals)))

    def p(self, m: int) -> int:
        """p(m), with p(m) = 0 for m < 0."""
        if m < 0:
            return 0
        self.ensure(m)
        return self._values[m]


_default_table = PartitionTable()


def default_table() -> PartitionTable:
    return _default_table


def p_exact(n: int) -> int:
    """Exact number of partitions of n (0 for negative n)."""
    return _default_table.p(n)


def _part_counts(n_max: int, skip: int = 0) -> list:
    # the coefficients of prod 1/(1 - q^part) through q^n_max, over the parts
    # 1..n_max but skip: one series division per part size
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        if part != skip:
            for m in range(part, n_max + 1):
                counts[m] += counts[m - part]
    return counts


# p(0..ENUMERATION_BOUND), counted once at import in under a millisecond
_BOUNDED_COUNTS = _part_counts(ENUMERATION_BOUND)


def p_enumerate_oracle(n: int) -> int:
    """Count partitions of n by the counting pass, made once for every
    n <= ENUMERATION_BOUND; never touches the pentagonal identity or the table."""
    if n < 0:
        raise PreconditionError("requires n >= 0")
    if n > ENUMERATION_BOUND:
        raise PreconditionError(f"enumeration oracle requires n <= {ENUMERATION_BOUND}")
    return _BOUNDED_COUNTS[n]


def f_jn(n: int, j: int) -> int:
    """Second j-shifted difference p(n) - 2p(n-j) + p(n-2j)."""
    if n < 2:
        raise PreconditionError("requires n >= 2")
    if j < 1:
        raise PreconditionError("requires j >= 1")
    if 2 * j > n:
        raise PreconditionError("requires 2j <= n")
    p = _default_table.p
    return p(n) - 2 * p(n - j) + p(n - 2 * j)


def delta_r_j_direct(n: int, j: int, r: int) -> int:
    """r-fold j-shifted backward difference of p at n, by the binomial sum."""
    if r < 1:
        raise PreconditionError("requires r >= 1")
    if j < 1:
        raise PreconditionError("requires j >= 1")
    if r * j > n:
        raise PreconditionError("requires rj <= n")
    p = _default_table.p
    return sum((-1) ** i * comb(r, i) * p(n - i * j) for i in range(r + 1))


def series_delta_coeffs(j: int, r: int, n_max: int) -> list:
    """Coefficients of (1-q^j)^r / prod_{k>=1}(1-q^k) up to q^n_max.

    The inverse product comes from the counting pass, then the numerator is
    applied by r successive multiplications with (1-q^j).  Neither the
    pentagonal identity nor the table is involved.
    """
    if j < 1 or r < 0 or n_max < 0:
        raise PreconditionError("requires j >= 1, r >= 0, n_max >= 0")
    coeffs = _part_counts(n_max)
    for _ in range(r):
        for m in range(n_max, j - 1, -1):
            coeffs[m] -= coeffs[m - j]
    return coeffs


def nu_k(n: int, k: int) -> int:
    """Number of partitions of n with no part equal to k: p(n) - p(n-k)."""
    if n < 0:
        raise PreconditionError("requires n >= 0")
    if k < 1:
        raise PreconditionError("requires k >= 1")
    p = _default_table.p
    return p(n) - p(n - k)


def nonkary_enumerate_oracle(n: int, k: int) -> int:
    """Count partitions of n avoiding part k by the counting pass over every
    part but k; reads neither the table nor nu_k, so it never assumes
    nu_k(n) = p(n) - p(n - k)."""
    if n < 0 or k < 1:
        raise PreconditionError("requires n >= 0 and k >= 1")
    if n > AVOIDING_BOUND:
        raise PreconditionError(f"avoiding-part oracle requires n <= {AVOIDING_BOUND}")
    return _part_counts(n, skip=k)[n]


def enumerate_partitions(n: int):
    """Yield all partitions of n as non-increasing tuples, in reverse
    lexicographic order from (n,) down to (1, ..., 1).

    Exponential output; guarded to keep accidental large calls out.
    """
    if n < 0:
        raise PreconditionError("requires n >= 0")
    if n > LISTING_BOUND:
        raise PreconditionError(f"literal listing requires n <= {LISTING_BOUND}")
    yield from _partitions(n)


def _partitions(n):
    # reverse lexicographic order, each partition made from the previous one
    # in place (Knuth, TAOCP 7.2.1.4): the last part x > 1 and the ones after
    # it are replaced by parts of at most x - 1 with the same sum, largest first
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        first_one = parts.index(1) if parts[-1] == 1 else len(parts)
        if first_one == 0:
            return
        size = parts[first_one - 1] - 1
        q, r = divmod(len(parts) - first_one + size + 1, size)
        del parts[first_one - 1:]
        parts += [size] * q
        if r:
            parts.append(r)


def dyson_rank_count(n: int, m: int) -> int:
    """Number of partitions of n whose rank (largest part minus number of
    parts) equals m, read from a tally of the ranks of one literal
    enumeration of the partitions of n."""
    if n < 1:
        raise PreconditionError("requires n >= 1")
    if n > RANK_BOUND:
        raise PreconditionError(f"rank enumeration requires n <= {RANK_BOUND}")
    return _rank_tally(n)[m]


@lru_cache(maxsize=RANK_BOUND + 1)  # one tally for each n <= RANK_BOUND
def _rank_tally(n: int) -> Counter:
    return Counter(parts[0] - len(parts) for parts in _partitions(n))

"""The seeded query stream and its independent exact reference.

The stream is a fixed number of `partbounds` CLI argument lists drawn from
a seeded generator, so a seed fixes every query of a pass and every commit
answers the same ones.  Each kind draws its keys from a per-kind catalogue
with Zipf-like popularity, so some keys repeat; `grow` queries ask for p(n)
at strictly increasing n above the warm range, which extends the partition
table while the other kinds read it.

The repository records no query traffic, so the mix is an assumption, not
a measurement.  Each parameter below is the neutral choice or the one the
benchmark's requirements name: the six kinds have equal weight; key
popularity is Zipf with exponent 1, the usual model of skewed key access,
over catalogues of CATALOGUE_SIZE keys per kind, large enough that most of
a pass's keys are new yet some repeat; n lies in a warm range of 2 x 10^4;
and the grow step is chosen so that the grows of a pass take the table
from the top of the warm range to about twice it, no further.

The reference recomputes every exact field of a report (integers and
fractions, never interval endpoints) from its own partition-number table,
built without the package.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

KINDS = ("ratio", "fjn", "krank", "nonkary", "exact", "grow")
CATALOGUE_SIZE = 500
ZIPF_EXPONENT = 1.0
LOW_N = 1000

# one call of each reading kind, made during set-up before any timing
WARM_UP = (
    ("ratio", ["ratio", "1000", "3"]),
    ("fjn", ["fjn", "1000", "2"]),
    ("krank", ["krank", "--k", "1", "--m", "600", "--n", "1000"]),
    ("nonkary", ["nonkary", "1000", "2"]),
    ("exact", ["exact", "1000"]),
)

Query = Tuple[str, List[str]]


def _catalogue_key(kind: str, rng: random.Random, warm_top: int) -> List[str]:
    low = min(LOW_N, warm_top // 2)
    n = rng.randint(low, warm_top)
    if kind == "ratio":
        return ["ratio", str(n), str(rng.randint(0, math.isqrt((n - 1) // 4)))]
    if kind == "fjn":
        return ["fjn", str(n), str(rng.randint(1, math.isqrt((n - 1) // 16)))]
    if kind == "krank":
        k = rng.randint(1, 5)
        m = rng.randint(n // 2 + 1, n - k - 16)
        return ["krank", "--k", str(k), "--m", str(m), "--n", str(n)]
    if kind == "nonkary":
        return ["nonkary", str(n), str(rng.randint(1, math.isqrt((n - 1) // 16)))]
    return ["exact", str(n)]


def query_stream(seed: int, warm_top: int, count: int) -> Iterator[Query]:
    """The first `count` (kind, argv) pairs of the stream for `seed`."""
    rng = random.Random(seed)
    catalogues = {
        kind: [_catalogue_key(kind, rng, warm_top) for _ in range(CATALOGUE_SIZE)]
        for kind in KINDS
        if kind != "grow"
    }
    popularity = list(
        itertools.accumulate(1 / (rank + 1) ** ZIPF_EXPONENT for rank in range(CATALOGUE_SIZE))
    )
    # about count / len(KINDS) grows extend the table by about warm_top
    grow_step = max(1, warm_top * len(KINDS) // count)
    grown = warm_top
    for _ in range(count):
        kind = rng.choice(KINDS)
        if kind == "grow":
            grown += grow_step
            yield kind, ["exact", str(grown)]
        else:
            key = rng.choices(range(CATALOGUE_SIZE), cum_weights=popularity)[0]
            yield kind, list(catalogues[kind][key])


def repeat_share(queries: Sequence[Query]) -> float:
    """Share of queries whose argument list appeared earlier in the stream."""
    seen = set()
    repeats = 0
    for _, argv in queries:
        key = tuple(argv)
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(queries) if queries else 0.0


# -- reference -------------------------------------------------------------


def partition_numbers(top: int) -> List[int]:
    """p(0..top) by Euler's pentagonal theorem, written independently."""
    offsets = []
    k = 1
    while k * (3 * k - 1) // 2 <= top:
        sign = 1 if k % 2 else -1
        offsets.append((k * (3 * k - 1) // 2, sign))
        offsets.append((k * (3 * k + 1) // 2, sign))
        k += 1
    p = [1] + [0] * top
    for m in range(1, top + 1):
        total = 0
        for offset, sign in offsets:
            if offset > m:
                break
            total += sign * p[m - offset]
        p[m] = total
    return p


def _frac(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def top_needed(argv: Sequence[str]) -> int:
    """Largest n whose partition number the reference needs for a query."""
    if argv[0] == "krank":
        return int(argv[argv.index("--n") + 1])
    return int(argv[1])


def expected_fields(argv: Sequence[str], p: Sequence[int]) -> tuple:
    """The exact fields a correct report for `argv` carries."""
    cmd = argv[0]
    if cmd == "exact":
        n = int(argv[1])
        return (cmd, n, str(p[n]), len(str(p[n])))
    if cmd == "ratio":
        n, j = int(argv[1]), int(argv[2])
        return (cmd, n, j, _frac(Fraction(p[n - j], p[n])))
    if cmd == "fjn":
        n, j = int(argv[1]), int(argv[2])
        f = p[n] - 2 * p[n - j] + p[n - 2 * j]
        return (cmd, n, j, str(f), _frac(Fraction(f, p[n])))
    if cmd == "krank":
        k, m, n = (int(argv[argv.index(flag) + 1]) for flag in ("--k", "--m", "--n"))
        lp = n - k - m
        count = p[lp + 1] - p[lp]
        below = p[lp] - p[lp - 1]
        return (
            cmd, k, m, n, lp, str(count),
            _frac(Fraction(count, p[lp + 1])),
            _frac(Fraction(count - below, p[lp + 1])),
        )
    if cmd == "nonkary":
        n, k = int(argv[1]), int(argv[2])
        f = p[n] - 2 * p[n - k] + p[n - 2 * k]
        return (
            cmd, n, k, str(p[n] - p[n - k]), str(f), f > 0,
            _frac(Fraction(f, p[n])),
        )
    raise ValueError(f"unknown command {cmd!r}")


def report_fields(argv: Sequence[str], results: Dict) -> tuple:
    """The same exact fields, read from a report's `results` object."""
    cmd = argv[0]
    r = results
    if cmd == "exact":
        return (cmd, r["n"], r["p"], r["digits"])
    if cmd == "ratio":
        return (cmd, r["n"], r["j"], r["exact"])
    if cmd == "fjn":
        return (cmd, r["n"], r["j"], r["difference"], r["exact"])
    if cmd == "krank":
        return (
            cmd, r["k"], r["m"], r["n"], r["ell_prime"], r["boundary_count"],
            r["ratio"]["exact"], r["difference"]["exact"],
        )
    if cmd == "nonkary":
        return (
            cmd, r["n"], r["k"], r["nu"], r["difference"], r["difference_positive"],
            r["ratio_exact"],
        )
    raise ValueError(f"unknown command {cmd!r}")


def fingerprint(fields: tuple) -> str:
    """Short hash of one report's exact fields; keeps memory flat in long runs."""
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def digest(fingerprints: Iterable[str]) -> str:
    """Hash of a whole stream's fingerprints, in order."""
    return hashlib.sha256("".join(fingerprints).encode()).hexdigest()[:16]

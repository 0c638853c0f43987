"""Report documents: JSON per invocation, CSV opt-in for sweep tables.

Exact quantities travel as integer or rational strings so a consumer can
re-run every containment decision from the serialized document alone.
High-precision endpoints additionally carry directed decimal renderings:
the low endpoint rounds down, the high endpoint rounds up, so the decimal
pair still brackets the enclosed quantity.
"""

from __future__ import annotations

import csv
import dataclasses
import decimal
import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from . import __version__
from .enclosure import Enclosure, exact_decimal


def decimal_digits(prec: int) -> int:
    """Decimal digits needed to carry prec bits: ceil(prec * log10 2).

    30103/100000 exceeds log10 2 by under 5e-10, so the ceiling never
    undercounts for any realistic precision.
    """
    if prec < 1:
        raise ValueError("requires prec >= 1")
    return -((-prec * 30103) // 100000)


def fraction_str(value) -> str:
    """Lossless "p/q" (or bare integer) rendering of a rational."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def optional_float(value) -> Optional[float]:
    """float(value) for a report field, or None (JSON null) for None."""
    return None if value is None else float(value)


def decimal_directed(value: Fraction, digits: int, rounding: str) -> str:
    """Decimal string of a rational at the given digit count, rounded one way.

    rounding is a decimal module constant (ROUND_FLOOR for a lower endpoint,
    ROUND_CEILING for an upper one).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        rendered = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(rendered)


def interval_payload(enclosure: Enclosure) -> Dict[str, Any]:
    """Serialize an enclosure: directed decimals plus lossless endpoints.

    lo/hi are decimal strings, rounded outward at ceil(prec log10 2) digits;
    lo_exact/hi_exact are exact (the endpoints are dyadic, so their decimal
    expansions terminate); precision is the binary working precision.
    """
    digits = decimal_digits(enclosure.prec)
    lo, hi = enclosure.lo_fraction, enclosure.hi_fraction
    return {
        "lo": decimal_directed(lo, digits, decimal.ROUND_FLOOR),
        "hi": decimal_directed(hi, digits, decimal.ROUND_CEILING),
        "lo_exact": exact_decimal(lo),
        "hi_exact": exact_decimal(hi),
        "precision": enclosure.prec,
    }


@dataclasses.dataclass
class ReportDocument:
    """One command invocation's machine-readable output."""

    command: str
    parameters: Dict[str, Any]
    results: Dict[str, Any]
    passed: bool
    exit_code: int
    seconds: float
    version: str = __version__

    def to_json(self) -> str:
        # a shallow mapping: dataclasses.asdict would deep-copy the results
        # first, and json.dumps writes the same bytes from either
        fields = dataclasses.fields(self)
        return json.dumps({field.name: getattr(self, field.name) for field in fields}, indent=2)


@dataclasses.dataclass
class SuiteReport:
    """Outcome of one verification sweep.

    failures lists human-readable descriptions (capped upstream); info holds
    sweep-level measurements such as worst margins; rows are records, one per
    case or per distinct key, destined for CSV and populated only when
    requested (the inequality registry always carries its rows).  A sweep
    that decided no case has shown nothing, so it does not pass.
    """

    suite: str
    cases: int
    failures: List[str]
    info: Dict[str, Any]
    rows: List[Dict[str, Any]]
    seconds: float

    @property
    def passed(self) -> bool:
        return self.cases > 0 and not self.failures

    def summary(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "info": self.info,
            "seconds": round(self.seconds, 3),
        }


def write_csv(path: str, rows: Sequence[Dict[str, Any]]) -> None:
    """Write rows with a header that is the union of keys, first-seen order.

    No rows still creates the file (empty), so a requested output path
    always exists afterwards.
    """
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        if not fieldnames:
            return
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)

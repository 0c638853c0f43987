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
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Dict, List, Optional, Sequence

from . import __version__
from .enclosure import Enclosure, exact_decimal, scaled_ends

_INFINITY = float("inf")


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


def decimal_directed(num: int, den: int, digits: int, rounding: str) -> str:
    """Decimal string of num/den at the given digit count, rounded one way.

    rounding is a decimal module constant (ROUND_FLOOR for a lower endpoint,
    ROUND_CEILING for an upper one).  The string depends only on the value,
    so num/den need not be in lowest terms.
    """
    context = decimal.Context(prec=digits, rounding=rounding)
    return str(context.divide(decimal.Decimal(num), decimal.Decimal(den)))


def interval_payload(enclosure: Enclosure) -> Dict[str, Any]:
    """Serialize an enclosure: directed decimals plus lossless endpoints.

    lo/hi are decimal strings, rounded outward at ceil(prec log10 2) digits;
    lo_exact/hi_exact are exact (the endpoints are dyadic, so their decimal
    expansions terminate); precision is the binary working precision.
    """
    digits = decimal_digits(enclosure.prec)
    lo, hi, k = scaled_ends(enclosure.lo, enclosure.hi)  # over 2^k
    return {
        "lo": decimal_directed(lo, 1 << k, digits, decimal.ROUND_FLOOR),
        "hi": decimal_directed(hi, 1 << k, digits, decimal.ROUND_CEILING),
        "lo_exact": exact_decimal(lo, k),
        "hi_exact": exact_decimal(hi, k),
        "precision": enclosure.prec,
    }


class _NotPlainJSON(Exception):
    """A value indented_json leaves to json.dumps."""


def indented_json(value: Any, indent: str = "") -> str:
    """json.dumps(value, indent=2), written at the nesting `indent`.

    The same bytes for documents of str-keyed dicts, lists, tuples, str,
    int, float, bool and None: str through json's own C escaper, numbers
    through int.__repr__ and float.__repr__ (NaN and Infinity as json
    spells them).  json.dumps(indent=...) runs json's pure-Python encoder,
    one generator frame per value; this is one call per value.  Any other
    key or value raises _NotPlainJSON.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise _NotPlainJSON
            items.append(_json_string(key) + ": " + indented_json(item, inner))
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [indented_json(item, inner) for item in value]
        brackets = "[]"
    else:
        raise _NotPlainJSON
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


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
        # first, and json.dumps writes the same bytes from either; a key or
        # value indented_json does not write goes to json.dumps, which
        # writes or refuses it
        fields = dataclasses.fields(self)
        document = {field.name: getattr(self, field.name) for field in fields}
        try:
            return indented_json(document)
        except _NotPlainJSON:
            return json.dumps(document, indent=2)


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

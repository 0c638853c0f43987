"""In-memory tracer that wraps public partbounds functions from outside.

The tracer never edits the package: it rebinds module attributes and class
attributes to wrappers, and `restore()` puts every original back.  A wrapped
function is rebound in every partbounds module that imported it by name,
because callers such as `verify` hold their own reference.

Three kinds of instrumentation keep the cost proportional to the work:

* span: timed, and one span record (name, start, end, parent, trace) is kept
  in memory until `write_spans` is called at the end of the run;
* timed: calls and time are aggregated, no record is kept (for functions
  called millions of times, such as interval arithmetic);
* the partition-table lookup is only counted, and timed when it grows.

Self time of a layer is the duration of its timed frames minus the part
covered by nested timed frames.  Code that is not wrapped at all stays in
the self time of the innermost wrapped caller.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "exact",
    "enclosure",
    "special",
    "rademacher",
    "estimates",
    "inequalities",
    "verify",
    "reports",
    "cli",
)

_clock = time.perf_counter


class Tracer:
    """Aggregated counters, layer self times and request spans of one process."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.case_records: List[Dict[str, Any]] = []
        self.record_dir: Optional[str] = None
        # each frame is [child_seconds, span_id, trace_id, group]
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        group: str,
        span: bool = False,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Timed wrapper; `group` names the `<group>_calls`/`<group>_s` pair.

        `<group>_s` counts only the outermost call of a group, so re-entrant
        calls (interval subtraction calling addition) are not counted twice.
        `observe(args, kwargs, result, seconds)` sees each completed call.
        """
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        depth, stack, spans = self._depth, self._stack, self.spans
        name = f"{layer}.{getattr(fn, '__qualname__', group)}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[group] += 1
            if stack and stack[-1][3] == group:
                # called directly from the same group, whose frame times it
                return fn(*args, **kwargs)
            depth[group] += 1
            if span:
                span_id = len(spans) + 1
                trace_id = stack[-1][2] if stack and stack[-1][2] else span_id
                frame = [0.0, span_id, trace_id, group]
            elif stack:
                frame = [0.0, stack[-1][1], stack[-1][2], group]
            else:
                frame = [0.0, 0, 0, group]
            parent_span = stack[-1][1] if stack else 0
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                seconds = end - start
                depth[group] -= 1
                if not depth[group]:
                    inclusive[group] += seconds
                self_s[layer] += seconds - frame[0]
                if stack:
                    stack[-1][0] += seconds
                if span:
                    spans.append((frame[1], parent_span, frame[2], name, start, end))
            if observe is not None:
                observe(args, kwargs, result, seconds)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, wrapper_factory) -> None:
        """Rebind a module-level function wherever a partbounds module holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_factory(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "partbounds" and not mod_name.startswith("partbounds."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def patch_method(self, cls: type, attr: str, wrapper_factory) -> None:
        """Rebind a method and every alias of it in the class body."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper_factory(original.__func__))
        else:
            wrapper = wrapper_factory(original)
        for name, value in list(cls.__dict__.items()):
            if value is original:
                self._patches.append((cls, name, original))
                setattr(cls, name, wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- per-case records from pool workers ----------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_s": dict(self.self_s),
            "values": dict(self.values),
        }

    def delta_since(self, before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
        after = self.snapshot()
        return {
            kind: {
                key: value - before[kind].get(key, 0)
                for key, value in after[kind].items()
                if value != before[kind].get(key, 0)
            }
            for kind in after
        }

    def merge(self, delta: Dict[str, Dict[str, float]]) -> None:
        for kind, target in (
            ("calls", self.calls),
            ("inclusive", self.inclusive),
            ("self_s", self.self_s),
            ("values", self.values),
        ):
            for key, value in delta.get(kind, {}).items():
                target[key] += value

    def add_case_record(self, record: Dict[str, Any]) -> None:
        """Keep a record in this process, or hand it over from a pool worker.

        Pool workers are terminated, not shut down, so they cannot write at
        exit; each one writes its record as soon as the case finishes.
        """
        if os.getpid() == self.owner_pid:
            self.case_records.append(record)
            return
        path = os.path.join(self.record_dir, f"case-{os.getpid()}-{record['case']}.json")
        with open(path, "w") as handle:
            json.dump(record, handle)

    def collect_case_records(self) -> List[Dict[str, Any]]:
        """Records kept in this process plus those written by pool workers."""
        if self.record_dir is not None:
            for entry in sorted(os.listdir(self.record_dir)):
                path = os.path.join(self.record_dir, entry)
                with open(path) as handle:
                    record = json.load(handle)
                os.remove(path)
                self.merge(record.pop("delta"))
                self.case_records.append(record)
        return self.case_records

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "trace", "name", "start", "end"],
                    "spans": self.spans,
                    "cases": self.case_records,
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; undo with `tracer.restore()`."""
    import partbounds.cli as cli
    import partbounds.enclosure as enclosure
    import partbounds.estimates as estimates
    import partbounds.exact as exact
    import partbounds.inequalities as inequalities
    import partbounds.rademacher as rademacher
    import partbounds.reports as reports
    import partbounds.special as special
    import partbounds.verify as verify

    def timed(layer, group, span=False, observe=None):
        return lambda fn: tracer.wrap(fn, layer, group, span=span, observe=observe)

    # exact: lookups are counted, growth of the shared table is timed
    def ensure_factory(original):
        grow = tracer.wrap(original, "exact", "grow")
        calls = tracer.calls
        values = tracer.values

        @functools.wraps(original)
        def ensure(table, n):
            calls["lookup"] += 1
            size = len(table)
            if n < size:
                return original(table, n)
            grow(table, n)
            values["exact.grow_entries"] += len(table) - size

        return ensure

    tracer.patch_method(exact.PartitionTable, "ensure", ensure_factory)
    for attr in ("p_enumerate_oracle", "nonkary_enumerate_oracle", "dyson_rank_count"):
        tracer.patch_function(exact.__name__, attr, timed("exact", "oracle"))

    # enclosure: arithmetic and exact-rational decisions
    for attr in (
        "__add__",
        "__neg__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__truediv__",
        "__rtruediv__",
        "sqrt",
        "exp",
        "plus_minus",
        "from_exact",
        "from_bounds",
        "pi",
    ):
        tracer.patch_method(enclosure.Enclosure, attr, timed("enclosure", "arith"))
    for attr in ("contains", "containment_margin"):
        tracer.patch_method(enclosure.Enclosure, attr, timed("enclosure", "decide"))

    # special functions
    for attr in ("kloosterman_A", "kloosterman_imag_residue"):
        tracer.patch_function(special.__name__, attr, timed("special", "kloosterman"))
    for attr in ("bessel_I32_closed", "bessel_I32_quadrature"):
        tracer.patch_function(special.__name__, attr, timed("special", "bessel"))

    # rademacher
    tracer.patch_function(rademacher.__name__, "rademacher_round", timed("rademacher", "round"))
    for attr in ("proposition21_interval", "proposition21_budget"):
        tracer.patch_function(rademacher.__name__, attr, timed("rademacher", "prop21"))
    tracer.patch_function(rademacher.__name__, "h_error", timed("rademacher", "h_error"))

    # estimates
    tracer.patch_function(estimates.__name__, "ratio_interval", timed("estimates", "ratio"))
    tracer.patch_function(estimates.__name__, "fjn_ratio_interval", timed("estimates", "fjn"))
    for attr in ("krank_ratio_interval", "krank_diff_interval"):
        tracer.patch_function(estimates.__name__, attr, timed("estimates", "krank"))

    def observe_convexity(args, kwargs, result, seconds):
        n, j = args[0], args[1]
        if n >= 14 and 16 * j * j < n:
            tracer.values["estimates.convexity_licensed"] += 1
            if result.kind is estimates.CertificateKind.ANALYTIC:
                tracer.values["estimates.convexity_analytic"] += 1

    tracer.patch_function(
        estimates.__name__,
        "convexity_certificate",
        timed("estimates", "convexity", observe=observe_convexity),
    )

    # inequalities: each case is a span; its record leaves the pool worker
    def case_factory(original):
        wrapped = tracer.wrap(original, "inequalities", "case", span=True)

        @functools.wraps(original)
        def run_case(case, *args, **kwargs):
            before = tracer.snapshot()
            start = _clock()
            result = wrapped(case, *args, **kwargs)
            end = _clock()
            record = {
                "case": result.name,
                "pid": os.getpid(),
                "start": start,
                "end": end,
                "points": result.points,
                "passed": result.passed,
            }
            if os.getpid() != tracer.owner_pid:
                record["delta"] = tracer.delta_since(before)
            tracer.add_case_record(record)
            return result

        return run_case

    tracer.patch_function(inequalities.__name__, "run_case", case_factory)

    # verify: one span per suite
    def observe_suite(args, kwargs, result, seconds):
        tracer.values[f"verify.suite_s.{result.suite}"] += seconds
        tracer.values[f"verify.cases.{result.suite}"] += result.cases

    tracer.patch_function(
        verify.__name__, "run_suite", timed("verify", "suite", span=True, observe=observe_suite)
    )

    # reports
    tracer.patch_function(reports.__name__, "interval_payload", timed("reports", "payload"))
    tracer.patch_method(reports.ReportDocument, "to_json", timed("reports", "to_json"))

    # cli: one span per invocation
    tracer.patch_function(cli.__name__, "main", timed("cli", "main", span=True))

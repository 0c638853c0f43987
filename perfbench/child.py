"""One pass of a benchmark workload, run in a fresh interpreter.

`run.py` starts this script once per pass, so the package's module-level
caches (the default partition table, the proposition 2.1 and k-rank caches,
the `lru_cache`s in `special`) start empty, as they do for a CLI call.  The
pass drives the package only through `verify.run_suite` and `cli.main`, and
prints one JSON object as its last line of standard output.

Every pass does the same fixed work for a given seed, whatever the speed of
the code.  Modes: `setup` does the workload's set-up and stops; `measure`
also runs the timed work and checks its outputs; `repeat` does the same, but
leaves the check of the query answers' exact fields to `run.py`, which
compares them with those of the run's `measure` pass; `traced` measures with
every layer wrapped by `tracing.install`, adds the per-layer counters, and
then measures the cost of tracing on a small probe of the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import queries
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload sizes.  `full` is what the benchmark measures; `smoke` is a
# seconds-long version for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "sweep_n_max": 150,
        "registry_cases": None,
        "warm_top": 20_000,
        "queries": 2000,
        "probe_n_max": 30,
        "probe_cases": ("bessel-simplify-half", "reciprocal-125"),
        "probe_queries": 300,
        "probe_rounds": 5,
    },
    "smoke": {
        "sweep_n_max": 40,
        "registry_cases": ("collapse-131", "bessel-simplify-half"),
        "warm_top": 2000,
        "queries": 20,
        "probe_n_max": 20,
        "probe_cases": ("collapse-131",),
        "probe_queries": 12,
        "probe_rounds": 2,
    },
}

# queries per unit of the tracing-overhead probe
PROBE_CHUNK = 50
# queries between two timings of the reference loop
REFERENCE_EVERY = 40
# iterations of the reference loop, 4-6 ms on the machine the baseline was measured on
REFERENCE_ITERATIONS = 60_000
# seconds between two timings of the reference loop while the registry's pool runs
REFERENCE_PERIOD_S = 0.5

# Case counts each sweep suite reports at the given n_max, recorded at the
# commit that introduced the benchmark.
SWEEP_CASES = {
    150: {
        "oracles": 10925,
        "rademacher": 2508,
        "containment-ratio": 664,
        "containment-fjn": 226,
        "convexity": 63794,
        "krank": 32203,
        "nonkary": 5851,
    },
    40: {
        "oracles": 10875,
        "rademacher": 378,
        "containment-ratio": 82,
        "containment-fjn": 24,
        "convexity": 17392,
        "krank": 303,
        "nonkary": 424,
    },
}

# Sampled points per inequality case; the registry fixes them, not the seed.
REGISTRY_POINTS = {
    "geometric-series-100": 11000,
    "sqrt-expansion-01": 11000,
    "inverse-sqrt-06": 11000,
    "reciprocal-125": 11000,
    "exp-convexity-half": 11000,
    "tail-envelope-15": 11000,
    "sqrt-exp-decreasing": 11000,
    "shifted-envelope-11": 11000,
    "concavity-sqrt-positive": 11000,
    "correction-sum-099": 11000,
    "exp-argument-01": 11000,
    "shift-ratio-02": 11000,
    "collapse-056": 11000,
    "collapse-131": 1,
    "collapse-271": 11000,
    "collapse-1350": 11000,
    "collapse-2075": 11000,
    "collapse-3926": 11000,
    "bessel-tail-sum": 130,
    "bessel-simplify-half": 11000,
}

FAILURES_KEPT = 5


class Pass:
    """What one pass measured and checked."""

    def __init__(self) -> None:
        self.setup_end = 0.0
        self.setup_reference_s = 0.0
        self.wall_s = 0.0
        # [request label, latency in ms, reference seconds around it or None]
        self.samples: List[List[Any]] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0
        self.info: Dict[str, Any] = {}

    def end_setup(self) -> float:
        """Mark the end of set-up; return the reference time taken just after it."""
        self.setup_end = time.monotonic()
        self.setup_reference_s = reference_s()
        return self.setup_reference_s

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(message)


def environment() -> Dict[str, Any]:
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def _reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


def reference_s(reps: int = 3) -> float:
    """Least CPU seconds of `reps` runs of a fixed loop: the machine's speed now.

    The loop is the benchmark's own code, the same for every commit, so its
    time moves only with the speed of the CPU, which on a shared host
    changes by up to 1.7x for tens of seconds at a time.  It is read on the
    thread's CPU clock, so time the thread waits for a core is not counted.
    """
    best = float("inf")
    for _ in range(reps):
        start = time.thread_time()
        _reference_loop()
        best = min(best, time.thread_time() - start)
    return best


def _sample_reference(stop: threading.Event, out: List[float]) -> None:
    # the affinity set here is this thread's alone; the pool's workers are
    # forked from the main thread and keep every CPU
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    while not stop.wait(REFERENCE_PERIOD_S):
        os.sched_setaffinity(0, {next(cpus)})
        out.append(reference_s(1))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


# -- sweep -------------------------------------------------------------------


def _sweep_suites() -> List[str]:
    from partbounds.verify import SUITE_NAMES

    return [name for name in SUITE_NAMES if name != "inequalities"]


def run_sweep(p: Pass, size: Dict[str, Any], seed: int, mode: str) -> None:
    # The sweep has no random inputs: the seed selects nothing.
    import partbounds.verify as verify

    n_max = size["sweep_n_max"]
    expected = SWEEP_CASES[n_max]
    before = p.end_setup()
    if mode == "setup":
        return
    clock = time.perf_counter
    reports = []
    # each suite is one request, as `partbounds verify <suite> --n-max N` is,
    # timed between two timings of the reference loop
    for name in _sweep_suites():
        t0 = clock()
        reports.append(verify.run_suite(name, n_max=n_max))
        ms = (clock() - t0) * 1e3
        after = reference_s()
        p.samples.append([name, ms, (before + after) / 2])
        before = after
    p.wall_s = sum(ms for _, ms, _ in p.samples) / 1e3
    for report in reports:
        name = report.suite
        p.check(report.passed, f"{name}: {report.failures[:2]}")
        p.check(
            report.cases == expected[name],
            f"{name}: {report.cases} cases, expected {expected[name]}",
        )


def _run_suite(*args, **kwargs):
    # looked up at each call, so a probe unit reaches the tracer's wrapper
    import partbounds.verify as verify

    return verify.run_suite(*args, **kwargs)


def probe_sweep(size: Dict[str, Any], seed: int) -> List[Callable[[], Any]]:
    return [
        functools.partial(_run_suite, name, n_max=size["probe_n_max"])
        for name in _sweep_suites()
    ]


# -- registry ----------------------------------------------------------------


def run_registry(p: Pass, size: Dict[str, Any], seed: int, mode: str) -> None:
    import partbounds.verify as verify

    # None runs the whole registry as one request; smoke size names cases
    cases = size["registry_cases"] or (None,)
    p.end_setup()
    if mode == "setup":
        return
    clock = time.perf_counter
    reports = []
    for case in cases:
        # the pool keeps every CPU busy for most of a minute, each at a speed
        # of its own, so while it runs a thread times the reference on each
        # CPU in turn, once every REFERENCE_PERIOD_S; it is idle otherwise
        refs: List[float] = []
        stop = threading.Event()
        sampler = threading.Thread(target=_sample_reference, args=(stop, refs))
        sampler.start()
        t0 = clock()
        try:
            reports.append(verify.run_suite("inequalities", seed=seed, case=case))
        finally:
            ms = (clock() - t0) * 1e3
            stop.set()
            sampler.join()
        p.samples.append([case or "inequalities", ms, statistics.mean(refs or [reference_s()])])
    p.wall_s = sum(ms for _, ms, _ in p.samples) / 1e3
    names = size["registry_cases"] or tuple(REGISTRY_POINTS)
    rows = {row["case"]: row for report in reports for row in report.rows}
    reported = sum(report.cases for report in reports)
    p.check(reported == len(names), f"registry reported {reported} cases, expected {len(names)}")
    for name in names:
        row = rows.get(name)
        p.check(
            row is not None and row["passed"] and row["points"] == REGISTRY_POINTS[name],
            f"{name}: {row}",
        )


def probe_registry(size: Dict[str, Any], seed: int) -> List[Callable[[], Any]]:
    # one case per run_suite call runs in this process, without the pool
    return [
        functools.partial(_run_suite, "inequalities", seed=seed, case=case)
        for case in size["probe_cases"]
    ]


# -- queries -----------------------------------------------------------------


def _call(cli, argv: List[str]):
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue(), (time.perf_counter() - start) * 1e3


def _answer(argv: List[str], code: int, text: str):
    """(argv, passed, fingerprint of the exact fields) of one report."""
    try:
        doc = json.loads(text)
        fields = queries.report_fields(argv, doc["results"])
        passed = code == 0 and doc["exit_code"] == 0 and doc["passed"] is True
    except (ValueError, KeyError, TypeError) as exc:
        fields, passed = (f"unreadable report: {exc!r}",), False
    return argv, passed, queries.fingerprint(fields)


def run_queries(p: Pass, size: Dict[str, Any], seed: int, mode: str) -> None:
    import partbounds.cli as cli
    from partbounds.exact import default_table

    warm_top = size["warm_top"]
    default_table().ensure(warm_top)
    answers = [_answer(argv, *_call(cli, argv)[:2]) for _, argv in queries.WARM_UP]
    before = p.end_setup()
    if mode == "setup":
        return
    stream = list(queries.query_stream(seed, warm_top, size["queries"]))
    # only the calls are timed; reading each report happens between them, and
    # the reference loop is timed between chunks of REFERENCE_EVERY calls
    for start in range(0, len(stream), REFERENCE_EVERY):
        chunk = []
        for kind, argv in stream[start : start + REFERENCE_EVERY]:
            code, text, ms = _call(cli, argv)
            chunk.append([kind, ms])
            answers.append(_answer(argv, code, text))
        after = reference_s(2)
        p.samples += [[kind, ms, (before + after) / 2] for kind, ms in chunk]
        before = after
    p.wall_s = sum(ms for _, ms, _ in p.samples) / 1e3

    got_all = [got for _, _, got in answers]
    if mode == "repeat":
        # run.py compares got_all with the answers of the run's measure pass
        for argv, passed, _ in answers:
            p.check(passed, f"{' '.join(argv)}: failed")
    else:
        reference = queries.partition_numbers(
            max(queries.top_needed(a) for a, _, _ in answers)
        )
        want = []
        for argv, passed, got in answers:
            want.append(queries.fingerprint(queries.expected_fields(argv, reference)))
            p.check(
                passed and got == want[-1],
                f"{' '.join(argv)}: failed, or exact fields differ from the reference",
            )
        p.info["reference_digest"] = queries.digest(want)
    p.info.update(
        queries=len(stream),
        kind_p50_ms={
            kind: statistics.median(ms for k, ms, _ in p.samples if k == kind)
            for kind in queries.KINDS
            if any(k == kind for k, _, _ in p.samples)
        },
        repeat_share=queries.repeat_share(stream),
        fingerprints=got_all,
        digest=queries.digest(got_all),
        table_top=len(default_table()) - 1,
    )


def probe_queries(size: Dict[str, Any], seed: int) -> List[Callable[[], Any]]:
    import partbounds.cli as cli

    stream = queries.query_stream(seed, size["warm_top"], size["queries"])
    head = [argv for _, argv in itertools.islice(stream, size["probe_queries"])]
    chunks = [head[i : i + PROBE_CHUNK] for i in range(0, len(head), PROBE_CHUNK)]
    return [functools.partial(_call_all, cli, chunk) for chunk in chunks]


def _call_all(cli, argvs: List[List[str]]) -> None:
    for argv in argvs:
        _call(cli, argv)


# workload -> (timed work, units of the tracing-overhead probe)
WORKLOADS = {
    "sweep": (run_sweep, probe_sweep),
    "registry": (run_registry, probe_registry),
    "queries": (run_queries, probe_queries),
}


# -- per-layer metrics from a traced pass --------------------------------------


def _union_length(intervals: List[List[float]]) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def tracing_overhead(units: List[Callable[[], Any]], rounds: int) -> Tuple[float, List[float]]:
    """Traced over untraced time of the probe, and the ratio of each unit.

    A unit's ratio is the median over `rounds` of its traced over untraced
    time; the probe's is the units' ratios weighted by their median
    untraced times.

    Each unit runs once untraced and once traced, back to back, in an order
    that alternates, so both arms see the same caches and, mostly, the same
    state of a machine whose speed drifts; the median drops the rounds in
    which the speed changed between the arms.  A first round warms the
    caches.
    """
    for unit in units:
        unit()
    clock = time.perf_counter
    times: List[List[Dict[bool, float]]] = [[] for _ in units]
    for round_ in range(rounds):
        for index, unit in enumerate(units):
            spent = {}
            for traced in (False, True) if (round_ + index) % 2 == 0 else (True, False):
                tracer = tracing.Tracer()
                if traced:
                    tracing.install(tracer)
                start = clock()
                try:
                    unit()
                finally:
                    spent[traced] = clock() - start
                    tracer.restore()
            times[index].append(spent)
    ratios = [statistics.median(t[True] / t[False] for t in unit_times) for unit_times in times]
    weights = [statistics.median(t[False] for t in unit_times) for unit_times in times]
    return sum(r * w for r, w in zip(ratios, weights)) / sum(weights), ratios


def layer_metrics(tracer: tracing.Tracer, records: List[Dict[str, Any]]) -> Dict[str, float]:
    calls, inclusive, values = tracer.calls, tracer.inclusive, tracer.values
    self_s = dict(tracer.self_s)
    # case spans that ran in pool workers overlap the parent's run_suite span;
    # the covered part is not verify's own time
    remote = [[r["start"], r["end"]] for r in records if r["pid"] != tracer.owner_pid]
    self_s["verify"] = self_s.get("verify", 0.0) - _union_length(remote)

    busy = [r["end"] - r["start"] for r in records]
    workers = len({r["pid"] for r in records})
    ineq_wall = values.get("verify.suite_s.inequalities", 0.0)
    licensed = values.get("estimates.convexity_licensed", 0)

    m: Dict[str, float] = {
        "exact.grow_s": inclusive.get("grow", 0.0),
        "exact.grow_entries": values.get("exact.grow_entries", 0),
        "exact.lookups": calls.get("lookup", 0),
    }
    for layer, groups in (
        ("exact", ("oracle",)),
        ("enclosure", ("arith", "decide")),
        ("special", ("kloosterman", "bessel")),
        ("rademacher", ("round", "prop21", "h_error")),
        ("estimates", ("ratio", "fjn", "krank", "convexity")),
    ):
        for group in groups:
            m[f"{layer}.{group}_calls"] = calls.get(group, 0)
            m[f"{layer}.{group}_s"] = inclusive.get(group, 0.0)
    m["estimates.convexity_licensed"] = licensed
    m["estimates.analytic_hit_ratio"] = (
        values.get("estimates.convexity_analytic", 0) / licensed if licensed else 0.0
    )
    m["inequalities.points"] = sum(r["points"] for r in records)
    m["inequalities.case_busy_sum_s"] = sum(busy)
    m["inequalities.case_busy_max_s"] = max(busy, default=0.0)
    m["verify.pool_workers"] = workers
    m["verify.pool_balance"] = sum(busy) / (workers * ineq_wall) if workers and ineq_wall else 0.0
    from partbounds.verify import SUITE_NAMES

    for name in SUITE_NAMES:
        m[f"verify.suite_s.{name}"] = values.get(f"verify.suite_s.{name}", 0.0)
        m[f"verify.cases.{name}"] = values.get(f"verify.cases.{name}", 0)
    m["reports.payload_calls"] = calls.get("payload", 0)
    m["reports.payload_s"] = inclusive.get("payload", 0.0)
    m["reports.to_json_s"] = inclusive.get("to_json", 0.0)
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "repeat", "traced"), required=True
    )
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    import partbounds

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(partbounds.__file__).startswith(src + os.sep):
        print(f"error: partbounds imported from {partbounds.__file__}, not {src}", file=sys.stderr)
        return 2

    run, probe = WORKLOADS[args.workload]
    size = SIZES[args.size]
    p = Pass()
    out: Dict[str, Any] = {"env": environment()}
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.record_dir = os.path.join(args.work_dir, f"cases-{os.getpid()}")
        os.makedirs(tracer.record_dir)
        tracing.install(tracer)
        try:
            run(p, size, args.seed, args.mode)
        finally:
            tracer.restore()
        records = tracer.collect_case_records()
        os.rmdir(tracer.record_dir)
        out["per_layer"] = layer_metrics(tracer, records)
        overhead, out["overhead_ratios"] = tracing_overhead(
            probe(size, args.seed), size["probe_rounds"]
        )
        out["per_layer"]["trace.overhead_ratio"] = overhead
        tracer.write_spans(
            os.path.join(args.work_dir, f"spans-{args.workload}-seed{args.seed}.json")
        )
    else:
        run(p, size, args.seed, args.mode)
    out.update(
        setup_end=p.setup_end,
        setup_reference_s=p.setup_reference_s,
        wall_s=p.wall_s,
        samples=p.samples,
        attempted=p.attempted,
        failed=p.failed,
        failures=p.failures,
        info=p.info,
        peak_rss_mb=peak_rss_mb(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

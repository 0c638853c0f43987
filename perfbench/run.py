"""Benchmark entry point.

    python3 perfbench/run.py --workload {sweep,registry,queries} \
        --seed N --seconds S --trace {0,1}

Each pass of a workload runs in a fresh interpreter (`child.py`) with the
package imported from `src/` of this checkout.  Every pass does the same
fixed work for a given seed.  With `--trace 0` the run makes as many passes
as fill `--seconds` at the speed of the seed commit (PASS_PLAN; a number
that depends on `--seconds` alone, not on the speed of the code), times
set-up in further interpreters that stop after it (some before the passes,
some after, until SETUP_SAMPLES and SETUP_MIN_S are reached), and prints the
end-to-end metrics, computed from each request's median latency over the
passes.  Set-up times and request latencies are scaled to a fixed speed of
the machine (see `scaled`).  With `--trace 1` it
makes one traced pass, plus for `queries` one untraced pass for the per-kind
latencies, and prints the per-layer metrics.  The last line of standard
output is the result object; the line before it records the environment,
sample counts, unscaled figures and output digests.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import queries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sweep", "registry", "queries")
# workload -> (seconds of timed work in one pass at the seed commit, fewest passes)
PASS_PLAN = {"sweep": (4.8, 3), "registry": (60.0, 1), "queries": (4.7, 3)}
# Times are reported at the speed of the machine at which `child.reference_s`
# takes REFERENCE_S seconds: each is multiplied by REFERENCE_S over the
# reference time measured around it.  A round figure within the 4.3-6.1 ms
# the loop took on the 2-vCPU VM the baseline was measured on.
REFERENCE_S = 0.005
# at least this many set-up samples, and at least this much set-up time
SETUP_SAMPLES = 7
SETUP_MIN_S = 1.5
# every run must end within 180 s; leave room to report
DEADLINE_S = 176


class BenchError(Exception):
    pass


def percentile(values: List[float], q: int) -> float:
    """Percentile q in [1, 99], interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its result object."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--size", args.size,
        "--work-dir", WORK_DIR,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{mode} pass of {args.workload} did not finish in time") from None
    if proc.returncode != 0:
        _kill_group(proc.pid)
        raise BenchError(f"{mode} pass of {args.workload} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} pass of {args.workload} printed nothing")
    result = json.loads(lines[-1])
    result["unscaled_setup_s"] = result["setup_end"] - started
    result["setup_s"] = scaled(result["unscaled_setup_s"], result["setup_reference_s"])
    return result


def scaled(value: float, reference_s: Optional[float]) -> float:
    """`value` at the speed of the machine at which the reference took REFERENCE_S.

    The machine's speed changes by up to 1.7x for tens of seconds at a time;
    the reference loop timed around a request changes with it, so the ratio
    removes most of that drift.  `None` leaves `value` as measured.
    """
    return value if reference_s is None else value * REFERENCE_S / reference_s


def _kill_group(pgid: int) -> None:
    # pool workers share the pass's process group; none may outlive a failed pass
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def request_latencies(passes: List[Dict[str, Any]], scale: bool = True) -> List[float]:
    """Each request's median scaled latency over the passes, in request order.

    Every pass makes the same requests in the same order from the same
    fresh state, so the passes time each request several times.
    """
    labels = [label for label, _, _ in passes[0]["samples"]]
    for p in passes[1:]:
        if [label for label, _, _ in p["samples"]] != labels:
            raise BenchError("the passes made different requests")
    return [
        statistics.median(
            scaled(ms, ref if scale else None) for _, ms, ref in (p["samples"][i] for p in passes)
        )
        for i in range(len(labels))
    ]


def check_repeats(passes: List[Dict[str, Any]]) -> None:
    """Check the answers of `repeat` passes against those of the first pass."""
    first = passes[0]["info"].get("fingerprints")
    if first is None:
        return
    for p in passes[1:]:
        got = p["info"].get("fingerprints", [])
        for index, (want, have) in enumerate(itertools.zip_longest(first, got)):
            p["attempted"] += 1
            if want != have:
                p["failed"] += 1
                p["failures"].append(f"answer {index} differs from the first pass's")


def end_to_end(args: argparse.Namespace, deadline: float):
    # set-up is sampled before and after the timed passes, so its median
    # spans the run rather than one moment of a machine whose speed drifts
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    nominal_s, fewest = PASS_PLAN[args.workload]
    count = max(fewest, math.ceil(args.seconds / nominal_s))
    # the first pass's outputs are checked against references, the others' against it
    passes = [spawn(args, "repeat" if i else "measure", deadline) for i in range(count)]
    check_repeats(passes)
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_MIN_S:
        setups.append(spawn(args, "setup", deadline)["setup_s"])
    latencies = request_latencies(passes)
    wall_s = sum(latencies) / 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "throughput_qps": len(latencies) / wall_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "unscaled_wall_s": sum(request_latencies(passes, scale=False)) / 1e3,
        "unscaled_setup_s": statistics.median(p["unscaled_setup_s"] for p in passes),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "requests": len(latencies),
        "setup_samples": setups,
    }
    return passes, metrics, notes


def per_layer(args: argparse.Namespace, deadline: float):
    started = time.monotonic()
    passes = [spawn(args, "traced", deadline)]
    notes = {
        "traced_pass_s": time.monotonic() - started,
        "traced_wall_s": passes[0]["wall_s"],
        "overhead_ratios": passes[0]["overhead_ratios"],
    }
    # only queries issues CLI calls; their latencies are read untraced
    if args.workload == "queries":
        passes.append(spawn(args, "measure", deadline))
    metrics = dict(passes[0]["per_layer"])
    kind_p50 = passes[-1]["info"].get("kind_p50_ms", {})
    for kind in queries.KINDS:
        metrics[f"cli.latency_p50_ms.{kind}"] = kind_p50.get(kind, 0.0)
    metrics["queries.repeat_share"] = passes[0]["info"].get("repeat_share", 0.0)
    return passes, metrics, notes


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="partbounds benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke shrinks every workload to seconds, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "partbounds", "__init__.py")):
        print(f"error: no partbounds sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(WORK_DIR, exist_ok=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            passes, metrics, notes = per_layer(args, deadline)
        else:
            passes, metrics, notes = end_to_end(args, deadline)
        if metrics.keys() != units.keys():
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": passes[0]["env"],
        "failures": [f for p in passes for f in p["failures"]][:10],
        "info": [
            {k: v for k, v in p["info"].items() if k != "fingerprints"} for p in passes
        ],
        **notes,
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

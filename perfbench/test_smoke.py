"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs at its smoke size through `run.py`, in both modes, and
must print every metric BENCHMARK.json names with that metric's unit.  The
smoke registry runs its cases one at a time, so the fork-pool path of the
traced registry is tested on its own here.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import queries  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bindings():
    import partbounds.cli  # noqa: F401
    import partbounds.enclosure as enclosure
    import partbounds.exact as exact
    import partbounds.reports as reports

    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "partbounds" or name.startswith("partbounds."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
    for cls in (enclosure.Enclosure, exact.PartitionTable, reports.ReportDocument):
        for attr, value in vars(cls).items():
            seen[(cls.__qualname__, attr)] = value
    return seen


def test_tracing_leaves_package_unpatched():
    import partbounds.verify as verify
    from partbounds.enclosure import Enclosure

    before = _bindings()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert verify.run_suite is not before[("partbounds.verify", "run_suite")]
        assert (Enclosure.from_exact(1) + 1).contains(2)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.calls["arith"] >= 1 and tracer.calls["decide"] == 1


# cheap cases, each long enough that both pool workers take one
POOL_CASES = ("bessel-simplify-half", "reciprocal-125", "concavity-sqrt-positive", "collapse-131")


def _pool_case(name):
    import partbounds.inequalities as inequalities

    return inequalities.run_case(name, seed=7)


def test_tracing_collects_pool_worker_records(tmp_path):
    """Case records and counter deltas come back from fork-pool workers."""
    tracer = tracing.Tracer()
    tracer.record_dir = str(tmp_path)
    tracing.install(tracer)

    def suite():
        with multiprocessing.get_context("fork").Pool(2) as pool:
            return pool.map(_pool_case, POOL_CASES, chunksize=1)

    try:
        results = tracer.wrap(suite, "verify", "suite")()
    finally:
        tracer.restore()
    assert all(result.passed for result in results)
    records = tracer.collect_case_records()
    assert os.listdir(tmp_path) == []
    assert sorted(r["case"] for r in records) == sorted(POOL_CASES)
    assert all(r["pid"] != tracer.owner_pid and r["end"] >= r["start"] for r in records)
    # the workers' counters were merged into the parent's
    assert tracer.calls["case"] == len(POOL_CASES)
    assert tracer.calls["arith"] > 0 and tracer.self_s["inequalities"] > 0
    metrics = child.layer_metrics(tracer, records)
    assert metrics["verify.pool_workers"] == 2
    assert metrics["inequalities.points"] == sum(r.points for r in results)
    # the time the workers' cases cover is not verify's own
    assert 0 <= metrics["verify.self_s"] < tracer.self_s["verify"]


def test_query_stream_is_seeded_and_licensed():
    def prefix(seed):
        return list(queries.query_stream(seed, 5000, 300))

    assert len(prefix(3)) == 300
    assert prefix(3) == prefix(3)
    assert prefix(3) != prefix(4)
    grown = [int(argv[1]) for kind, argv in prefix(3) if kind == "grow"]
    assert grown == sorted(set(grown)) and grown[0] > 5000
    # the grows of a pass take the table to about twice the warm range
    assert grown[-1] < 3 * 5000
    assert 0 < queries.repeat_share(prefix(3)) < 1


def test_reference_partition_numbers():
    p = queries.partition_numbers(200)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[100] == 190569292
    assert p[200] == 3972999029388
    assert queries.expected_fields(["ratio", "100", "2"], p)[-1] == "37549534/47642323"


def test_request_latencies_scale_then_take_the_median():
    import run

    ref = run.REFERENCE_S
    passes = [
        {"samples": [["a", 10.0, ref], ["b", 4.0, None]]},
        {"samples": [["a", 20.0, 2 * ref], ["b", 6.0, None]]},
        {"samples": [["a", 30.0, ref], ["b", 5.0, None]]},
    ]
    # a: 10, 10 and 30 at the reference speed; b is not scaled
    assert run.request_latencies(passes) == [10.0, 5.0]
    passes[1]["samples"].reverse()
    with pytest.raises(run.BenchError):
        run.request_latencies(passes)

"""The benchmark's own tests, at a tiny job count.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import bench
import oracle
import workloads
from serverloop import JobRecord

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def _cli(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _seconds(workload, jobs):
    """The ``--seconds`` that sizes a run of ``workload`` to ``jobs`` jobs."""
    return jobs / workloads.WORKLOADS[workload].jobs_per_second


def _declared(section):
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    report, result = _cli(
        "--workload", workload, "--seconds", repr(_seconds(workload, 4))
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4
    metrics = result["metrics"]
    units = {n: m["unit"] for n, m in metrics.items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    text = "\n".join(report)
    for name, unit in _declared("end_to_end").items():
        assert f"{name} " in text and f" {unit}" in text
    assert "error_rate" in text and "(0/4 failed)" in text
    record = json.loads(next(l for l in report if l.startswith("record "))[7:])
    assert record["seed"] == 0 and record["golden_checked"] == 4


@pytest.mark.parametrize(
    "workload, hit_ratio", [("synth-cold", 0.0), ("verify-warm", 1.0)]
)
def test_traced_run_reports_every_layer(workload, hit_ratio):
    report, result = _cli(
        "--workload",
        workload,
        "--seconds",
        repr(_seconds(workload, 8)),
        "--trace",
        "1",
    )
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _declared("per_layer")
    assert metrics["parallel.cache.hit_ratio"]["value"] == hit_ratio
    for layer in bench.REPLAY_LAYERS:
        assert metrics[f"{layer}_ms"]["value"] > 0, layer
    record = json.loads(next(l for l in report if l.startswith("record "))[7:])
    assert os.path.exists(os.path.join(ROOT, record["trace_file"]))


def test_a_corrupted_artifact_counts_as_a_failure():
    def corrupt(index, artifact):
        return artifact[:-1] + b"#" if index == 1 else artifact

    result = bench.run(
        "synth-cold",
        0,
        _seconds("synth-cold", 3),
        False,
        tamper=corrupt,
        report=lambda _: None,
    )
    assert result["attempted"] == 3
    assert result["failed"] == 1
    assert not result["correct"]


def test_a_job_spec_missing_from_golden_json_counts_as_a_failure():
    plan = workloads.build("synth-cold", workloads.DEFAULT_SEED, 2)
    altered = plan.timed[1].spec
    plan.timed[1] = workloads.Job(
        1,
        dataclasses.replace(
            altered, options={**altered.options, "use_cache": False}
        ),
    )
    check = oracle.Oracle(plan, oracle.load_golden("synth-cold"))
    check.prepare()
    records = [
        JobRecord(job, artifact=check.expected[job.key]) for job in plan.timed
    ]
    assert check.verdict(records[0]) is None
    assert "golden.json" in check.verdict(records[1])
    assert check.golden_checked == 1


def test_the_seed_fixes_the_job_list():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 0, 8).digest()
        assert workloads.build(name, 0, 8).digest() == first
        assert workloads.build(name, 1, 8).digest() != first


def test_a_shorter_run_replays_a_prefix_of_a_longer_one():
    for name in workloads.WORKLOADS:
        short = [job.key for job in workloads.build(name, 3, 5).timed]
        longer = [job.key for job in workloads.build(name, 3, 9).timed]
        assert longer[:5] == short


def test_verify_warm_cycles_five_kinds_over_small_task_graphs():
    from repro.core.taskgraph import task_graph_from_model
    from repro.uml.xmi import from_xmi_string

    kinds = workloads.WARM_KINDS
    for seed in (0, 1):
        plan = workloads.build("verify-warm", seed, 3 * len(kinds))
        assert [job.kind for job in plan.timed] == 3 * list(kinds)
        for job in plan.timed:
            if job.kind == "explore":
                model = from_xmi_string(job.spec.model_xmi)
                threads = len(task_graph_from_model(model).node_weights)
                assert threads <= workloads.WARM_MAX_THREADS

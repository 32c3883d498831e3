"""One benchmark run: job list, oracle, boots, closed loop, metrics.

``run.py`` is the command-line entry point; see ``README.md`` for the
run shape, the workloads and every metric.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy

import oracle as oracle_mod
import workloads
from replay import ROOT_SPAN, Replayer, self_times
from serverloop import IN_FLIGHT, boot, closed_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Boots per untraced run; ``setup_s`` is their median.  One boot comes
#: before the oracle's in-process work, one serves the timed loop and
#: the rest follow it, so the boots sample the host's speed over the
#: whole run rather than over a few seconds.  A traced run reports no
#: ``setup_s`` and boots once per loop.
BOOTS = 5
OUT_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "server_cpu_ms_per_job": "ms",
    "server_peak_rss_mb": "MB",
}

ANALYSIS_PASSES = ("structure", "channels", "fsm", "sdf", "dataflow")

#: Library layers the replay times; each is reported as ``<name>_ms``,
#: the median self time per job that made the call.
REPLAY_LAYERS = (
    "uml.xmi.read",
    "uml.validate",
    "core.allocate",
    "core.map",
    "core.intermediate",
    "core.optimize",
    "simulink.layout",
    "simulink.mdl_emit",
    "parallel.cache.key",
    "parallel.cache.get",
    "parallel.cache.put",
    "codegen.schedule",
    "codegen.emit_c",
    "codegen.emit_java",
    "codegen.manifest",
    *(f"analysis.pass.{name}" for name in ANALYSIS_PASSES),
    "analysis.sarif",
    "simulink.sim.compile",
    "simulink.sim.run",
    "dse.task_graph",
    "dse.explore",
    "dse.pareto",
    "server.executor.serialize",
)

PER_LAYER_UNITS: Dict[str, str] = {
    "server.http.submit_ms": "ms",
    "server.http.poll_ms": "ms",
    "client.poll_wait_ms": "ms",
    "client.polls_per_job": "count",
    "server.http.artifact_ms": "ms",
    "server.artifact_kb": "KiB",
    "server.queue_wait_ms": "ms",
    "server.execute_ms": "ms",
    "server.executor.execute_ms": "ms",
    "server.overhead_ms": "ms",
    "server.cpu_drift_ratio": "ratio",
    **{f"{layer}_ms": "ms" for layer in REPLAY_LAYERS},
    "parallel.cache.hit_ratio": "ratio",
    "simulink.sim.steps_per_s": "1/s",
    "dse.candidates_per_s": "1/s",
    "replay.glue_ms": "ms",
    "replay.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _git_sha() -> str:
    """HEAD's commit from ``.git`` without running git (or ``unknown``)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(plan, seed: int, jobs: int, boots: int) -> Dict[str, Any]:
    workload = plan.workload
    return {
        "workload": workload.name,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "jobs": jobs,
        "warmup_jobs": len(plan.warmup),
        "in_flight": IN_FLIGHT,
        "poll_interval_ms": workload.poll_s * 1e3,
        "boots": boots,
        "job_list_sha256": plan.digest(),
        "cc": shutil.which("cc") is not None,
        "javac": shutil.which("javac") is not None,
    }


def _boot(plan, setups: List[float], warmups: List[Any]):
    """Boot a fresh server; record its set-up time and warm-up records."""
    server, setup, records = boot(ROOT, plan.warmup, plan.workload.poll_s)
    setups.append(setup)
    warmups += records
    return server


def _loop(plan, server, *, traced: bool = False, tamper=None):
    gc.collect()
    try:
        return closed_loop(
            server,
            plan.timed,
            plan.workload.poll_s,
            traced=traced,
            tamper=tamper,
        )
    finally:
        server.stop()


def end_to_end(
    setups: List[float], loop
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The user-visible metrics over all timed jobs of the untraced loop."""
    jobs = len(loop.records)
    latencies = [r.latency_s * 1e3 for r in loop.records if r.error is None]
    metrics = {
        "setup_s": _median(setups),
        "jobs_per_s": loop.jobs_per_s,
        "latency_p50_ms": _median(latencies),
        "latency_p90_ms": _p90(latencies),
        "server_cpu_ms_per_job": loop.cpu_ms_per_job,
        "server_peak_rss_mb": loop.peak_rss_mb,
    }
    samples = {
        "setup_s": len(setups),
        "jobs_per_s": jobs,
        "latency_p50_ms": len(latencies),
        "latency_p90_ms": len(latencies),
        "server_cpu_ms_per_job": jobs,
    }
    return metrics, samples


def _cpu_drift(loop) -> float:
    """Server CPU per job, last quarter of the run over the first."""
    quarters = loop.quarters()
    (first_jobs, first_cpu), (last_jobs, last_cpu) = quarters[0], quarters[-1]
    return (last_cpu / last_jobs) / max(first_cpu / first_jobs, 1e-9)


def per_layer(plan, loop, untraced_loop, replayer) -> Dict[str, float]:
    records = [r for r in loop.records if r.error is None]
    timed = [job.index for job in plan.timed]
    metrics: Dict[str, float] = {
        "server.http.submit_ms": _median([r.submit_s * 1e3 for r in records]),
        "server.http.poll_ms": _median(
            [s * 1e3 for r in records for s in r.poll_s]
        ),
        "client.poll_wait_ms": _median(
            [
                (r.t_seen_done - r.document["finished_at"]) * 1e3
                for r in records
            ]
        ),
        "client.polls_per_job": statistics.mean(
            len(r.poll_s) for r in records
        ),
        "server.http.artifact_ms": _median(
            [r.artifact_s * 1e3 for r in records]
        ),
        "server.artifact_kb": _median(
            [len(r.artifact) / 1024 for r in records]
        ),
        "server.queue_wait_ms": _median(
            [
                (r.document["started_at"] - r.document["submitted_at"]) * 1e3
                for r in records
            ]
        ),
        "server.execute_ms": _median(
            [
                (r.document["finished_at"] - r.document["started_at"]) * 1e3
                for r in records
            ]
        ),
        "server.executor.execute_ms": _median(
            [replayer.execute_s[i] * 1e3 for i in timed]
        ),
        "server.overhead_ms": _median(
            [
                (
                    r.document["finished_at"]
                    - r.document["started_at"]
                    - replayer.execute_s[r.job.index]
                )
                * 1e3
                for r in records
            ]
        ),
        "server.cpu_drift_ratio": _cpu_drift(loop),
    }
    # Layer medians take every replayed job, warm-up included, so a
    # layer the timed jobs never call still reports its warm-up calls;
    # coverage compares timed jobs only.
    totals = self_times(replayer.tracer.spans)
    by_layer: Dict[str, List[float]] = {}
    for (_, name), seconds in totals.items():
        by_layer.setdefault(name, []).append(seconds)
    for layer in REPLAY_LAYERS:
        metrics[f"{layer}_ms"] = _median(by_layer.get(layer, [])) * 1e3
    timed_set = set(timed)
    layer_total = sum(
        seconds
        for (trace_id, name), seconds in totals.items()
        if trace_id in timed_set and name != ROOT_SPAN
    )
    execute_total = sum(replayer.execute_s[i] for i in timed)
    metrics["replay.glue_ms"] = _median(by_layer.get(ROOT_SPAN, [])) * 1e3
    metrics["replay.coverage_ratio"] = layer_total / execute_total
    metrics["parallel.cache.hit_ratio"] = sum(
        replayer.cache_status.get(i) == "hit" for i in timed
    ) / max(1, sum(i in replayer.cache_status for i in timed))
    steps = sum(work[0] for work in replayer.work.values())
    candidates = sum(work[1] for work in replayer.work.values())
    run_s = sum(by_layer.get("simulink.sim.run", []))
    explore_s = sum(by_layer.get("dse.explore", []))
    metrics["simulink.sim.steps_per_s"] = steps / run_s
    metrics["dse.candidates_per_s"] = candidates / explore_s
    metrics["trace.overhead_ratio"] = (
        loop.jobs_per_s / untraced_loop.jobs_per_s
    )
    return metrics


def replay_parity(plan, oracle, loop, replayer) -> List[str]:
    """Problems where the step-by-step replay disagrees with the server."""
    problems = replayer.run(plan, oracle.expected)
    for record in loop.records:
        served = record.document.get("result", {}).get("cache", {})
        status = served.get("status")
        replayed = replayer.cache_status.get(record.job.index)
        if status is not None and status != replayed:
            problems.append(
                f"job {record.job.index}: server cache {status}, "
                f"replay {replayed}"
            )
    return problems


def write_trace(path: str, loop, replayer) -> None:
    """Chrome trace: client HTTP spans (pid 1) and replay spans (pid 2)."""
    events = [
        {
            "name": name,
            "ph": "X",
            "pid": 1,
            "tid": trace_id,
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"trace_id": trace_id},
        }
        for trace_id, name, start, end in loop.spans
    ]
    events += [
        {
            "name": span.name,
            "ph": "X",
            "pid": 2,
            "tid": span.trace_id,
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": {"trace_id": span.trace_id, "parent": span.parent_id},
        }
        for span in replayer.tracer.spans
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tamper: Optional[Callable[[int, bytes], bytes]] = None,
    report: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """One benchmark run; returns the result object."""
    shape = workloads.WORKLOADS[workload]
    plan = workloads.build(workload, seed, shape.job_count(seconds))
    oracle = oracle_mod.Oracle(plan, oracle_mod.load_golden(workload))
    setups: List[float] = []
    warmups: List[Any] = []
    if not trace:
        _boot(plan, setups, warmups).stop()
    oracle.prepare()
    gc.collect()
    gc.freeze()

    server = _boot(plan, setups, warmups)
    untraced = loop = _loop(plan, server, tamper=None if trace else tamper)
    if trace:
        server = _boot(plan, [], warmups)
        loop = _loop(plan, server, traced=True, tamper=tamper)
    else:
        for _ in range(BOOTS - len(setups)):
            _boot(plan, setups, warmups).stop()
    # Warm-up jobs (negative indices) are checked like timed ones; a
    # wrong warm-up artifact makes the run incorrect but is not one of
    # the ``attempted`` timed jobs.
    failed: Dict[int, str] = {}
    for record in warmups + untraced.records + (loop.records if trace else []):
        reason = oracle.verdict(record)
        if reason is not None:
            failed.setdefault(record.job.index, reason)
    problems = [f"job {i}: {reason}" for i, reason in sorted(failed.items())]
    attempted = len(plan.timed)
    failures = sum(index >= 0 for index in failed)
    warmup_failures = len(failed) - failures

    e2e, samples = end_to_end(setups, untraced)
    record = run_record(plan, seed, attempted, len(setups))
    record["golden_checked"] = oracle.golden_checked
    record["warmup_checked"] = len(warmups)
    if trace:
        replayer = Replayer()
        parity = replay_parity(plan, oracle, loop, replayer)
        problems += parity
        layers = per_layer(plan, loop, untraced, replayer)
        path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
        write_trace(path, loop, replayer)
        record["trace_file"] = os.path.relpath(path, ROOT)
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        parity = []
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    report(
        f"perfbench {workload}: seed={seed} jobs={attempted} "
        f"in_flight={IN_FLIGHT} poll={shape.poll_s * 1e3:g}ms "
        f"trace={int(trace)}"
    )
    for name, unit in END_TO_END_UNITS.items():
        count_note = f"  (n={samples[name]})" if name in samples else ""
        report(f"  {name:<24} {e2e[name]:>12.4f} {unit}{count_note}")
    report(
        f"  {'error_rate':<24} {failures / attempted:>12.4f} "
        f"({failures}/{attempted} failed)"
    )
    if trace:
        for name, unit in PER_LAYER_UNITS.items():
            report(f"  {name:<32} {layers[name]:>12.4f} {unit}")
    for problem in problems[:10]:
        report(f"  FAIL {problem}")
    report("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": failures == 0 and warmup_failures == 0 and not parity,
        "attempted": attempted,
        "failed": failures,
        "metrics": metrics,
    }

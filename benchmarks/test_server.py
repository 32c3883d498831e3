"""Serving-layer overhead: throughput and latency vs admission-queue depth.

The paper's tool flow is interactive — a designer submits one model and
waits — but the serving layer must also hold up under batches, so this
benchmark sweeps the admission-queue depth (1, 8, 64) with two workers
and a warm synthesis cache and records jobs/sec plus p50/p95 per-job
latency (submission to terminal state, the ``server.job.latency``
histogram).
"""

import time

import pytest

from repro.apps import didactic
from repro.core import synthesize
from repro.parallel import cache
from repro.server import JobManager, JobSpec

#: Admission-queue depths the server benchmark sweeps.
SERVER_QUEUE_DEPTHS = (1, 8, 64)


@pytest.fixture(scope="module")
def server_bench():
    """Jobs/sec and latency percentiles per queue depth.

    The synthesis cache is primed first so each job's cost is dominated by
    the server machinery (admission, scheduling, completion bookkeeping),
    not by synthesis itself.
    """
    state = cache.snapshot()
    depths = {}
    try:
        cache.configure(enabled=True)
        synthesize(didactic.build_model())  # warm the content cache
        for depth in SERVER_QUEUE_DEPTHS:
            manager = JobManager(workers=2, queue_depth=depth).start()
            try:
                start = time.perf_counter()
                jobs = [
                    manager.submit(JobSpec(kind="synthesize", demo="didactic"))
                    for _ in range(depth)
                ]
                while not all(job.state.terminal for job in jobs):
                    time.sleep(0.002)
                elapsed = time.perf_counter() - start
                stat = manager.metrics.histogram_stat("server.job.latency")
                depths[str(depth)] = {
                    "jobs": depth,
                    "done": sum(
                        1 for job in jobs if job.state.value == "done"
                    ),
                    "jobs_per_sec": depth / elapsed,
                    "p50_latency_s": stat.percentile(0.50) if stat else None,
                    "p95_latency_s": stat.percentile(0.95) if stat else None,
                }
            finally:
                manager.shutdown()
    finally:
        cache.restore(state)
    return {"queue_depths": depths}


class TestServerThroughput:
    def test_sweep_queue_depths(self, server_bench, paper_report):
        depths = server_bench["queue_depths"]
        assert set(depths) == {str(d) for d in SERVER_QUEUE_DEPTHS}

        rows = []
        for depth in SERVER_QUEUE_DEPTHS:
            stats = depths[str(depth)]
            # Every admitted job must finish successfully.
            assert stats["done"] == stats["jobs"] == depth
            assert stats["jobs_per_sec"] > 0
            assert 0 <= stats["p50_latency_s"] <= stats["p95_latency_s"]
            rows.append(
                (
                    f"depth {depth}",
                    "n/a (not in paper)",
                    f"{stats['jobs_per_sec']:.0f} jobs/s, "
                    f"p50 {stats['p50_latency_s'] * 1e3:.1f} ms, "
                    f"p95 {stats['p95_latency_s'] * 1e3:.1f} ms",
                )
            )
        paper_report("server throughput vs queue depth", rows)

    def test_latency_grows_with_backlog(self, server_bench):
        # A deeper backlog means later jobs wait longer behind the same
        # two workers: p95 at depth 64 must dominate p95 at depth 1.
        depths = server_bench["queue_depths"]
        assert (
            depths["64"]["p95_latency_s"] >= depths["1"]["p95_latency_s"]
        )

"""Cross-thread trace stitching: no orphan span roots.

The differential contract: whatever executes the work — the DSE explorer
or the server's job threads with retries — the exported Chrome trace
must form a *single rooted span tree*: every worker/retry span carries a
``parent_id`` resolvable to another span in the same document.  ``tools/validate_trace.py --tree`` enforces exactly
this, so the tests call its validator directly.
"""

import os
import random
import sys
import time

from repro import obs
from repro.core.flow import TransientFlowError
from repro.core.taskgraph import TaskGraph
from repro.server import JobManager, JobOutcome, JobSpec, RetryPolicy

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "tools")
)
from validate_trace import validate_span_tree, validate_trace  # noqa: E402


def wait_terminal(jobs, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(job.state.terminal for job in jobs):
            return True
        time.sleep(interval)
    return False


def small_graph(threads=5, seed=11):
    rng = random.Random(seed)
    graph = TaskGraph()
    names = [f"T{i}" for i in range(threads)]
    for name in names:
        graph.add_node(name, rng.uniform(1.0, 5.0))
    for src, dst in zip(names, names[1:]):
        graph.add_edge(src, dst, rng.uniform(8.0, 64.0))
    return graph


def outcome(name="crane"):
    return JobOutcome(
        artifact_name=f"{name}.mdl",
        artifact_text=f'Model {{ Name "{name}" }}\n',
        payload={"model": name},
    )


class TestDseStitching:
    def test_dse_trace_is_single_rooted_tree(self):
        from repro.dse.explore import explore

        rec = obs.Recorder()
        with obs.use(rec):
            explore(small_graph())
        document = obs.to_chrome_trace(rec.finished_spans())
        validate_trace(document)
        validate_span_tree(document)


class TestServerStitching:
    def test_server_batch_with_retry_is_single_rooted_tree(self):
        attempts = {"n": 0}

        def flaky(job_spec, *, cancelled=None):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise TransientFlowError("transient worker crash")
            return outcome()

        rec = obs.Recorder()
        with obs.use(rec):
            with rec.span("cli.serve", category="cli"):
                manager = JobManager(
                    workers=2,
                    executor=flaky,
                    retry=RetryPolicy(
                        max_retries=2, base_delay_s=0.01, jitter=0.0
                    ),
                ).start()
                try:
                    jobs = [
                        manager.submit(
                            JobSpec(kind="synthesize", demo="crane")
                        )
                        for _ in range(3)
                    ]
                    assert wait_terminal(jobs)
                finally:
                    manager.shutdown()
        assert attempts["n"] >= 4  # 3 jobs + at least one retry
        spans = rec.finished_spans()
        document = obs.to_chrome_trace(spans)
        validate_trace(document)
        validate_span_tree(document)
        # Both attempts of the retried job sit under one server.job root,
        # and every job root hangs off the ambient cli.serve anchor.
        by_id = {s.id: s for s in spans}
        attempt_spans = [s for s in spans if s.name == "server.job.attempt"]
        assert len(attempt_spans) == 4
        for span in attempt_spans:
            parent = by_id[span.parent_id]
            assert parent.name == "server.job"
            assert by_id[parent.parent_id].name == "cli.serve"
        retried = [s for s in spans if s.name == "server.job"]
        parents_of_attempts = {s.parent_id for s in attempt_spans}
        assert parents_of_attempts == {s.id for s in retried}

    def test_job_root_span_closes_with_terminal_state(self):
        rec = obs.Recorder()
        with obs.use(rec):
            manager = JobManager(
                workers=1,
                executor=lambda s, cancelled=None: outcome(),
            ).start()
            try:
                job = manager.submit(JobSpec(kind="synthesize", demo="crane"))
                assert wait_terminal([job])
            finally:
                manager.shutdown()
        roots = [s for s in rec.finished_spans() if s.name == "server.job"]
        assert len(roots) == 1
        assert roots[0].attrs["state"] == "done"
        assert roots[0].attrs["attempts"] == 1

    def test_executor_spans_adopt_job_context(self):
        """Spans the executor opens parent into the job's attempt span."""

        def traced(job_spec, *, cancelled=None):
            with obs.get().span("flow.fake", category="flow"):
                pass
            return outcome()

        rec = obs.Recorder()
        with obs.use(rec):
            manager = JobManager(workers=1, executor=traced).start()
            try:
                job = manager.submit(JobSpec(kind="synthesize", demo="crane"))
                assert wait_terminal([job])
            finally:
                manager.shutdown()
        spans = rec.finished_spans()
        by_id = {s.id: s for s in spans}
        fake = [s for s in spans if s.name == "flow.fake"]
        assert len(fake) == 1
        assert by_id[fake[0].parent_id].name == "server.job.attempt"

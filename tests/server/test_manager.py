"""Robustness tests for the job manager.

Every test injects a synthetic executor so the scheduler's behaviour —
admission, timeouts, retries, cancellation, drain — is exercised without
paying for real synthesis runs.
"""

import threading
import time

import pytest

from repro.core.flow import FlowError, TransientFlowError
from repro.server import (
    JobManager,
    JobSpec,
    JobState,
    QueueFull,
    RetryPolicy,
    ShuttingDown,
    UnknownJob,
)
from repro.server.jobs import JobOutcome


def wait_for(predicate, timeout=5.0, interval=0.01):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def spec(**kwargs):
    kwargs.setdefault("kind", "synthesize")
    kwargs.setdefault("demo", "crane")
    return JobSpec(**kwargs)


def ok_outcome(name="crane"):
    return JobOutcome(
        artifact_name=f"{name}.mdl",
        artifact_text=f"Model {{ Name \"{name}\" }}\n",
        payload={"model": name},
    )


def instant_executor(job_spec, *, cancelled=None):
    return ok_outcome()


class Gate:
    """An executor that blocks until released (for queue/drain tests)."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, job_spec, *, cancelled=None):
        self.started.set()
        self.release.wait(timeout=10.0)
        return ok_outcome()


@pytest.fixture()
def fast_retry():
    return RetryPolicy(max_retries=2, base_delay_s=0.01, jitter=0.0)


class TestHappyPath:
    def test_submit_runs_to_done(self):
        manager = JobManager(workers=1, executor=instant_executor).start()
        try:
            job = manager.submit(spec())
            assert wait_for(lambda: job.state is JobState.DONE)
            assert job.attempts == 1
            assert job.outcome.artifact_name == "crane.mdl"
            assert job.finished_at is not None
            counters = manager.metrics.to_dict()["counters"]
            assert counters["server.jobs.submitted"] == 1
            assert counters["server.jobs.done"] == 1
        finally:
            manager.shutdown()

    def test_latency_histogram_records_each_job(self):
        manager = JobManager(workers=2, executor=instant_executor).start()
        try:
            jobs = [manager.submit(spec()) for _ in range(3)]
            assert wait_for(
                lambda: all(j.state is JobState.DONE for j in jobs)
            )
            stat = manager.metrics.histogram_stat("server.job.latency")
            assert stat is not None and stat.count == 3
        finally:
            manager.shutdown()

    def test_rejects_invalid_spec_before_admission(self):
        manager = JobManager(workers=1, executor=instant_executor).start()
        try:
            with pytest.raises(Exception, match="exactly one model source"):
                manager.submit(JobSpec(kind="synthesize"))
            assert manager.jobs() == []
        finally:
            manager.shutdown()

    def test_get_unknown_job(self):
        manager = JobManager(workers=1, executor=instant_executor).start()
        try:
            with pytest.raises(UnknownJob):
                manager.get("job-999999-deadbeef")
        finally:
            manager.shutdown()


class TestAdmissionControl:
    def test_queue_full_rejection(self):
        gate = Gate()
        manager = JobManager(workers=1, queue_depth=2, executor=gate).start()
        try:
            first = manager.submit(spec())
            assert gate.started.wait(timeout=5.0)  # worker is now occupied
            manager.submit(spec())
            manager.submit(spec())
            with pytest.raises(QueueFull, match="full"):
                manager.submit(spec())
            counters = manager.metrics.to_dict()["counters"]
            assert counters["server.jobs.rejected.full"] == 1
            gate.release.set()
            assert wait_for(lambda: first.state is JobState.DONE)
        finally:
            gate.release.set()
            manager.shutdown()

    def test_queue_depth_gauge_tracks_backlog(self):
        gate = Gate()
        manager = JobManager(workers=1, queue_depth=8, executor=gate).start()
        try:
            manager.submit(spec())
            assert gate.started.wait(timeout=5.0)
            manager.submit(spec())
            manager.submit(spec())
            metrics = manager.metrics.to_dict()
            assert metrics["gauges"]["server.queue.depth"] == 2
            assert metrics["gauges"]["server.jobs.inflight"] == 1
        finally:
            gate.release.set()
            manager.shutdown()

    def test_rejects_after_shutdown(self):
        manager = JobManager(workers=1, executor=instant_executor).start()
        manager.shutdown()
        with pytest.raises(ShuttingDown):
            manager.submit(spec())
        counters = manager.metrics.to_dict()["counters"]
        assert counters["server.jobs.rejected.shutdown"] == 1


class TestTimeout:
    def test_slow_job_times_out(self):
        def slow(job_spec, *, cancelled=None):
            # Cooperative: loop until the manager trips the cancel hook.
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if cancelled():
                    return ok_outcome()  # late result, must be discarded
                time.sleep(0.01)
            return ok_outcome()

        manager = JobManager(
            workers=1, job_timeout_s=0.15, executor=slow
        ).start()
        try:
            job = manager.submit(spec())
            assert wait_for(lambda: job.state is JobState.TIMED_OUT)
            assert "timed out" in job.error
            # The worker returns a late result; it must be dropped, not
            # resurrect the job.
            assert wait_for(
                lambda: manager.metrics.to_dict()["counters"].get(
                    "server.jobs.discarded_results", 0
                )
                == 1
            )
            assert job.state is JobState.TIMED_OUT
            counters = manager.metrics.to_dict()["counters"]
            assert counters["server.jobs.timed_out"] == 1
        finally:
            manager.shutdown()

    def test_per_spec_timeout_overrides_default(self):
        def slow(job_spec, *, cancelled=None):
            while not cancelled():
                time.sleep(0.01)
            return ok_outcome()

        manager = JobManager(
            workers=1, job_timeout_s=60.0, executor=slow
        ).start()
        try:
            job = manager.submit(spec(timeout_s=0.15))
            assert wait_for(lambda: job.state is JobState.TIMED_OUT)
            assert "0.15" in job.error
        finally:
            manager.shutdown()


class TestRetries:
    def test_transient_failure_retried_until_success(self, fast_retry):
        calls = []

        def flaky(job_spec, *, cancelled=None):
            calls.append(time.time())
            if len(calls) < 3:
                raise TransientFlowError("worker crashed")
            return ok_outcome()

        manager = JobManager(
            workers=1, retry=fast_retry, executor=flaky
        ).start()
        try:
            job = manager.submit(spec())
            assert wait_for(lambda: job.state is JobState.DONE)
            assert job.attempts == 3
            counters = manager.metrics.to_dict()["counters"]
            assert counters["server.jobs.retried"] == 2
            assert counters["server.jobs.done"] == 1
            # not_before enforces at least the backoff delay between
            # attempts: 0.01s before the first retry, 0.02s before the
            # second (doubling, jitter disabled).
            assert calls[1] - calls[0] >= 0.01
            assert calls[2] - calls[1] >= 0.02

        finally:
            manager.shutdown()

    def test_retries_exhausted_fails(self, fast_retry):
        def always_transient(job_spec, *, cancelled=None):
            raise TransientFlowError("still broken")

        manager = JobManager(
            workers=1, retry=fast_retry, executor=always_transient
        ).start()
        try:
            job = manager.submit(spec())
            assert wait_for(lambda: job.state is JobState.FAILED)
            assert job.attempts == 3  # 1 original + max_retries
            assert "TransientFlowError" in job.error
        finally:
            manager.shutdown()

    def test_deterministic_flow_error_never_retried(self, fast_retry):
        calls = []

        def deterministic(job_spec, *, cancelled=None):
            calls.append(1)
            raise FlowError("model is invalid")

        manager = JobManager(
            workers=1, retry=fast_retry, executor=deterministic
        ).start()
        try:
            job = manager.submit(spec())
            assert wait_for(lambda: job.state is JobState.FAILED)
            assert job.attempts == 1
            assert len(calls) == 1
            assert "FlowError: model is invalid" in job.error
            counters = manager.metrics.to_dict()["counters"]
            assert "server.jobs.retried" not in counters
        finally:
            manager.shutdown()


class TestCancellation:
    def test_cancel_queued_job(self):
        gate = Gate()
        manager = JobManager(workers=1, executor=gate).start()
        try:
            manager.submit(spec())
            assert gate.started.wait(timeout=5.0)
            queued = manager.submit(spec())
            cancelled = manager.cancel(queued.id)
            assert cancelled.state is JobState.CANCELLED
            gate.release.set()
            # The cancelled job never runs.
            time.sleep(0.1)
            assert queued.attempts == 0
        finally:
            gate.release.set()
            manager.shutdown()

    def test_cancel_running_job_discards_result(self):
        gate = Gate()
        manager = JobManager(workers=1, executor=gate).start()
        try:
            job = manager.submit(spec())
            assert gate.started.wait(timeout=5.0)
            manager.cancel(job.id)
            assert job.state is JobState.CANCELLED
            assert job.cancel_event.is_set()
            gate.release.set()
            assert wait_for(
                lambda: manager.metrics.to_dict()["counters"].get(
                    "server.jobs.discarded_results", 0
                )
                == 1
            )
            assert job.state is JobState.CANCELLED
        finally:
            gate.release.set()
            manager.shutdown()

    def test_cancel_is_idempotent_on_terminal(self):
        manager = JobManager(workers=1, executor=instant_executor).start()
        try:
            job = manager.submit(spec())
            assert wait_for(lambda: job.state is JobState.DONE)
            assert manager.cancel(job.id).state is JobState.DONE
        finally:
            manager.shutdown()

    def test_cancel_unknown_job(self):
        manager = JobManager(workers=1, executor=instant_executor).start()
        try:
            with pytest.raises(UnknownJob):
                manager.cancel("job-000000-00000000")
        finally:
            manager.shutdown()


class TestShutdown:
    def test_drain_finishes_running_and_journals_queue(self, tmp_path):
        journal = str(tmp_path / "journal.json")
        gate = Gate()
        manager = JobManager(
            workers=1, queue_depth=8, journal_path=journal, executor=gate
        ).start()
        running = manager.submit(spec())
        manager.submit(spec(demo="didactic"))
        manager.submit(spec(kind="explore", demo="didactic"))
        assert gate.started.wait(timeout=5.0)

        result = {}
        shutter = threading.Thread(
            target=lambda: result.update(manager.shutdown(timeout=10.0))
        )
        shutter.start()
        # Admission closes immediately, even while draining.
        assert wait_for(lambda: manager.draining)
        gate.release.set()
        shutter.join(timeout=10.0)
        assert not shutter.is_alive()

        assert running.state is JobState.DONE
        assert result == {"drained": 1, "journaled": 2, "backlog": 2}

        # A new manager on the same journal path replays the backlog.
        done = []

        def recorder_executor(job_spec, *, cancelled=None):
            done.append(job_spec)
            return ok_outcome()

        revived = JobManager(
            workers=1, journal_path=journal, executor=recorder_executor
        ).start()
        try:
            assert wait_for(lambda: len(done) == 2)
            assert {s.demo for s in done} == {"didactic"}
            assert {s.kind for s in done} == {"synthesize", "explore"}
            assert revived.stats()["recovered_from_journal"] == 2
        finally:
            revived.shutdown()
        # Journal was consumed: nothing left to replay.
        assert JobManager(
            workers=1, journal_path=journal, executor=recorder_executor
        ).start().shutdown()["journaled"] == 0

    def test_clean_shutdown_leaves_no_journal(self, tmp_path):
        journal = tmp_path / "journal.json"
        manager = JobManager(
            workers=1, journal_path=str(journal), executor=instant_executor
        ).start()
        job = manager.submit(spec())
        assert wait_for(lambda: job.state is JobState.DONE)
        summary = manager.shutdown()
        assert summary["journaled"] == 0
        assert not journal.exists()

    def test_shutdown_without_drain_abandons_workers(self):
        gate = Gate()
        manager = JobManager(workers=1, executor=gate).start()
        manager.submit(spec())
        assert gate.started.wait(timeout=5.0)
        summary = manager.shutdown(drain=False)
        assert summary["drained"] == 0
        gate.release.set()

    def test_stats_shape(self):
        manager = JobManager(workers=3, queue_depth=5, executor=instant_executor)
        manager.start()
        try:
            job = manager.submit(spec())
            assert wait_for(lambda: job.state is JobState.DONE)
            stats = manager.stats()
            assert stats["state"] == "serving"
            assert stats["workers"] == 3
            assert stats["queue_depth"] == 5
            assert stats["jobs"] == {"done": 1}
        finally:
            manager.shutdown()
        assert manager.stats()["state"] == "draining"

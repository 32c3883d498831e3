"""A serving session's memory does not grow with the jobs it has served.

The manager runs under an enabled recorder that exports no spans (what
``repro serve`` without ``--trace-out`` installs): after more than
:data:`MAX_FINISHED_JOBS` jobs the table holds only the most recently
finished ones, the recorder holds no spans, and no finished job keeps
its inline XMI.  Evicted ids answer 404 over real HTTP.
"""

import threading

import pytest

from repro import obs
from repro.server import JobManager, JobSpec, JobState, UnknownJob
from repro.server.journal import read_journal
from repro.server.manager import MAX_FINISHED_JOBS

from .test_http import _serve, request
from .test_manager import Gate, instant_executor, ok_outcome, wait_for


def drain_releasing(manager, gate):
    """Begin shutdown, then let the gated job finish; the summary."""
    result = {}
    shutter = threading.Thread(
        target=lambda: result.update(manager.shutdown(timeout=10.0))
    )
    shutter.start()
    assert wait_for(lambda: manager.draining)
    gate.release.set()
    shutter.join(timeout=10.0)
    assert not shutter.is_alive()
    return result


def xmi_spec(index):
    return JobSpec(
        kind="synthesize", model_xmi=f'<XMI xmi.version="1.2" n="{index}"/>'
    )


class TestBoundedJobTable:
    def test_table_spans_and_xmi_stay_bounded(self):
        rec = obs.Recorder(keep_spans=False)
        manager = JobManager(
            workers=2,
            queue_depth=MAX_FINISHED_JOBS + 50,
            executor=instant_executor,
            recorder=rec,
        )
        served = _serve(manager)
        base, _ = next(served)
        try:
            submitted = [
                manager.submit(xmi_spec(i))
                for i in range(MAX_FINISHED_JOBS + 50)
            ]
            assert wait_for(
                lambda: all(job.state.terminal for job in submitted)
            )
            assert all(job.state is JobState.DONE for job in submitted)
            stats = manager.stats()
            live = stats["queued"] + stats["running"]
            assert len(manager.jobs()) <= MAX_FINISHED_JOBS + live
            assert rec.spans == [] and rec.finished_spans() == []
            assert rec.metrics.counter("server.jobs.done") == len(submitted)
            assert [j for j in submitted if j.spec.model_xmi is not None] == []

            retained = {job.id for job in manager.jobs()}
            evicted = [job for job in submitted if job.id not in retained]
            assert len(evicted) == 50
            evicted, kept = evicted[0], submitted[-1]
            status, _, _ = request("GET", f"{base}/jobs/{evicted.id}")
            assert status == 404
            status, _, _ = request("GET", f"{base}/jobs/{evicted.id}/artifact")
            assert status == 404
            status, _, document = request("GET", f"{base}/jobs/{kept.id}")
            assert status == 200 and document["state"] == "done"
            status, _, listing = request("GET", f"{base}/jobs")
            assert listing["count"] == MAX_FINISHED_JOBS
        finally:
            next(served, None)

    def test_executor_sees_xmi_terminal_job_drops_it(self):
        seen = []

        def recording(job_spec, *, cancelled=None):
            seen.append(job_spec.model_xmi)
            return ok_outcome()

        manager = JobManager(
            workers=1,
            executor=recording,
            recorder=obs.Recorder(keep_spans=False),
        ).start()
        try:
            job = manager.submit(xmi_spec(0))
            assert wait_for(lambda: job.state is JobState.DONE)
            assert seen == [xmi_spec(0).model_xmi]
            assert job.spec.model_xmi is None
        finally:
            manager.shutdown()

    def test_shutdown_journals_queued_xmi_unchanged(self, tmp_path):
        journal = str(tmp_path / "journal.json")
        gate = Gate()
        manager = JobManager(
            workers=1, journal_path=journal, executor=gate
        ).start()
        manager.submit(xmi_spec(0))
        assert gate.started.wait(timeout=5.0)
        backlog = [xmi_spec(1), xmi_spec(2)]
        for queued in backlog:
            manager.submit(queued)
        assert drain_releasing(manager, gate) == {
            "drained": 1,
            "journaled": 2,
            "backlog": 2,
        }
        assert read_journal(journal) == backlog


class TestShutdownAfterEviction:
    def test_drained_count_survives_eviction(self):
        """A job timed out mid-execution is terminal but still running;
        once later jobs evict it, shutdown must still count it."""
        gate = Gate()

        def executor(job_spec, *, cancelled=None):
            if job_spec.demo:
                return gate(job_spec, cancelled=cancelled)
            return ok_outcome()

        manager = JobManager(
            workers=2,
            queue_depth=MAX_FINISHED_JOBS + 1,
            executor=executor,
            recorder=obs.Recorder(keep_spans=False),
        ).start()
        try:
            stuck = manager.submit(
                JobSpec(kind="synthesize", demo="crane", timeout_s=0.05)
            )
            assert wait_for(lambda: stuck.state is JobState.TIMED_OUT)
            others = [
                manager.submit(xmi_spec(i))
                for i in range(MAX_FINISHED_JOBS + 1)
            ]
            assert wait_for(lambda: all(j.state.terminal for j in others))
            with pytest.raises(UnknownJob):
                manager.get(stuck.id)
        except BaseException:
            gate.release.set()
            manager.shutdown()
            raise
        assert drain_releasing(manager, gate)["drained"] == 1

    def test_get_takes_the_manager_lock(self):
        manager = JobManager(workers=1, executor=instant_executor).start()
        try:
            job = manager.submit(xmi_spec(0))
            holding, release = threading.Event(), threading.Event()

            def hold():
                with manager._lock:
                    holding.set()
                    release.wait(timeout=5.0)

            holder = threading.Thread(target=hold)
            holder.start()
            assert holding.wait(timeout=5.0)
            got = []
            reader = threading.Thread(
                target=lambda: got.append(manager.get(job.id))
            )
            reader.start()
            reader.join(timeout=0.2)
            blocked = reader.is_alive()
            release.set()
            holder.join(timeout=5.0)
            reader.join(timeout=5.0)
            assert blocked and got == [job]
        finally:
            manager.shutdown()

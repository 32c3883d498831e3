"""Zoo scenarios as server workloads, and journal-replay ordering.

Two things are pinned here: a generated scenario travels to the server
as pure data (XMI spec) and comes back byte-identical to the direct
library call, and a graceful drain's journal replays queued zoo specs
in FIFO order on restart.
"""

import threading
import time

import pytest

from repro.core import synthesize
from repro.server import JobManager, JobSpec
from repro.server.executor import execute
from repro.server.journal import read_journal
from repro.zoo import ZooError, generate_scenario, scenario_job_spec


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _scenarios(count=3):
    return [generate_scenario(17, index, "pipeline") for index in range(count)]


class TestScenarioJobSpec:
    def test_synthesize_spec_is_valid_pure_data(self):
        scenario = _scenarios(1)[0]
        spec = scenario_job_spec(scenario)
        assert spec.kind == "synthesize"
        assert spec.model_xmi and "<uml:Model" in spec.model_xmi
        assert spec.options["name"] == scenario.name
        # Journal round-trip must be lossless (specs are pure data).
        assert JobSpec(**spec.to_dict()).validate() == spec

    def test_explore_spec(self):
        spec = scenario_job_spec(_scenarios(1)[0], kind="explore")
        assert spec.kind == "explore"

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ZooError, match="simulate"):
            scenario_job_spec(_scenarios(1)[0], kind="simulate")


class TestZooArtifactParity:
    def test_executed_spec_matches_direct_library_call(self):
        scenario = _scenarios(1)[0]
        outcome = execute(scenario_job_spec(scenario))
        direct = synthesize(
            scenario.model,
            auto_allocate=scenario.params.auto_allocate,
            name=scenario.name,
        )
        assert outcome.artifact_text == direct.mdl_text


class Blocker:
    """Executor that parks the first job until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, spec, *, cancelled=None):
        self.started.set()
        self.release.wait(timeout=30.0)
        return execute(spec, cancelled=cancelled)


class Recorder:
    """Real executor that records the specs it ran, in order."""

    def __init__(self):
        self.specs = []

    def __call__(self, spec, *, cancelled=None):
        self.specs.append(spec)
        return execute(spec, cancelled=cancelled)


class TestJournalReplayOrdering:
    def test_drain_then_restart_replays_fifo(self, tmp_path):
        journal = str(tmp_path / "journal.json")
        scenarios = _scenarios(3)
        specs = [scenario_job_spec(s) for s in scenarios]

        blocker = Blocker()
        first = JobManager(
            workers=1, queue_depth=8, journal_path=journal, executor=blocker
        ).start()
        try:
            first.submit(JobSpec(kind="synthesize", demo="didactic"))
            queued = [first.submit(spec) for spec in specs]
            assert wait_for(blocker.started.is_set)
        finally:
            stats = first.shutdown(drain=False)
            blocker.release.set()
        assert stats["journaled"] == len(specs)
        assert [job.state.name for job in queued] == ["QUEUED"] * 3
        # The journal itself preserves submission order.
        assert read_journal(journal) == specs

        recorder = Recorder()
        second = JobManager(
            workers=1, queue_depth=8, journal_path=journal, executor=recorder
        ).start()
        try:
            replayed = [job for job in second.jobs()]
            assert len(replayed) == len(specs)
            assert wait_for(
                lambda: all(job.state.terminal for job in second.jobs())
            )
            jobs = second.jobs()
        finally:
            second.shutdown()
        # FIFO: the single worker ran the recovered specs in submission
        # order, and the journal is consumed (one-shot).
        assert recorder.specs == specs
        assert read_journal(journal) == []
        # Artifacts match direct library synthesis, scenario by scenario.
        by_name = {job.spec.options["name"]: job for job in jobs}
        for scenario in scenarios:
            job = by_name[scenario.name]
            assert job.state.name == "DONE", job.error
            direct = synthesize(
                scenario.model,
                auto_allocate=scenario.params.auto_allocate,
                name=scenario.name,
            )
            assert job.outcome.artifact_text == direct.mdl_text

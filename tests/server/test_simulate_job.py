"""The ``simulate`` job kind: spec validation and served-result parity.

A simulate job synthesizes the model through the same front door as a
``synthesize`` job and then batch-executes the CAAM with
:meth:`Simulator.run_many`; the served JSON artifact must match a direct
library run episode for episode.
"""

import json

import pytest

from repro.apps import didactic
from repro.core.flow import FlowError, synthesize
from repro.server import JobManager, JobSpec, JobState, SpecError
from repro.server.executor import execute
from repro.server.jobs import SIMULATE_OPTIONS
from repro.simulink import Simulator, numpy_available

from .test_manager import wait_for


class TestSpecValidation:
    def test_simulate_kind_admitted(self):
        spec = JobSpec(
            kind="simulate",
            demo="didactic",
            options={"steps": 10, "stimuli": [{}]},
        )
        assert spec.validate() is spec

    def test_unknown_option_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            JobSpec(
                kind="simulate", demo="didactic", options={"step": 10}
            ).validate()
        assert "'step'" in str(excinfo.value)

    def test_option_set_documented(self):
        assert SIMULATE_OPTIONS == {
            "steps", "stimuli", "monitor", "engine", "use_cache"
        }

    def test_round_trips_through_json(self):
        spec = JobSpec(
            kind="simulate",
            demo="didactic",
            options={"steps": 5, "engine": "reference"},
        )
        assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestExecutorValidation:
    def test_negative_steps_rejected(self):
        spec = JobSpec(kind="simulate", demo="didactic", options={"steps": -1})
        with pytest.raises(FlowError, match="steps"):
            execute(spec)

    def test_bool_steps_rejected(self):
        spec = JobSpec(kind="simulate", demo="didactic", options={"steps": True})
        with pytest.raises(FlowError, match="steps"):
            execute(spec)

    def test_non_list_stimuli_rejected(self):
        spec = JobSpec(
            kind="simulate", demo="didactic", options={"stimuli": {"In1": []}}
        )
        with pytest.raises(FlowError, match="stimuli"):
            execute(spec)

    def test_empty_stimuli_rejected(self):
        spec = JobSpec(kind="simulate", demo="didactic", options={"stimuli": []})
        with pytest.raises(FlowError, match="stimuli"):
            execute(spec)

    def test_bad_monitor_rejected(self):
        spec = JobSpec(
            kind="simulate", demo="didactic", options={"monitor": "m/x"}
        )
        with pytest.raises(FlowError, match="monitor"):
            execute(spec)

    @pytest.mark.parametrize(
        "stimulus",
        [
            {"In1": "abc"},
            {"In1": [1, "x"]},
            {"In1": [True, 0.5]},
            {"In1": 1.0},
            {"In1": [float("nan")]},
        ],
        ids=["string", "string-sample", "bool-sample", "scalar", "nan"],
    )
    def test_non_numeric_stimulus_rejected(self, stimulus):
        spec = JobSpec(
            kind="simulate", demo="crane", options={"stimuli": [stimulus]}
        )
        with pytest.raises(FlowError, match="stimulus 'In1'"):
            execute(spec)

    def test_unknown_monitor_path_is_flow_error(self):
        spec = JobSpec(
            kind="simulate", demo="crane", options={"monitor": ["nope/x"]}
        )
        with pytest.raises(FlowError, match="no block named .nope."):
            execute(spec)


class TestSimulateDifferential:
    def test_served_episodes_match_library_run_many(self):
        stimuli = [{}, {}]
        caam = synthesize(didactic.build_model()).caam
        expected = [
            {"outputs": episode.outputs, "signals": episode.signals}
            for episode in Simulator(caam).run_many(20, stimuli)
        ]

        manager = JobManager(workers=1).start()
        try:
            job = manager.submit(
                JobSpec(
                    kind="simulate",
                    demo="didactic",
                    options={"steps": 20, "stimuli": stimuli},
                )
            )
            assert wait_for(lambda: job.state.terminal, timeout=60.0)
            assert job.state is JobState.DONE, job.error
            assert job.outcome.artifact_name.endswith(".sim.json")
            assert json.loads(job.outcome.artifact_text) == expected
            assert job.outcome.payload["episodes"] == 2
            # With NumPy in the environment the job defaults to the
            # vectorized batch engine; the artifact equality above pins
            # it byte-for-byte against the looped library run.
            expected_engine = "batch" if numpy_available() else "slots"
            assert job.outcome.payload["engine"] == expected_engine
        finally:
            manager.shutdown()

    def test_engines_serve_identical_bytes(self):
        default = execute(
            JobSpec(kind="simulate", demo="didactic", options={"steps": 15})
        )
        slots = execute(
            JobSpec(
                kind="simulate",
                demo="didactic",
                options={"steps": 15, "engine": "slots"},
            )
        )
        reference = execute(
            JobSpec(
                kind="simulate",
                demo="didactic",
                options={"steps": 15, "engine": "reference"},
            )
        )
        assert default.artifact_text == slots.artifact_text
        assert slots.artifact_text == reference.artifact_text
        expected_engine = "batch" if numpy_available() else "slots"
        assert default.payload["engine"] == expected_engine
        assert slots.payload["engine"] == "slots"
        assert reference.payload["engine"] == "reference"

    @pytest.mark.skipif(not numpy_available(), reason="requires NumPy")
    def test_batched_job_artifact_parity_with_looped_path(self):
        """The batch engine's artifact is byte-identical to the looped one."""
        stimuli = [
            {"In1": [0.5 * k for k in range(steps)]} for steps in (3, 8, 0, 12)
        ]
        options = {"steps": 10, "stimuli": stimuli}
        batched = execute(
            JobSpec(kind="simulate", demo="didactic", options=dict(options))
        )
        looped = execute(
            JobSpec(
                kind="simulate",
                demo="didactic",
                options={**options, "engine": "slots"},
            )
        )
        assert batched.payload["engine"] == "batch"
        assert looped.payload["engine"] == "slots"
        assert batched.artifact_text == looped.artifact_text

"""Unit tests for the job model: specs, state machine, status documents."""

import pytest

from repro.server.jobs import (
    TRANSITIONS,
    Job,
    JobOutcome,
    JobSpec,
    JobState,
    SpecError,
    StateError,
)
from repro.simulink.simulator import ENGINES


class TestJobSpec:
    def test_valid_demo_spec(self):
        spec = JobSpec(kind="synthesize", demo="crane").validate()
        assert spec.demo == "crane"

    def test_valid_xmi_spec(self):
        spec = JobSpec(kind="explore", model_xmi="<xmi/>").validate()
        assert spec.model_xmi == "<xmi/>"

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown job kind"):
            JobSpec(kind="transmogrify", demo="crane").validate()

    def test_needs_exactly_one_model_source(self):
        with pytest.raises(SpecError, match="exactly one model source"):
            JobSpec(kind="synthesize").validate()
        with pytest.raises(SpecError, match="exactly one model source"):
            JobSpec(
                kind="synthesize", demo="crane", model_xmi="<xmi/>"
            ).validate()

    def test_unknown_synthesize_option(self):
        with pytest.raises(SpecError, match="'workers'"):
            JobSpec(
                kind="synthesize", demo="crane", options={"workers": 4}
            ).validate()

    def test_explore_options_differ_from_synthesize(self):
        JobSpec(
            kind="explore", demo="crane", options={"max_cpus": 2}
        ).validate()
        with pytest.raises(SpecError, match="unknown synthesize option"):
            JobSpec(
                kind="synthesize", demo="crane", options={"max_cpus": 2}
            ).validate()

    def test_bad_timeout(self):
        with pytest.raises(SpecError, match="timeout_s"):
            JobSpec(kind="synthesize", demo="crane", timeout_s=0).validate()
        with pytest.raises(SpecError, match="timeout_s"):
            JobSpec(
                kind="synthesize", demo="crane", timeout_s="soon"
            ).validate()

    def test_dict_round_trip(self):
        spec = JobSpec(
            kind="synthesize",
            demo="crane",
            options={"use_cache": False},
            timeout_s=2.5,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            JobSpec.from_dict(["synthesize"])

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(SpecError, match="'priority'"):
            JobSpec.from_dict(
                {"kind": "synthesize", "demo": "crane", "priority": 7}
            )



#: Explore option values a client may send that the explorer cannot take.
BAD_EXPLORE_OPTIONS = [
    ("objective", "speed"),
    ("objective", None),
    ("max_cpus", 0),
    ("max_cpus", -3),
    ("max_cpus", "2"),
    ("max_cpus", 1.5),
    ("max_cpus", True),
    ("exhaustive_threshold", -1),
    ("exhaustive_threshold", "8"),
    ("exhaustive_threshold", 2.0),
    ("exhaustive_threshold", False),
    ("cycles_per_unit", "x"),
    ("cycles_per_unit", -50),
    ("cycles_per_unit", 0),
    ("cycles_per_unit", float("nan")),
    ("cycles_per_unit", float("inf")),
    ("cycles_per_unit", 10**400),
    ("cycles_per_unit", True),
    ("cycles_per_unit", None),
]


class TestExploreOptions:
    @pytest.mark.parametrize(
        "option, value", BAD_EXPLORE_OPTIONS, ids=[
            f"{option}={value!r}"[:40] for option, value in BAD_EXPLORE_OPTIONS
        ]
    )
    def test_bad_value_is_a_spec_error(self, option, value):
        with pytest.raises(SpecError, match=repr(option)):
            JobSpec.from_dict(
                {"kind": "explore", "demo": "synthetic", "options": {option: value}}
            )

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"objective": "throughput", "max_cpus": None},
            {"max_cpus": 1, "exhaustive_threshold": 0, "cycles_per_unit": 1},
            {"objective": "latency", "cycles_per_unit": 0.5},
        ],
    )
    def test_valid_values_are_admitted(self, options):
        spec = JobSpec.from_dict(
            {"kind": "explore", "demo": "synthetic", "options": options}
        )
        assert spec.options == options

    def test_only_explore_options_are_checked(self):
        # ``objective`` is not a synthesize option at all; the unknown-option
        # check, not the explore value check, answers for other kinds.
        with pytest.raises(SpecError, match="unknown synthesize option"):
            JobSpec.from_dict(
                {"kind": "synthesize", "demo": "crane", "options": {"objective": 1}}
            )


class TestFlagAndEngineOptions:
    @pytest.mark.parametrize("kind", ["synthesize", "codegen"])
    @pytest.mark.parametrize("value", ["yes", 5, 0, None, [True]])
    def test_non_boolean_auto_allocate_is_a_spec_error(self, kind, value):
        with pytest.raises(SpecError, match="'auto_allocate'"):
            JobSpec.from_dict(
                {
                    "kind": kind,
                    "demo": "crane",
                    "options": {"auto_allocate": value},
                }
            )

    @pytest.mark.parametrize(
        "kind, flag",
        [
            ("synthesize", "layout"),
            ("synthesize", "strict"),
            ("synthesize", "use_cache"),
            ("analyze", "require_deployment"),
            ("simulate", "use_cache"),
        ],
    )
    def test_every_flag_must_be_a_boolean(self, kind, flag):
        with pytest.raises(SpecError, match=repr(flag)):
            JobSpec.from_dict(
                {"kind": kind, "demo": "crane", "options": {flag: "true"}}
            )

    @pytest.mark.parametrize("kind", ["synthesize", "codegen"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_flags_are_admitted(self, kind, value):
        spec = JobSpec.from_dict(
            {"kind": kind, "demo": "crane", "options": {"auto_allocate": value}}
        )
        assert spec.options["auto_allocate"] is value

    @pytest.mark.parametrize("engine", ["warp", "", "BATCH", 1, ["batch"]])
    def test_unknown_simulate_engine_is_a_spec_error(self, engine):
        with pytest.raises(SpecError, match="'engine'"):
            JobSpec.from_dict(
                {
                    "kind": "simulate",
                    "demo": "crane",
                    "options": {"engine": engine},
                }
            )

    @pytest.mark.parametrize("engine", [None, *ENGINES])
    def test_known_simulate_engines_are_admitted(self, engine):
        spec = JobSpec.from_dict(
            {"kind": "simulate", "demo": "crane", "options": {"engine": engine}}
        )
        assert spec.options["engine"] == engine


class TestStateMachine:
    def test_queued_to_done_happy_path(self):
        job = Job(spec=JobSpec(kind="synthesize", demo="crane"))
        assert job.state is JobState.QUEUED
        job.advance(JobState.RUNNING)
        job.advance(JobState.DONE)
        assert job.state.terminal

    def test_running_cannot_go_back_to_queued(self):
        job = Job(spec=JobSpec(kind="synthesize", demo="crane"))
        job.advance(JobState.RUNNING)
        with pytest.raises(StateError, match="running -> queued"):
            job.advance(JobState.QUEUED)

    def test_queued_cannot_jump_to_done(self):
        job = Job(spec=JobSpec(kind="synthesize", demo="crane"))
        with pytest.raises(StateError, match="queued -> done"):
            job.advance(JobState.DONE)

    def test_terminal_states_are_dead_ends(self):
        for terminal in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMED_OUT,
        ):
            assert terminal.terminal
            assert not TRANSITIONS[terminal]
            job = Job(spec=JobSpec(kind="synthesize", demo="crane"))
            job.state = terminal
            with pytest.raises(StateError):
                job.advance(JobState.QUEUED)

    def test_ids_are_unique_and_sortable(self):
        a = Job(spec=JobSpec(kind="synthesize", demo="crane"))
        b = Job(spec=JobSpec(kind="synthesize", demo="crane"))
        assert a.id != b.id
        assert a.id < b.id  # monotone sequence prefix


class TestStatusDocument:
    def test_includes_artifact_only_when_done(self):
        job = Job(spec=JobSpec(kind="synthesize", demo="crane"))
        assert "artifact" not in job.to_dict()
        job.advance(JobState.RUNNING)
        job.outcome = JobOutcome(
            artifact_name="crane.mdl",
            artifact_text="Model {}",
            payload={"blocks": 3},
        )
        job.advance(JobState.DONE)
        doc = job.to_dict()
        assert doc["artifact"] == "crane.mdl"
        assert doc["result"] == {"blocks": 3}
        assert job.to_dict(with_payload=False).get("result") is None

    def test_reports_kind_state_timestamps(self):
        job = Job(spec=JobSpec(kind="explore", demo="didactic"))
        doc = job.to_dict()
        assert doc["kind"] == "explore"
        assert doc["state"] == "queued"
        assert doc["started_at"] is None
        assert "attempts" not in doc
        assert doc["demo"] == "didactic"


def test_infeasible_exploration_is_a_flow_error():
    # Exhaustive exploration refuses the 12 threads of the synthetic demo;
    # the job fails with the typed model error, not an internal one.
    from repro.core.flow import FlowError
    from repro.server.executor import execute

    spec = JobSpec.from_dict(
        {
            "kind": "explore",
            "demo": "synthetic",
            "options": {"exhaustive_threshold": 20},
        }
    )
    with pytest.raises(FlowError, match="use greedy_explore"):
        execute(spec)


def test_overflowing_estimate_is_a_flow_error():
    # A finite but huge cycles_per_unit passes the spec check; makespans
    # that overflow to infinity must not reach the artifact as the
    # non-JSON token ``Infinity``.
    from repro.core.flow import FlowError
    from repro.server.executor import execute

    spec = JobSpec.from_dict(
        {"kind": "explore", "demo": "crane", "options": {"cycles_per_unit": 1e308}}
    )
    with pytest.raises(FlowError, match="out of range"):
        execute(spec)

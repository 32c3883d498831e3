"""repro.zoo — a generated model zoo.

A seeded, parameterized generator of full UML-level scenarios
(:mod:`.generator`), reproducible corpus manifests (:mod:`.manifest`),
a full-flow differential harness (:mod:`.harness`), and hypothesis
strategies for property tests (:mod:`.strategies`).  See
``docs/testing.md``.
"""

from .generator import (
    FAMILIES,
    GENERATOR_VERSION,
    PATHOLOGICAL_EXPECTED_CODES,
    PATHOLOGICAL_KINDS,
    FsmSpec,
    Scenario,
    ScenarioParams,
    ZooError,
    build_fsm,
    build_scenario,
    build_state_machine,
    draw_params,
    generate_corpus,
    generate_pathological,
    generate_scenario,
    scenario_families,
    stimuli_for,
)
from .harness import (
    HarnessReport,
    ScenarioFailure,
    ScenarioReport,
    check_scenario,
    run_corpus,
)
from .manifest import (
    build_manifest,
    corpus_digest,
    read_manifest,
    render_manifest,
    scenario_record,
    verify_manifest,
    write_manifest,
)
from .workload import scenario_job_spec

__all__ = [
    "FAMILIES",
    "GENERATOR_VERSION",
    "PATHOLOGICAL_EXPECTED_CODES",
    "PATHOLOGICAL_KINDS",
    "FsmSpec",
    "HarnessReport",
    "Scenario",
    "ScenarioFailure",
    "ScenarioParams",
    "ScenarioReport",
    "ZooError",
    "build_fsm",
    "build_manifest",
    "build_scenario",
    "build_state_machine",
    "check_scenario",
    "corpus_digest",
    "draw_params",
    "generate_corpus",
    "generate_pathological",
    "generate_scenario",
    "read_manifest",
    "render_manifest",
    "run_corpus",
    "scenario_families",
    "scenario_job_spec",
    "scenario_record",
    "stimuli_for",
    "verify_manifest",
    "write_manifest",
]

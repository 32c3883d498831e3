"""Integration tests: the full pipeline across packages."""

import pytest

from repro.apps import crane, didactic, synthetic
from repro.backends import DesignFlow, JavaBackend, SimulinkBackend
from repro.codegen import build_schedule
from repro.codegen.cemit import generate_threaded_c
from repro.core import synthesize
from repro.mpsoc import platform_for_caam, schedule_caam
from repro.simulink import Simulator, from_ecore_string, from_mdl, is_executable
from repro.uml import from_xmi_string, to_xmi_string


class TestFourStepFlow:
    """The paper's Fig. 2 pipeline: UML (XMI) -> model-to-model -> optimize
    -> model-to-text (.mdl)."""

    def test_every_step_artifact_produced(self, didactic_model):
        # Step 1: the UML model, as an interchange file.
        xmi = to_xmi_string(didactic_model)
        reloaded = from_xmi_string(xmi)
        # Step 2+3: transformation + optimization.
        result = synthesize(reloaded, behaviors=didactic.behaviors())
        assert "caam:Model" in result.intermediate_xml
        # Step 4: .mdl emission, parseable by the Simulink substrate.
        loaded = from_mdl(result.mdl_text)
        assert loaded.summary() == result.caam.summary()

    def test_intermediate_reloads_and_optimizes_separately(self, didactic_model):
        """The persisted step-2 artifact can be optimized offline, like the
        paper's tool that works on the E-core file."""
        from repro.core import insert_temporal_barriers

        result = synthesize(crane.build_model(), insert_barriers=False)
        intermediate = from_ecore_string(result.intermediate_xml)
        assert not is_executable(intermediate)[0]
        insert_temporal_barriers(intermediate)
        assert is_executable(intermediate)[0]

    def test_xmi_round_trip_gives_identical_synthesis(self, synthetic_model):
        direct = synthesize(synthetic_model, auto_allocate=True)
        via_xmi = synthesize(
            from_xmi_string(to_xmi_string(synthetic_model)), auto_allocate=True
        )
        assert direct.mdl_text == via_xmi.mdl_text


class TestHeterogeneousFanOut:
    def test_one_model_two_backends(self, crane_model):
        flow = DesignFlow(
            [SimulinkBackend(behaviors=crane.behaviors()), JavaBackend()]
        )
        artifacts = flow.generate_all(crane_model)
        assert set(artifacts) == {"simulink", "java"}
        assert "crane.mdl" in artifacts["simulink"]
        assert "pe_T3_step()" in artifacts["java"]["CraneThreads.java"]

    def test_caam_feeds_mpsoc_codegen(self, didactic_result):
        sources = generate_threaded_c(build_schedule(didactic_result.caam))
        source = sources["didactic_threads.c"]
        assert "static void *cpu_CPU1_thread(void *arg)" in source
        assert "static void *cpu_CPU2_thread(void *arg)" in source

    def test_caam_feeds_mpsoc_scheduler(self, didactic_result):
        platform = platform_for_caam(didactic_result.caam)
        schedule = schedule_caam(didactic_result.caam, platform)
        assert len(schedule.tasks) == 3
        assert schedule.makespan > 0


class TestExecutableEndToEnd:
    def test_didactic_pipeline_numerics(self):
        result = synthesize(
            didactic.build_model(), behaviors=didactic.behaviors()
        )
        simulator = Simulator(result.caam)
        trace = simulator.run(3, inputs={"In1": [10, 20, 30]})
        # IODevice -> filter(/2) -> channel -> dec(-1) -> channel -> gain(1).
        assert trace.output("Out1") == [4.0, 9.0, 14.0]

    def test_crane_closed_loop_regulates(self):
        result = synthesize(crane.build_model(), behaviors=crane.behaviors())
        simulator = Simulator(result.caam)
        plant = crane.CranePlant()
        voltages = []
        for _ in range(200):
            trace = simulator.run(
                1,
                inputs={
                    "In1": [plant.xc],
                    "In2": [plant.alpha],
                    "In3": [3.0],
                },
            )
            voltage = trace.output("Out1")[0]
            voltages.append(voltage)
            plant.step(voltage)
        assert all(abs(v) <= crane.V_MAX for v in voltages)
        assert plant.xc > 0.5

    def test_synthetic_caam_runs(self, synthetic_result):
        simulator = Simulator(synthetic_result.caam)
        simulator.run(3)  # no IO; just must not raise


class TestMdlInterchange:
    def test_all_three_case_studies_round_trip(
        self, didactic_result, crane_result, synthetic_result
    ):
        for result in (didactic_result, crane_result, synthetic_result):
            loaded = from_mdl(result.mdl_text)
            assert loaded.summary() == result.caam.summary()

    def test_reparsed_crane_still_executable(self, crane_result):
        loaded = from_mdl(crane_result.mdl_text)
        # callbacks are not serialized; S-functions fall back to the
        # placeholder behaviour, but the model must still schedule.
        assert is_executable(loaded)[0]

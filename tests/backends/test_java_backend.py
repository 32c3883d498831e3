"""Unit tests for the multithreaded Java back-end (a static-schedule adapter)."""

import pytest

from repro.backends import JavaBackend
from repro.codegen import build_schedule
from repro.codegen.javaemit import generate_threaded_java
from repro.core import synthesize
from repro.core.flow import FlowError
from repro.uml import DeploymentPlan, ModelBuilder


def _model():
    b = ModelBuilder("app")
    b.thread("T1")
    b.thread("T2")
    b.instance("Obj")
    b.io_device("Dev")
    sd = b.interaction("main")
    sd.call("T1", "Dev", "getSample", result="x")
    sd.call("T1", "Obj", "filter", args=["x"], result="y")
    sd.call("T1", "T2", "setValue", args=["y"])
    sd.call("T2", "T1", "getValue", result="z")
    sd.call("T2", "Platform", "gain", args=["z"], result="w")
    sd.call("T2", "Dev", "setActuator", args=["w"])
    return b.build()


_SPLIT = DeploymentPlan.from_mapping({"T1": "CPU1", "T2": "CPU2"})


def _source(plan=None) -> str:
    return JavaBackend().generate(_model(), plan)["AppThreads.java"]


class TestArtifacts:
    def test_one_threaded_class(self):
        artifacts = JavaBackend().generate(_model())
        assert set(artifacts) == {"AppThreads.java"}
        # The adapter adds nothing of its own to the shared lowering.
        schedule = build_schedule(synthesize(_model()).caam)
        assert artifacts == generate_threaded_java(schedule)

    def test_thread_class_structure(self):
        source = _source(_SPLIT)
        assert "public final class AppThreads {" in source
        assert "public void init() {" in source
        assert "public void step(double[] inputs, double[] outputs) {" in source
        assert "private void cpu_CPU1_period() {\n        pe_T1_step();\n    }" in source
        assert "private void cpu_CPU2_period() {\n        pe_T2_step();\n    }" in source

    def test_io_calls_environment(self):
        source = _source()
        # <<IO>> reads latch the caller's inputs[]; writes fill outputs[].
        assert "in_In1 = inputs[0];" in source
        assert "outputs[0] = v_CPU0_T2_gain;" in source

    def test_channels_use_blocking_queues(self):
        source = _source()
        assert "synchronized double pop() {\n            while (count == 0) pause();" in source
        assert "synchronized void push(double value) {\n            while (count == slot.length) pause();" in source
        assert "rb0_pop = rb0.pop();" in source

    def test_matching_set_get_share_one_queue(self):
        source = _source(_SPLIT)
        assert source.count("private final Fifo rb") == 1
        assert "/* GFIFO T1 -> T2: app/ch_T1_T2_value */" in source
        assert "rb0.push(v_CPU1_T1_filter);" in source
        assert "rb0_pop = rb0.pop();" in source

    def test_queue_capacity_from_buffer_bounds(self):
        schedule = build_schedule(synthesize(_model()).caam)
        (ring,) = schedule.buffers
        assert f"new Fifo({ring.capacity});" in _source()

    def test_literal_arguments(self):
        b = ModelBuilder("lit")
        b.thread("T1")
        b.instance("Obj")
        sd = b.interaction("main")
        sd.call("T1", "Obj", "f", args=[2])
        source = JavaBackend().generate(b.build())["LitThreads.java"]
        assert "v_CPU0_T1_const_2 = 0x1.0000000000000p+1;" in source

    def test_main_starts_all_threads(self):
        source = _source(_SPLIT)
        assert "private static final int N_CPUS = 2;" in source
        assert 'spawn("CPU1", this::cpu_CPU1_period);' in source
        assert 'spawn("CPU2", this::cpu_CPU2_period);' in source

    def test_main_calls_the_declared_thread_constructor(self):
        source = _source()
        assert "public AppThreads() {" in source
        assert "AppThreads schedule = new AppThreads();" in source

    def test_balanced_braces_everywhere(self):
        for source in JavaBackend().generate(_model(), _SPLIT).values():
            assert source.count("{") == source.count("}")


class TestErrors:
    def test_no_interactions_rejected(self):
        b = ModelBuilder("empty")
        with pytest.raises(FlowError, match="no deployment information"):
            JavaBackend().generate(b.build())

    def test_no_threads_rejected(self):
        b = ModelBuilder("none")
        b.instance("Obj")
        b.instance("Obj2")
        sd = b.interaction("main")
        sd.call("Obj", "Obj2", "f")
        with pytest.raises(FlowError, match="no deployment information"):
            JavaBackend().generate(b.build())

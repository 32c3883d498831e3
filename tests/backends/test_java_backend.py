"""Unit tests for the multithreaded Java back-end."""

import pytest

from repro.backends import JavaBackend, JavaBackendError
from repro.uml import ModelBuilder


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


class TestArtifacts:
    def test_one_class_per_thread_plus_support(self):
        artifacts = JavaBackend().generate(_model())
        assert set(artifacts) == {
            "T1Thread.java",
            "T2Thread.java",
            "Channels.java",
            "Environment.java",
            "Main.java",
        }

    def test_thread_class_structure(self):
        source = JavaBackend().generate(_model())["T1Thread.java"]
        assert "public class T1Thread implements Runnable" in source
        assert "void step() throws InterruptedException" in source
        assert "private double x;" in source
        assert "private double y;" in source

    def test_io_calls_environment(self):
        artifacts = JavaBackend().generate(_model())
        assert "x = env.getSample();" in artifacts["T1Thread.java"]
        assert "env.setActuator(w);" in artifacts["T2Thread.java"]
        env = artifacts["Environment.java"]
        assert "double getSample();" in env
        assert "void setActuator(double value);" in env

    def test_channels_use_blocking_queues(self):
        artifacts = JavaBackend().generate(_model())
        channels = artifacts["Channels.java"]
        assert "ArrayBlockingQueue" in channels
        assert "T1_T2_value" in channels
        assert "channels.T1_T2_value.put(y);" in artifacts["T1Thread.java"]
        assert "z = channels.T1_T2_value.take();" in artifacts["T2Thread.java"]

    def test_matching_set_get_share_one_queue(self):
        channels = JavaBackend().generate(_model())["Channels.java"]
        assert channels.count("T1_T2_value") == 1

    def test_queue_capacity_configurable(self):
        channels = JavaBackend(queue_capacity=4).generate(_model())[
            "Channels.java"
        ]
        assert "ArrayBlockingQueue<>(4)" in channels

    def test_local_calls_dispatch_to_ops(self):
        artifacts = JavaBackend().generate(_model())
        assert "y = Ops.Obj_filter(x);" in artifacts["T1Thread.java"]
        assert "w = Ops.gain(z);" in artifacts["T2Thread.java"]

    def test_literal_arguments(self):
        b = ModelBuilder("lit")
        b.thread("T1")
        b.instance("Obj")
        sd = b.interaction("main")
        sd.call("T1", "Obj", "f", args=[2])
        artifacts = JavaBackend().generate(b.build())
        assert "Ops.Obj_f(2.0);" in artifacts["T1Thread.java"]

    def test_main_starts_all_threads(self):
        main = JavaBackend().generate(_model())["Main.java"]
        assert 'new Thread(new T1Thread(channels, env), "T1").start();' in main
        assert 'new Thread(new T2Thread(channels, env), "T2").start();' in main

    def test_main_calls_the_declared_thread_constructor(self):
        # Each thread class only has a (Channels, Environment) constructor;
        # a no-argument call in Main does not compile.
        artifacts = JavaBackend().generate(_model())
        for thread in ("T1", "T2"):
            assert (
                f"public {thread}Thread(Channels channels, Environment env) {{"
                in artifacts[f"{thread}Thread.java"]
            )
            assert f"new {thread}Thread(channels, env)" in artifacts["Main.java"]
        assert "Thread()" not in artifacts["Main.java"]

    def test_balanced_braces_everywhere(self):
        for source in JavaBackend().generate(_model()).values():
            assert source.count("{") == source.count("}")


class TestErrors:
    def test_no_interactions_rejected(self):
        b = ModelBuilder("empty")
        with pytest.raises(JavaBackendError, match="no interactions"):
            JavaBackend().generate(b.build())

    def test_no_threads_rejected(self):
        b = ModelBuilder("none")
        b.instance("Obj")
        b.instance("Obj2")
        sd = b.interaction("main")
        sd.call("Obj", "Obj2", "f")
        with pytest.raises(JavaBackendError, match="no thread"):
            JavaBackend().generate(b.build())

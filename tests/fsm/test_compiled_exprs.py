"""Parsed guard/action expressions in the simulator (repro.fsm.expr).

Guards and actions are parsed once per unique text into closures.  Text
outside the language fails when the simulator is built; evaluation
errors keep the messages Python gives and surface at the step.
"""

import pytest

from repro import obs
from repro.fsm import ExprError, Fsm, FsmRuntimeError, FsmSimulator


def _fsm(guard=None, action=None):
    fsm = Fsm("m")
    fsm.add_state("a", initial=True)
    fsm.add_state("b")
    fsm.add_variable("x", 0.0)
    fsm.add_transition("a", "b", event="go", guard=guard, action=action)
    return fsm


class TestErrorParity:
    def test_undefined_guard_variable_message(self):
        simulator = FsmSimulator(_fsm(guard="q > 1"))
        with pytest.raises(FsmRuntimeError) as excinfo:
            simulator.step("go")
        assert str(excinfo.value) == (
            "guard 'q > 1' failed: name 'q' is not defined"
        )

    def test_syntax_error_guard_fails_at_construction(self):
        with pytest.raises(ExprError, match="guard 'x ==' does not parse"):
            FsmSimulator(_fsm(guard="x =="))

    def test_bad_action_message(self):
        simulator = FsmSimulator(_fsm(action="x = x / 0"))
        with pytest.raises(FsmRuntimeError) as excinfo:
            simulator.step("go")
        assert str(excinfo.value) == (
            "action 'x = x / 0' failed: float division by zero"
        )

    def test_builtins_stay_restricted(self):
        with pytest.raises(ExprError, match="not in the language"):
            FsmSimulator(_fsm(guard="open('/etc/hosts')"))

    def test_leading_whitespace_guard_still_evaluates(self):
        simulator = FsmSimulator(_fsm(guard="  x < 1"))
        assert simulator.step("go") == "b"


class TestCompiledSemantics:
    def test_multi_statement_action_order(self):
        simulator = FsmSimulator(_fsm(action="x = x + 1; x = x * 10"))
        simulator.step("go")
        assert simulator.variables["x"] == 10.0

    def test_expression_statement_discarded(self):
        simulator = FsmSimulator(_fsm(action="x + 41; x = x + 1"))
        simulator.step("go")
        assert simulator.variables["x"] == 1.0

    def test_cache_shared_across_simulators(self):
        fsm = _fsm(guard="x < 5", action="x = x + 1")
        first = FsmSimulator(fsm)
        second = FsmSimulator(fsm)
        first.step("go")
        second.step("go")
        assert first.variables["x"] == second.variables["x"] == 1.0

    def test_transitions_added_after_construction_fire(self):
        # The adjacency cache is keyed by transition-list length, so a
        # post-construction add_transition must be picked up.
        fsm = _fsm()
        simulator = FsmSimulator(fsm)
        simulator.step("go")
        fsm.add_transition("b", "a", event="back")
        assert simulator.step("back") == "a"

    def test_guard_evaluations_counted(self):
        fsm = Fsm("m")
        fsm.add_state("a", initial=True)
        fsm.add_variable("x", 0.0)
        fsm.add_transition("a", "a", event="go", guard="x >= 1")
        fsm.add_transition("a", "a", event="go", guard="x < 1", action="x = x + 1")
        simulator = FsmSimulator(fsm)
        simulator.step("go")
        assert simulator.guard_evaluations == 2


class TestObservability:
    def test_compile_and_rate_metrics(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            # Unique expression text forces fresh compiles even when other
            # tests already warmed the process-wide cache.
            fsm = Fsm("m")
            fsm.add_state("a", initial=True)
            fsm.add_state("b")
            fsm.add_variable("obs_x", 0.0)
            fsm.add_transition(
                "a",
                "b",
                event="go",
                guard="obs_x <= 123456",
                action="obs_x = obs_x + 123456",
            )
            simulator = FsmSimulator(fsm)
            simulator.run(["go"])
        metrics = recorder.metrics
        assert metrics.counter("fsm.compile.exprs") >= 2
        assert metrics.counter("fsm.sim.guard_evals") >= 1
        assert metrics.counter("fsm.sim.transitions") == 1
        assert metrics.gauge_value("fsm.sim.guard_evals_per_sec") > 0

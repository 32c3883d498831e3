"""Experiment F1 — paper Fig. 1: the heterogeneous design flow.

One UML model fans out to every code-generation strategy: the
Simulink-based flow (dataflow), the FSM flow (control-flow) and
multithreaded Java ("in case a Simulink compiler is not available",
printed from the verified static schedule).  The benchmark times the
full fan-out.
"""

from repro.apps import crane
from repro.backends import DesignFlow, FsmBackend, JavaBackend, SimulinkBackend
from repro.uml import Pseudostate, State, StateMachine, Transition


def _model_with_fsm():
    model = crane.build_model()
    # Add a control-flow subsystem (mode supervisor) for the FSM leg.
    machine = StateMachine("mode_supervisor")
    region = machine.main_region()
    init = region.add_vertex(Pseudostate())
    manual = region.add_vertex(State("manual"))
    auto = region.add_vertex(State("auto"))
    fault = region.add_vertex(State("fault"))
    region.add_transition(Transition(init, manual))
    region.add_transition(Transition(manual, auto, trigger="engage"))
    region.add_transition(Transition(auto, manual, trigger="disengage"))
    region.add_transition(Transition(auto, fault, trigger="alarm"))
    region.add_transition(Transition(fault, manual, trigger="reset"))
    model.add_state_machine(machine)
    return model


def _fan_out():
    model = _model_with_fsm()
    flow = DesignFlow(
        [
            SimulinkBackend(behaviors=crane.behaviors()),
            FsmBackend("c"),
            JavaBackend(),
        ]
    )
    return flow.generate_all(model)


def test_fig1_heterogeneous_flow(benchmark, paper_report):
    artifacts = benchmark(_fan_out)

    assert set(artifacts) == {"simulink", "fsm", "java"}
    assert "crane.mdl" in artifacts["simulink"]
    assert "mode_supervisor.c" in artifacts["fsm"]
    assert set(artifacts["java"]) == {"CraneThreads.java"}
    total_files = sum(len(files) for files in artifacts.values())
    total_bytes = sum(
        len(content) for files in artifacts.values() for content in files.values()
    )
    assert total_files >= 5

    paper_report(
        "F1 / Fig. 1: one UML model, heterogeneous strategies",
        [
            ("Simulink-based flow", ".mdl via CAAM", f"{len(artifacts['simulink'])} artifacts"),
            ("UML/FSM tool flow", "FSM code", f"{len(artifacts['fsm'])} C file(s)"),
            ("no-Simulink fallback", "multithreaded Java", f"{len(artifacts['java'])} Java file(s)"),
            ("total artifacts", "n/a", f"{total_files} files, {total_bytes} bytes"),
            ("models drawn by designer", "1 UML model", "1 UML model"),
        ],
    )

"""One fixture model per diagnostic code.

Every RA code in the registry (except the RA100 fallback) has a minimal
model that triggers it exactly once — the living documentation of what
each code means, and a regression net for the pass implementations.
"""

import pytest

from repro.analysis import CODES, analyze, analyze_synthesized, fsm_diagnostics
from repro.fsm.model import Fsm
from repro.simulink.caam import CaamModel
from repro.simulink.model import Block
from repro.uml import ModelBuilder
from repro.uml.sequence import Lifeline, Message
from repro.uml.statemachine import State, StateMachine
from repro.zoo import FsmSpec, build_state_machine


def _codes(model=None, caam=None, **kw):
    report = analyze(model, caam, subject="m", **kw)
    return [d.code for d in report.diagnostics]


def _base():
    b = ModelBuilder("m")
    b.passive_class("C").op("f", inputs=["x:int"], returns="int")
    b.thread("T1")
    b.thread("T2")
    b.instance("Obj", "C")
    return b


def _machine_model(spec):
    b = ModelBuilder("m")
    b.thread("T1")
    b.interaction("main").call("T1", "T1", "tick", result="x")
    model = b.build()
    model.add_state_machine(build_state_machine(spec))
    return model


def _caam_thread():
    caam = CaamModel("m")
    caam.add_cpu("CPU1")
    return caam, caam.add_thread("CPU1", "T")


# -- RA1xx: structure -------------------------------------------------------


def ra101_unknown_operation():
    b = _base()
    b.interaction("main").call("T1", "Obj", "missing_op")
    return _codes(b.build())


def ra102_bad_arity():
    b = _base()
    # literal args: variable names would add an RA203 on top
    b.interaction("main").call("T1", "Obj", "f", args=[1, 2])
    return _codes(b.build())


def ra103_lifeline_without_instance():
    b = _base()
    b.interaction("main").call("T1", "T1", "tick", result="x")
    model = b.build()
    interaction = model.interactions[0]
    ghost = interaction.add_lifeline(Lifeline("Ghost"))
    interaction.add_message(Message(interaction.lifeline("T1"), ghost, "f"))
    return _codes(model)


def ra104_bad_stereotype():
    b = _base()
    b.model.instance("T1").apply_stereotype("NotAProfile")
    b.interaction("main").call("T1", "T2", "setX", args=[1])
    return _codes(b.build())


def ra105_missing_behavior():
    b = _base()
    b.passive_class("D").op("g").body("ghost_beh", "uml")
    b.instance("Od", "D")
    b.interaction("main").call("T1", "Od", "g")
    return _codes(b.build())


def ra106_undeployed_thread():
    b = _base()
    b.processor("CPU1", threads=["T1"])  # T2 left undeployed
    b.interaction("main").call("T1", "T2", "setX", args=[1])
    return _codes(b.build(), options={"require_deployment": True})


def ra107_setget_on_passive():
    b = _base()
    b.instance("Plain")
    b.interaction("main").call("T1", "Plain", "setThing", args=[1])
    return _codes(b.build())


def ra108_synthesis_failure():
    b = ModelBuilder("m")
    b.thread("T1")  # no interaction: nothing to cluster or deploy
    report = analyze_synthesized(b.build(), subject="m")
    return [d.code for d in report.diagnostics]


# -- RA2xx: channels --------------------------------------------------------


def ra201_dangling_get():
    b = _base()
    sd = b.interaction("main")
    sd.call("T1", "T2", "getD", result="x")
    sd.call("T1", "T1", "use", args=["x"], result="y")
    return _codes(b.build())


def _cycle_model():
    b = ModelBuilder("m")
    b.thread("A")
    b.thread("B")
    sd = b.interaction("main")
    sd.call("A", "A", "mk", result="p")
    sd.call("A", "B", "setC1", args=["p"])
    sd.call("B", "A", "getC1", result="x")
    sd.call("B", "B", "mk2", args=["x"], result="q")
    sd.call("B", "A", "setC2", args=["q"])
    sd.call("A", "B", "getC2", result="z")
    sd.call("A", "A", "use", args=["z"], result="w")
    return b.build()


def ra202_channel_cycle():
    return _codes(_cycle_model())


def ra203_read_before_produce():
    b = _base()
    b.interaction("main").call("T1", "T2", "setX", args=["ghost"])
    return _codes(b.build())


def ra204_concurrent_write():
    b = ModelBuilder("m")
    for thread in ("A", "B", "C", "D"):
        b.thread(thread)
    sd = b.interaction("main")
    sd.call("A", "A", "mkA", result="x")
    sd.call("A", "B", "setData", args=["x"])
    sd.call("C", "C", "mkC", result="y")
    sd.call("C", "D", "setData", args=["y"])
    return _codes(b.build())


# -- RA3xx: state machines --------------------------------------------------


def ra301_unreachable_state():
    spec = FsmSpec(
        name="ctl",
        states=("s0", "s1", "orphan"),
        initial="s0",
        events=("go",),
        transitions=(("s0", "s1", "go", "", ""), ("s1", "s0", "go", "", "")),
    )
    return _codes(_machine_model(spec))


def ra302_shadowed_transition():
    spec = FsmSpec(
        name="ctl",
        states=("s0", "s1"),
        initial="s0",
        events=("go",),
        transitions=(
            ("s0", "s1", "go", "", ""),  # unconditional: always wins
            ("s0", "s1", "go", "n > 1", ""),
        ),
    )
    return _codes(_machine_model(spec))


def ra303_overlapping_guards():
    spec = FsmSpec(
        name="ctl",
        states=("s0", "s1"),
        initial="s0",
        events=("go",),
        transitions=(
            ("s0", "s1", "go", "n < 1", ""),
            ("s0", "s0", "go", "n > 2", ""),  # shares the variable n
        ),
    )
    return _codes(_machine_model(spec))


def ra304_unused_variable():
    # UML machines carry no variable declarations; exercise the check on
    # a hand-built flat machine through the public fsm_diagnostics API.
    fsm = Fsm("ctl")
    fsm.add_state("s0")
    fsm.add_transition("s0", "s0", event="go")
    fsm.add_variable("unused", 0.0)
    return [d.code for d in fsm_diagnostics(fsm)]


def ra305_no_initial_state():
    machine = StateMachine("broken")
    machine.main_region().add_vertex(State("s0"))  # no initial pseudostate
    b = ModelBuilder("m")
    b.thread("T1")
    b.interaction("main").call("T1", "T1", "tick", result="x")
    model = b.build()
    model.add_state_machine(machine)
    return _codes(model)


def ra306_unparsable_guard():
    spec = FsmSpec(
        name="ctl",
        states=("s0", "s1"),
        initial="s0",
        events=("go",),
        transitions=(
            ("s0", "s1", "go", "().__class__ != ()", ""),
            ("s1", "s0", "go", "", ""),
        ),
    )
    return _codes(_machine_model(spec))


# -- RA4xx: dataflow / SDF --------------------------------------------------


def ra401_rate_inconsistency():
    b = ModelBuilder("m")
    b.thread("A")
    b.thread("B")
    sd = b.interaction("main")
    sd.call("A", "A", "mkP", result="p")
    loop = sd.loop(iterations=2)
    loop.call("A", "B", "setC1", args=["p"])
    sd.call("A", "B", "setC2", args=["p"])
    sd.call("B", "A", "getC1", result="x1")
    sd.call("B", "A", "getC2", result="x2")
    sd.call("B", "B", "useB", args=["x1", "x2"], result="z")
    return _codes(b.build())


def ra402_deadlock():
    return _codes(_cycle_model())


def ra403_unconnected_input():
    caam, thread = _caam_thread()
    thread.system.add(Block("g", "Gain"))  # input port never driven
    return _codes(caam=caam)


def ra404_dead_block():
    caam, thread = _caam_thread()
    src = thread.system.add(Block("s1", "Sine", inputs=0))
    gain = thread.system.add(Block("g1", "Gain"))
    scope = thread.system.add(Block("sc", "Scope", outputs=0))
    thread.system.connect(src.output(1), gain.input(1))
    thread.system.connect(gain.output(1), scope.input(1))
    thread.system.add(Block("s2", "Sine", inputs=0))  # reaches no sink
    return _codes(caam=caam)


def ra405_constant_subgraph():
    caam, thread = _caam_thread()
    const = thread.system.add(Block("k", "Constant", inputs=0))
    gain = thread.system.add(Block("g1", "Gain"))
    scope = thread.system.add(Block("sc", "Scope", outputs=0))
    thread.system.connect(const.output(1), gain.input(1))
    thread.system.connect(gain.output(1), scope.input(1))
    return _codes(caam=caam)


def ra406_repetition_too_large():
    b = ModelBuilder("m")
    for thread in ("A", "B", "C"):
        b.thread(thread)
    sd = b.interaction("main")
    sd.call("A", "A", "mk", result="p")
    sd.loop(iterations=1000).call("A", "B", "setC1", args=["p"])
    sd.call("B", "A", "getC1", result="x")
    sd.call("B", "B", "m2", args=["x"], result="q")
    sd.loop(iterations=1000).call("B", "C", "setC2", args=["q"])
    sd.call("C", "B", "getC2", result="z")
    sd.call("C", "C", "use", args=["z"], result="w")
    return _codes(b.build())


FIXTURES = {
    "RA101": ra101_unknown_operation,
    "RA102": ra102_bad_arity,
    "RA103": ra103_lifeline_without_instance,
    "RA104": ra104_bad_stereotype,
    "RA105": ra105_missing_behavior,
    "RA106": ra106_undeployed_thread,
    "RA107": ra107_setget_on_passive,
    "RA108": ra108_synthesis_failure,
    "RA201": ra201_dangling_get,
    "RA202": ra202_channel_cycle,
    "RA203": ra203_read_before_produce,
    "RA204": ra204_concurrent_write,
    "RA301": ra301_unreachable_state,
    "RA302": ra302_shadowed_transition,
    "RA303": ra303_overlapping_guards,
    "RA304": ra304_unused_variable,
    "RA305": ra305_no_initial_state,
    "RA306": ra306_unparsable_guard,
    "RA401": ra401_rate_inconsistency,
    "RA402": ra402_deadlock,
    "RA403": ra403_unconnected_input,
    "RA404": ra404_dead_block,
    "RA405": ra405_constant_subgraph,
    "RA406": ra406_repetition_too_large,
}

#: Codes a fixture legitimately co-triggers (a channel cycle without
#: initial tokens is both RA202 and an SDF deadlock RA402).
ALLOWED_EXTRAS = {
    "RA202": {"RA402"},
    "RA402": {"RA202"},
}


def test_every_registered_code_has_a_fixture():
    assert set(FIXTURES) == set(CODES) - {"RA100"}


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_fixture_triggers_its_code_exactly_once(code):
    observed = FIXTURES[code]()
    assert observed.count(code) == 1, observed
    extras = set(observed) - {code} - ALLOWED_EXTRAS.get(code, set())
    assert not extras, f"unexpected co-triggered codes: {sorted(extras)}"


def _ring(guards, variables=()):
    """One state, one event, a self-loop per guard; declared variables."""
    fsm = Fsm("ctl")
    fsm.add_state("s0")
    for guard in guards:
        fsm.add_transition("s0", "s0", event="go", guard=guard)
    for name in variables:
        fsm.add_variable(name, 0.0)
    return [d.code for d in fsm_diagnostics(fsm)]


def test_shared_function_name_is_not_an_overlap():
    # abs is a function, not a variable: the guards share no variable.
    assert _ring(["abs(x) > 1", "abs(y) < 1e3"], ["x", "y"]) == []


def test_exponent_of_a_literal_is_not_a_variable_use():
    # 1e3 is a number; the declared variable e3 is never read.
    assert _ring(["x < 1e3"], ["x", "e3"]) == ["RA304"]

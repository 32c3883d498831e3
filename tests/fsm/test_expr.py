"""The FSM guard/action language (repro.fsm.expr)."""

import json

import pytest

from repro.fsm import ExprError, Fsm, generate_c, generate_java
from repro.fsm.expr import MAX_LENGTH, parse_actions, parse_guard
from repro.server import JobSpec
from repro.server.executor import execute
from repro.uml.xmi import to_xmi_string
from repro.zoo import generate_scenario

#: Untrusted text that must fail with ExprError, never anything else.
HOSTILE = [
    "1+" * 499 + "1",  # 999 characters, 500 levels deep
    "-" * 999 + "1",
    "x\x00",
    "().__class__",
    '__import__("os")',
    "n < 1 < 2",
    "n // 2",
    "True",
    "1e309",
    "(().__class__.__mro__[1].__subclasses__()) != ()",
    "9" * 999 + " < n",
    "n" * (MAX_LENGTH + 1),
]


@pytest.mark.parametrize("text", HOSTILE, ids=range(len(HOSTILE)))
def test_hostile_text_raises_expr_error(text):
    with pytest.raises(ExprError):
        parse_guard(text)
    with pytest.raises(ExprError):
        parse_actions(f"x = {text}")


def test_hostile_guards_analyze_to_ra306_over_the_server_path():
    scenario = generate_scenario(42, 4, "fsm")
    machine = scenario.model.state_machines[0]
    transitions = [t for t in machine.all_transitions() if t.trigger]
    for transition, text in zip(transitions, HOSTILE * 2):
        transition.guard = text.replace("\x00", "")  # XML forbids NUL
    outcome = execute(
        JobSpec(kind="analyze", model_xmi=to_xmi_string(scenario.model))
    )
    assert "RA306" in outcome.payload["codes"]
    results = json.loads(outcome.artifact_text)["runs"][0]["results"]
    assert sum(r["ruleId"] == "RA306" for r in results) == len(transitions)


@pytest.mark.parametrize(
    "guard,c,java",
    [
        ("not n < 1", "!(fsm->n < 1)", "!(n < 1)"),
        ("-(-n) > 0", "-(-fsm->n) > 0", "-(-n) > 0"),
        ("n - -1 > 0", "fsm->n - -1 > 0", "n - -1 > 0"),
        ("a - (b - c) < (a - b) - c", "fsm->a - (fsm->b - fsm->c) < "
         "fsm->a - fsm->b - fsm->c", "a - (b - c) < a - b - c"),
        ("(a < 1 or b < 1) and c < 1", "(fsm->a < 1 || fsm->b < 1) && "
         "fsm->c < 1", "(a < 1 || b < 1) && c < 1"),
        ("abs(x) > min(y, 2) * max(z, 3)", "fabs(fsm->x) > fmin(fsm->y, 2) "
         "* fmax(fsm->z, 3)", "Math.abs(x) > Math.min(y, 2) * Math.max(z, 3)"),
        ("x > 1 / 2", "fsm->x > (double)1 / 2", "x > (double)1 / 2"),
        ("x < 3000000000", "fsm->x < 3000000000.0", "x < 3000000000.0"),
    ],
)
def test_printing_follows_target_precedence(guard, c, java):
    expr = parse_guard(guard)
    assert expr.render("fsm->") == c
    assert expr.render("", java=True) == java


def test_truth_values_and_numbers_do_not_mix():
    for bad in ("n", "n and m < 1", "-(n < 1) < 0", "abs(n < 1) > 0"):
        with pytest.raises(ExprError):
            parse_guard(bad)
    with pytest.raises(ExprError, match="is not a number"):
        parse_actions("x = n < 1")


def test_evaluation_keeps_python_semantics():
    env = {"n": 3.0, "m": -2}
    assert parse_guard("n > 1 and not m > 0").evaluate(env) is True
    assert parse_guard("max(n, m) == 3 or 1 / 0 < 1").evaluate(env) is True
    parse_actions("x = n / 2; y = x - -1; n == 1").evaluate(env)
    assert (env["x"], env["y"]) == (1.5, 2.5)
    with pytest.raises(NameError, match="name 'q' is not defined"):
        parse_guard("q > 1").evaluate(env)


def test_names_are_variables_only():
    expr = parse_guard("abs(x) > 1e3 and min(e, y) < 2")
    assert expr.names == {"x", "e", "y"}
    assert expr.calls == {"abs", "min"}
    assert parse_actions("a = b + 1; c").names == {"a", "b", "c"}


def test_parse_is_cached_per_text():
    assert parse_guard("n < 7") is parse_guard("n < 7")


def test_bare_statements_are_not_printed():
    assert parse_actions("x + 1; y = 2; x == 2").render("fsm->") == (
        "fsm->y = 2"
    )


def test_math_header_only_for_machines_that_call_functions():
    fsm = Fsm("m")
    fsm.add_state("a")
    fsm.add_variable("x", 0.0)
    fsm.add_transition("a", "a", event="go", guard="x < 1")
    assert "#include <math.h>" not in generate_c(fsm)
    fsm.add_transition("a", "a", event="go", action="x = abs(x - 2)")
    assert "#include <math.h>" in generate_c(fsm)
    assert "this.x = Math.abs(this.x - 2);" in generate_java(fsm)

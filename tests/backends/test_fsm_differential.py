"""Run the generated FSM C against :class:`FsmSimulator`, event by event.

Covers the 42 state machines of the seed-42, 100-scenario zoo corpus and
one hand-built machine whose guards and actions use every construct of
the expression language.  Each machine gets a generated driver that
dispatches its event trace, then ``EVENT_NONE`` until the state stops
changing (the simulator's run to completion), and prints the state and
every variable as ``%.17g`` after each event.  All machines link into one
C99 binary whose output must equal the simulator's, row for row.
"""

from __future__ import annotations

import shutil
import subprocess
from typing import List, Sequence, Tuple

import pytest

from repro.codegen.differential import cc_available
from repro.codegen.identifiers import sanitize
from repro.fsm import (
    MAX_COMPLETION_CHAIN,
    Fsm,
    FsmSimulator,
    generate_artifacts,
)
from repro.zoo import build_fsm, generate_corpus

pytestmark = pytest.mark.codegen


def _expression_machine() -> Fsm:
    """Every whitelisted node: all comparisons, and/or/not, unary and
    binary arithmetic, int and float literals, abs/min/max."""
    fsm = Fsm("expression mixer")
    for state in ("idle", "run", "hold"):
        fsm.add_state(state)
    fsm.add_variable("n", 0.0)
    fsm.add_variable("x", 1.5)
    fsm.add_variable("y", -2)
    fsm.add_transition(
        "idle", "run", event="go", guard="not n < 1 or n == 0",
        action="n = n - -1; x = x * 2 - abs(y) / 4",
    )
    fsm.add_transition(
        "run", "run", event="go", guard="n <= 3 and -(-n) != 2",
        action="n = n + 1; y = min(y, -n) + max(x, +1)",
    )
    fsm.add_transition("run", "hold", event="go", guard="n > 3",
                       action="x = x / 3")
    fsm.add_transition("run", "idle", event="stop", action="y = 7 / 2")
    fsm.add_transition("hold", "idle", guard="x >= 0.5", action="x = x - 0.25")
    fsm.add_transition("hold", "idle", event="go", action="n = 0")
    return fsm


EXPRESSION_TRACE = ("go", "go", "stop", "go", "go", "go", "go", "go") * 4


def _cases() -> List[Tuple[Fsm, Sequence[str]]]:
    cases = [
        (build_fsm(spec), spec.trace)
        for scenario in generate_corpus(42, 100)
        for spec in scenario.params.fsms
    ]
    return cases + [(_expression_machine(), EXPRESSION_TRACE)]


def _row(fsm: Fsm, state: str, variables) -> str:
    values = "".join(" %.17g" % variables[name] for name in fsm.variables)
    return f"{sanitize(fsm.name)} {list(fsm.states).index(state)}{values}"


def _expected(fsm: Fsm, trace: Sequence[str]) -> List[str]:
    simulator = FsmSimulator(fsm)
    return [
        _row(fsm, simulator.step(event), simulator.variables)
        for event in trace
    ]


def _driver(fsm: Fsm, trace: Sequence[str]) -> str:
    name = sanitize(fsm.name)
    events = ", ".join(
        f"EVENT_{event.upper()}" if event in fsm.events else "EVENT_NONE"
        for event in trace
    )
    formats = "".join(" %.17g" for _ in fsm.variables)
    values = "".join(f", fsm.{var}" for var in fsm.variables)
    return "\n".join([
        "#include <stdio.h>",
        f'#include "{name}.h"',
        f"void run_{name}(void) {{",
        f"    static const {name}_event_t trace[] = {{{events}}};",
        f"    {name}_t fsm;",
        "    unsigned i;",
        "    int chain;",
        f"    {name}_init(&fsm);",
        "    for (i = 0; i < sizeof trace / sizeof trace[0]; i++) {",
        f"        {name}_dispatch(&fsm, trace[i]);",
        f"        for (chain = 0; chain < {MAX_COMPLETION_CHAIN}; chain++) {{",
        f"            {name}_state_t before = fsm.state;",
        f"            {name}_dispatch(&fsm, EVENT_NONE);",
        "            if (fsm.state == before) break;",
        "        }",
        f'        printf("{name} %d{formats}\\n", (int)fsm.state{values});',
        "    }",
        "}",
        "",
    ])


@pytest.mark.skipif(not cc_available(), reason="no C compiler on PATH")
def test_compiled_c_matches_the_simulator(tmp_path):
    cases = _cases()
    assert len(cases) == 43
    units, calls, expected = [], [], []
    for fsm, trace in cases:
        name = sanitize(fsm.name)
        for filename, source in generate_artifacts(fsm, "c").items():
            (tmp_path / filename).write_text(source)
        (tmp_path / f"drive_{name}.c").write_text(_driver(fsm, trace))
        units += [f"{name}.c", f"drive_{name}.c"]
        calls.append(name)
        expected += _expected(fsm, trace)
    (tmp_path / "main.c").write_text("\n".join(
        [f"void run_{name}(void);" for name in calls]
        + ["int main(void) {"]
        + [f"    run_{name}();" for name in calls]
        + ["    return 0;", "}", ""]
    ))
    command = [cc_available(), "-std=c99", "-Wall", "-Werror", "-o", "fsms",
               "main.c", *units, "-lm"]
    build = subprocess.run(command, cwd=tmp_path, capture_output=True,
                           text=True)
    assert build.returncode == 0, build.stdout + build.stderr
    run = subprocess.run([str(tmp_path / "fsms")], capture_output=True,
                         text=True, check=True)
    got = run.stdout.splitlines()
    assert len(got) == len(expected)
    mismatches = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not mismatches, mismatches[:5]


@pytest.mark.skipif(shutil.which("javac") is None, reason="no javac on PATH")
def test_expression_machine_java_compiles(tmp_path):
    for filename, source in generate_artifacts(
        _expression_machine(), "java"
    ).items():
        (tmp_path / filename).write_text(source)
        proc = subprocess.run(["javac", "-d", "classes", filename],
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

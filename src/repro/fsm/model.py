"""Flat finite-state-machine metamodel.

The control-flow branch of the paper's design flow (Fig. 1) generates code
from "state diagrams or FSM-like models" using conventional UML tools.  Our
substitution is a flat, executable FSM metamodel: states, event/guard/action
transitions, and variables.  UML state machines are lowered onto it by
:mod:`repro.fsm.from_uml` (flattening hierarchy), C/Java sources come from
:mod:`repro.fsm.codegen`, and :mod:`repro.fsm.simulator` executes it.

Guards and actions are small expression/statement strings over the machine
variables, e.g. guard ``"count < 3"`` and action ``"count = count + 1"``.
Their grammar is stated once, in :mod:`repro.fsm.expr`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class FsmError(Exception):
    """Raised on malformed FSMs."""


@dataclass
class FsmTransition:
    """A transition: on ``event`` when ``guard`` holds, run ``action`` and
    go to ``target``.  Empty event means a completion (always-enabled)
    transition evaluated on every step."""

    source: str
    target: str
    event: str = ""
    guard: str = ""
    action: str = ""

    def label(self) -> str:
        """Human-readable ``event [guard] / action`` label."""
        text = self.event or "ε"
        if self.guard:
            text += f" [{self.guard}]"
        if self.action:
            text += f" / {self.action}"
        return text


@dataclass
class FsmState:
    """A state with optional entry/exit actions."""

    name: str
    entry: str = ""
    exit: str = ""
    is_final: bool = False


class Fsm:
    """A flat Mealy-style finite state machine."""

    def __init__(self, name: str, initial: Optional[str] = None) -> None:
        self.name = name
        self.states: Dict[str, FsmState] = {}
        self.transitions: List[FsmTransition] = []
        self.initial = initial
        #: Variable name -> initial value.
        self.variables: Dict[str, float] = {}
        #: Declared event alphabet (extended lazily by add_transition).
        self.events: List[str] = []

    # -- construction --------------------------------------------------------
    def add_state(
        self,
        name: str,
        *,
        entry: str = "",
        exit: str = "",
        initial: bool = False,
        final: bool = False,
    ) -> FsmState:
        """Add a state; the first added state becomes the initial one."""
        if name in self.states:
            raise FsmError(f"FSM {self.name!r} already has state {name!r}")
        state = FsmState(name, entry=entry, exit=exit, is_final=final)
        self.states[name] = state
        if initial or self.initial is None:
            if initial:
                self.initial = name
            elif self.initial is None and len(self.states) == 1:
                self.initial = name
        return state

    def add_transition(
        self,
        source: str,
        target: str,
        event: str = "",
        guard: str = "",
        action: str = "",
    ) -> FsmTransition:
        """Add a transition between existing states."""
        for name in (source, target):
            if name not in self.states:
                raise FsmError(f"FSM {self.name!r} has no state {name!r}")
        if self.states[source].is_final:
            raise FsmError(f"final state {source!r} cannot have outgoing transitions")
        transition = FsmTransition(source, target, event, guard, action)
        self.transitions.append(transition)
        if event and event not in self.events:
            self.events.append(event)
        return transition

    def add_variable(self, name: str, initial: float = 0.0) -> None:
        """Declare a machine variable with its initial value."""
        self.variables[name] = initial

    # -- queries ---------------------------------------------------------------
    def state(self, name: str) -> FsmState:
        """Look up a state by name."""
        try:
            return self.states[name]
        except KeyError:
            raise FsmError(f"FSM {self.name!r} has no state {name!r}") from None

    def transitions_from(self, state: str) -> List[FsmTransition]:
        """Outgoing transitions of a state, in declaration order."""
        return [t for t in self.transitions if t.source == state]

    def reachable_states(self) -> List[str]:
        """States reachable from the initial state (BFS order)."""
        if self.initial is None:
            return []
        seen = [self.initial]
        frontier = [self.initial]
        while frontier:
            current = frontier.pop(0)
            for transition in self.transitions_from(current):
                if transition.target not in seen:
                    seen.append(transition.target)
                    frontier.append(transition.target)
        return seen

    def unreachable_states(self) -> List[str]:
        """States not reachable from the initial state."""
        reachable = set(self.reachable_states())
        return [name for name in self.states if name not in reachable]

    def validate(self) -> List[str]:
        """Well-formedness report: initial state, dangling refs, determinism.

        Nondeterminism (two same-event transitions from one state with
        overlapping guards) is reported as a warning-style message since
        guard overlap is undecidable in general; we flag only syntactically
        identical guards.
        """
        problems: List[str] = []
        if self.initial is None:
            problems.append(f"FSM {self.name!r} has no initial state")
        elif self.initial not in self.states:
            problems.append(
                f"initial state {self.initial!r} is not a state of the FSM"
            )
        seen_keys = set()
        for transition in self.transitions:
            key = (transition.source, transition.event, transition.guard)
            if key in seen_keys:
                problems.append(
                    f"nondeterministic transitions from {transition.source!r} "
                    f"on event {transition.event or 'ε'!r} with guard "
                    f"{transition.guard or 'true'!r}"
                )
            seen_keys.add(key)
        for name in self.unreachable_states():
            problems.append(f"state {name!r} is unreachable")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Fsm {self.name!r}: {len(self.states)} states, "
            f"{len(self.transitions)} transitions>"
        )

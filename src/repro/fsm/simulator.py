"""FSM execution engine.

Executes a flat :class:`~repro.fsm.model.Fsm` against an event sequence.
Guards and actions run as closures built once per text by
:mod:`repro.fsm.expr`, never through ``eval``.  Bad text raises ``ExprError``
at construction; evaluation errors raise :class:`FsmRuntimeError` at the step.

Run-to-completion semantics: after consuming an event (or on a ``step``
with no event), enabled completion (ε) transitions keep firing until none
is enabled or a fixpoint bound is hit (guarding against ε-cycles).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import recorder as _obs
from .expr import parse_actions, parse_guard, texts
from .model import Fsm, FsmError, FsmTransition

#: Bound on chained ε-transitions per step (run-to-completion safety net).
MAX_COMPLETION_CHAIN = 64


class FsmRuntimeError(FsmError):
    """Raised on execution failures (bad guard/action, ε-livelock...)."""


@dataclass
class TraceEntry:
    """One fired transition in an execution trace."""

    step: int
    event: str
    transition: FsmTransition
    variables: Dict[str, float] = field(default_factory=dict)


class FsmSimulator:
    """Stateful executor for one FSM instance."""

    #: Class-level defaults so partially-constructed instances (tests build
    #: some via ``__new__``) still execute the stepping machinery.
    max_completion_chain = 0
    _guard_evals = 0
    _adjacency: Optional[Tuple[int, Dict[str, List[FsmTransition]]]] = None

    def __init__(self, fsm: Fsm) -> None:
        problems = fsm.validate()
        errors = [p for p in problems if "unreachable" not in p]
        if errors:
            raise FsmRuntimeError(
                "cannot execute invalid FSM:\n"
                + "\n".join(f"  - {p}" for p in errors)
            )
        self.fsm = fsm
        self.current: str = fsm.initial  # type: ignore[assignment]
        self.variables: Dict[str, float] = dict(fsm.variables)
        self.trace: List[TraceEntry] = []
        self._step_count = 0
        #: Longest ε-transition chain observed (run-to-completion depth).
        self.max_completion_chain = 0
        self._guard_evals = 0
        for _, parse, text in texts(fsm):  # bad text fails here, not mid-run
            if text:
                parse(text)
        self._run_actions(self.fsm.state(self.current).entry)

    # -- expression handling ----------------------------------------------
    def _eval_guard(self, guard: str) -> bool:
        if not guard:
            return True
        self._guard_evals += 1
        evaluate = parse_guard(guard).evaluate
        try:
            return evaluate(self.variables)
        except Exception as exc:
            raise FsmRuntimeError(f"guard {guard!r} failed: {exc}") from exc

    def _run_actions(self, actions: str) -> None:
        if not actions:
            return
        evaluate = parse_actions(actions).evaluate
        try:
            evaluate(self.variables)
        except Exception as exc:
            raise FsmRuntimeError(f"action {actions!r} failed: {exc}") from exc

    # -- stepping ------------------------------------------------------------
    def _transitions_from(self, state: str) -> Sequence[FsmTransition]:
        """Per-state transition lists, rebuilt when the FSM grows.

        :meth:`Fsm.transitions_from` scans every transition per call; the
        cache groups them once.  The transition list is append-only, so a
        length check suffices to detect machines mutated after this
        simulator was built.
        """
        cached = self._adjacency
        count = len(self.fsm.transitions)
        if cached is None or cached[0] != count:
            table: Dict[str, List[FsmTransition]] = {}
            for transition in self.fsm.transitions:
                table.setdefault(transition.source, []).append(transition)
            cached = (count, table)
            self._adjacency = cached
        return cached[1].get(state, ())

    def _enabled(self, event: str) -> Optional[FsmTransition]:
        for transition in self._transitions_from(self.current):
            if transition.event != event:
                continue
            if self._eval_guard(transition.guard):
                return transition
        return None

    def _fire(self, transition: FsmTransition, event: str) -> None:
        self._run_actions(self.fsm.state(self.current).exit)
        self._run_actions(transition.action)
        self.current = transition.target
        self._run_actions(self.fsm.state(self.current).entry)
        self.trace.append(
            TraceEntry(
                self._step_count, event, transition, dict(self.variables)
            )
        )

    def _run_to_completion(self) -> None:
        for chained in range(MAX_COMPLETION_CHAIN):
            transition = self._enabled("")
            if transition is None:
                if chained > self.max_completion_chain:
                    self.max_completion_chain = chained
                return
            self._fire(transition, "")
        raise FsmRuntimeError(
            f"ε-transition livelock detected in state {self.current!r}"
        )

    def step(self, event: str = "") -> str:
        """Consume one event (or ε) and return the resulting state name.

        Events not enabled in the current state are discarded (UML's
        implicit-consumption semantics).
        """
        self._step_count += 1
        if event:
            transition = self._enabled(event)
            if transition is not None:
                self._fire(transition, event)
        self._run_to_completion()
        return self.current

    def run(self, events: Sequence[str]) -> List[str]:
        """Feed an event sequence; returns the state after each event.

        With an active observability recorder the run is wrapped in an
        ``fsm.run`` span and reports events/sec, transitions fired and
        their rate, guard evaluations and their rate, and the deepest
        ε-chain to the metrics registry; with the null recorder (the
        default) the loop is untouched.
        """
        rec = _obs.get()
        if not rec.enabled:
            return [self.step(event) for event in events]
        fired_before = len(self.trace)
        guards_before = self._guard_evals
        start = time.perf_counter()
        with rec.span(
            "fsm.run", category="sim", fsm=self.fsm.name, events=len(events)
        ) as span:
            states = [self.step(event) for event in events]
        elapsed = time.perf_counter() - start
        rate = len(events) / elapsed if elapsed > 0 else 0.0
        fired = len(self.trace) - fired_before
        guards = self._guard_evals - guards_before
        rec.incr("fsm.sim.runs")
        rec.incr("fsm.sim.events", len(events))
        rec.incr("fsm.sim.transitions", fired)
        rec.incr("fsm.sim.guard_evals", guards)
        rec.gauge("fsm.sim.steps_per_sec", rate)
        rec.gauge(
            "fsm.sim.transitions_per_sec",
            fired / elapsed if elapsed > 0 else 0.0,
        )
        rec.gauge(
            "fsm.sim.guard_evals_per_sec",
            guards / elapsed if elapsed > 0 else 0.0,
        )
        rec.gauge("fsm.sim.max_completion_chain", self.max_completion_chain)
        span.set(transitions=fired, steps_per_sec=round(rate, 1))
        return states

    @property
    def in_final_state(self) -> bool:
        return self.fsm.state(self.current).is_final

    @property
    def guard_evaluations(self) -> int:
        """Total guard evaluations performed by this simulator."""
        return self._guard_evals


def simulate(
    fsm: Fsm, events: Sequence[str]
) -> Tuple[List[str], Dict[str, float]]:
    """One-shot convenience: run ``events``; return (state list, variables)."""
    simulator = FsmSimulator(fsm)
    states = simulator.run(events)
    return states, simulator.variables

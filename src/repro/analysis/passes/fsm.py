"""RA3xx — state-machine analysis.

Works on the executable flat FSMs (:class:`repro.fsm.model.Fsm`): UML
state machines found on the analyzed model are lowered through
:func:`repro.fsm.from_uml.fsm_from_state_machine` first, and zoo/user
code can call :func:`fsm_diagnostics` on hand-built machines directly.

Checks: missing initial state (RA305), unreachable states (RA301), dead
transitions — sourced in an unreachable state or shadowed by an earlier
transition that always fires first (RA302), syntactically overlapping
guards on the same source state and event (RA303), declared variables no
parsed guard or action mentions (RA304), and text that does not parse as
:mod:`repro.fsm.expr`'s language (RA306).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ...fsm.expr import ExprError, parse_guard, texts
from ..diagnostics import Diagnostic, make_diagnostic


def _normalize(guard) -> str:
    """Whitespace-insensitive canonical form of a guard expression.

    The UML lowering leaves absent guards/actions as ``None``; treat
    those as the empty (always-true) guard.
    """
    return " ".join((guard or "").split())


def fsm_diagnostics(fsm) -> List[Diagnostic]:
    """All RA3xx findings for one flat machine."""
    where = f"fsm {fsm.name!r}"
    diagnostics: List[Diagnostic] = []

    if fsm.initial is None or fsm.initial not in fsm.states:
        diagnostics.append(
            make_diagnostic(
                "RA305",
                f"state machine {fsm.name!r} has no initial state",
                location=where,
                fix_hint="mark one state as initial",
            )
        )
        return diagnostics

    unreachable = set(fsm.unreachable_states())
    for name in sorted(unreachable):
        diagnostics.append(
            make_diagnostic(
                "RA301",
                f"state {name!r} is unreachable from the initial state "
                f"{fsm.initial!r}",
                location=where,
                fix_hint="add a transition into the state or remove it",
            )
        )

    # RA306 for text outside the expression language; the variables of
    # the rest feed RA303 and RA304.
    names: Dict[Tuple[object, str], FrozenSet[str]] = {}
    for owner, parse, text in texts(fsm):
        try:
            names[parse, text] = parse(text).names if text else frozenset()
        except ExprError as exc:
            diagnostics.append(make_diagnostic(
                "RA306", f"{owner}: {exc}", location=where,
                fix_hint="keep to the grammar in repro.fsm.expr"))

    # Dead transitions: unreachable source, or shadowed by an earlier
    # transition from the same (source, event) whose guard always holds
    # first (unconditional, or syntactically identical).
    seen: Dict[Tuple[str, str], List[Tuple[str, FrozenSet[str]]]] = {}
    for transition in fsm.transitions:
        label = transition.label()
        if transition.source in unreachable:
            diagnostics.append(
                make_diagnostic(
                    "RA302",
                    f"transition {label!r} can never fire: its source "
                    f"state {transition.source!r} is unreachable",
                    location=where,
                    fix_hint="make the source state reachable",
                )
            )
            continue
        key = (transition.source, transition.event)
        guard = _normalize(transition.guard)
        mine = names.get((parse_guard, transition.guard), frozenset())
        earlier = seen.setdefault(key, [])
        shadowing = [g for g, _ in earlier if g == "" or g == guard]
        if shadowing:
            shadow = shadowing[0] or "true"
            diagnostics.append(
                make_diagnostic(
                    "RA302",
                    f"transition {label!r} can never fire: an earlier "
                    f"transition from {transition.source!r} on "
                    f"{transition.event or 'ε'!r} with guard {shadow!r} "
                    f"always matches first",
                    location=where,
                    fix_hint="tighten or reorder the earlier guard",
                )
            )
        elif earlier and guard:
            # Distinct non-trivial guards on the same (source, event):
            # flag syntactic overlap when they share a variable — the
            # machine picks whichever is declared first, which is easy
            # to get wrong when both can hold.
            for other, theirs in earlier:
                if other and mine & theirs:
                    diagnostics.append(
                        make_diagnostic(
                            "RA303",
                            f"guards {other!r} and {guard!r} on "
                            f"transitions from {transition.source!r} on "
                            f"event {transition.event or 'ε'!r} overlap "
                            f"syntactically; the first declared wins "
                            f"when both hold",
                            location=where,
                            fix_hint="make the guards mutually exclusive",
                        )
                    )
                    break
        earlier.append((guard, mine))

    # Unused variables: declared but never mentioned by any guard,
    # action, entry or exit text.
    mentioned = set().union(*names.values())
    for name in sorted(fsm.variables):
        if name not in mentioned:
            diagnostics.append(
                make_diagnostic(
                    "RA304",
                    f"variable {name!r} is declared but never used by "
                    f"any guard or action",
                    location=where,
                    fix_hint="drop the variable or reference it",
                )
            )
    return diagnostics


def run(context) -> List[Diagnostic]:
    """The registered RA3xx pass body.

    Lowers every UML state machine on the model; machines that fail to
    lower are reported as RA305-level findings rather than crashing the
    analyzer.
    """
    from ...fsm.from_uml import fsm_from_state_machine

    model = context.model
    if model is None:
        return []
    diagnostics: List[Diagnostic] = []
    machines = list(getattr(model, "state_machines", ()))
    for machine in machines:
        try:
            fsm = fsm_from_state_machine(machine)
        except Exception as exc:  # pragma: no cover - defensive
            diagnostics.append(
                make_diagnostic(
                    "RA305",
                    f"state machine {machine.name!r} does not lower: {exc}",
                    location=f"fsm {machine.name!r}",
                )
            )
            continue
        diagnostics.extend(fsm_diagnostics(fsm))
    context.info.setdefault("fsm", {})["machines"] = len(machines)
    return diagnostics

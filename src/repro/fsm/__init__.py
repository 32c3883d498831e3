"""FSM substrate: flat state machines, UML lowering, code generation,
execution — the control-flow back-end of the paper's design flow."""

from .block import chart_block, threshold_events
from .codegen import generate_artifacts, generate_c, generate_header, generate_java
from .expr import ExprError
from .from_uml import fsm_from_state_machine
from .model import Fsm, FsmError, FsmState, FsmTransition
from .simulator import (
    MAX_COMPLETION_CHAIN,
    FsmRuntimeError,
    FsmSimulator,
    TraceEntry,
    simulate,
)

__all__ = [
    "ExprError",
    "Fsm",
    "chart_block",
    "threshold_events",
    "FsmError",
    "FsmRuntimeError",
    "FsmSimulator",
    "FsmState",
    "FsmTransition",
    "MAX_COMPLETION_CHAIN",
    "TraceEntry",
    "fsm_from_state_machine",
    "generate_artifacts",
    "generate_c",
    "generate_header",
    "generate_java",
    "simulate",
]

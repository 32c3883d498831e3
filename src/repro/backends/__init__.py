"""Heterogeneous code-generation strategies over one UML front-end.

This package realizes the paper's Fig. 1: the *same* UML model feeds

- :class:`SimulinkBackend` — dataflow subsystems → Simulink CAAM → MPSoC;
- :class:`FsmBackend` — control-flow subsystems → FSM → C/Java;
- :class:`JavaBackend` — multithreaded Java "in case a Simulink compiler
  is not available", printed from the verified static schedule.

The paper's extensibility target, Kahn Process Networks, needs no
back-end of its own: the threaded programs of :mod:`repro.codegen`,
whose reads block on bounded FIFOs, already are bounded KPNs of the
same threads and channels.

:class:`DesignFlow` fans a model out to a set of back-ends and collects
every generated artifact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from ..uml.deployment import DeploymentPlan
from ..uml.model import Model
from .fsm_backend import FsmBackend, FsmBackendError
from .java_backend import JavaBackend
from .simulink_backend import SimulinkBackend


class Backend(Protocol):
    """The back-end interface: a name and a generate method."""

    name: str

    def generate(
        self, model: Model, plan: Optional[DeploymentPlan] = None
    ) -> Dict[str, str]:
        ...  # pragma: no cover - protocol


class DesignFlow:
    """Fan one UML model out to multiple code-generation strategies.

    "This approach allows designers to employ UML to model the whole
    system and reuse this model to generate code using different
    strategies and targeting different platforms."
    """

    def __init__(self, backends: Optional[List[Backend]] = None) -> None:
        self.backends: List[Backend] = list(backends or [])

    def add(self, backend: Backend) -> "DesignFlow":
        """Append a back-end to the flow; returns self for chaining."""
        self.backends.append(backend)
        return self

    def generate_all(
        self, model: Model, plan: Optional[DeploymentPlan] = None
    ) -> Dict[str, Dict[str, str]]:
        """Run every back-end; returns ``{backend name: {file: content}}``."""
        return {
            backend.name: backend.generate(model, plan)
            for backend in self.backends
        }


__all__ = [
    "Backend",
    "DesignFlow",
    "FsmBackend",
    "FsmBackendError",
    "JavaBackend",
    "SimulinkBackend",
]

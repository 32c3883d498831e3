"""Java back-end: UML → multithreaded Java (paper Fig. 1).

"In case a Simulink compiler is not available, the same UML model can be
used to generate multithreaded code for other languages, e.g. Java."

A thin adapter over the verified static-schedule lowering: synthesize
the CAAM, build its :class:`~repro.codegen.StaticSchedule`, and print the
threaded Java driver (:func:`repro.codegen.javaemit.generate_threaded_java`)
— one thread per CPU, barrier-bracketed periods, blocking FIFO channels
sized from the SDF buffer bounds.  Lowering failures raise
:class:`repro.codegen.CodegenError`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..codegen.javaemit import generate_threaded_java
from ..codegen.schedule import build_schedule
from ..core.flow import synthesize
from ..uml.deployment import DeploymentPlan
from ..uml.model import Model


class JavaBackend:
    """Generates the multithreaded Java program for a UML model."""

    name = "java"

    def generate(
        self, model: Model, plan: Optional[DeploymentPlan] = None
    ) -> Dict[str, str]:
        """Return ``{"<Model>Threads.java": source}``."""
        caam = synthesize(model, plan).caam
        return generate_threaded_java(build_schedule(caam))

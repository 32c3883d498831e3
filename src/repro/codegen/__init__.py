"""Static-schedule code generation backend with digital-thread traceability.

The paper's Simulink backend targets a tool-assisted runtime; this
package is the *bare-metal* strategy: lower a synthesized CAAM to a
periodic admissible sequential schedule (PASS, from the SDF analyzer's
repetition vector and buffer bounds) and emit self-contained C99 or Java
sources — static ring buffers, one step function per processing element,
no allocation, no runtime scheduler.  Every run produces a
machine-readable traceability manifest mapping generated symbols back to
CAAM blocks and UML elements, with SHA-256 content hashes over each
artifact (see :mod:`repro.codegen.trace`).

Module map:

- :mod:`~repro.codegen.schedule` — CAAM → :class:`StaticSchedule`;
- :mod:`~repro.codegen.cemit` / :mod:`~repro.codegen.javaemit` — source
  emission through one shared statement path (bit-identity contract),
  printed by a sequential driver and by a threaded one (one thread per
  CPU, blocking FIFOs — the multithreaded C and Java of Fig. 1);
- :mod:`~repro.codegen.trace` — digital-thread manifest build/verify;
- :mod:`~repro.codegen.differential` — compile-and-pin harness for both
  C programs against ``Simulator(engine="slots")``;
- :mod:`~repro.codegen.backend` — the facade everything else calls;
- :mod:`~repro.codegen.identifiers` — shared name sanitization.
"""

from .backend import LANGUAGES, GenerationResult, generate, generate_from_model
from .differential import (
    CFLAGS,
    DifferentialError,
    DifferentialReport,
    cc_available,
    differential_check,
)
from .identifiers import SymbolTable, camel, header_guard, sanitize
from .schedule import CodegenError, StaticSchedule, build_schedule
from .trace import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifest_json,
    verify_manifest,
)

__all__ = [
    "CFLAGS",
    "CodegenError",
    "DifferentialError",
    "DifferentialReport",
    "GenerationResult",
    "LANGUAGES",
    "MANIFEST_SCHEMA",
    "StaticSchedule",
    "SymbolTable",
    "build_manifest",
    "build_schedule",
    "camel",
    "cc_available",
    "differential_check",
    "generate",
    "generate_from_model",
    "header_guard",
    "manifest_json",
    "sanitize",
    "verify_manifest",
]

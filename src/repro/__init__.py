"""repro — UML front-end for heterogeneous embedded-software code generation.

A complete reproduction of Brisolara et al., *Using UML as Front-end for
Heterogeneous Software Code Generation Strategies* (DATE 2008): model an
embedded system once in UML (sequence + deployment diagrams), then
synthesize executable, synthesizable Simulink CAAM models — with automatic
processor allocation, channel inference, and temporal-barrier insertion —
or generate FSM / multithreaded Java / KPN code from the same model.

Quickstart::

    from repro.uml import ModelBuilder
    from repro.core import synthesize

    b = ModelBuilder("system")
    b.thread("T1"); b.thread("T2")
    b.io_device("Env")
    b.processor("CPU1", threads=["T1", "T2"])
    sd = b.interaction("main")
    sd.call("T1", "Env", "getSample", result="x")
    sd.call("T1", "Platform", "gain", args=["x"], result="y")
    sd.call("T1", "T2", "setValue", args=["y"])
    sd.call("T2", "Env", "setActuator", args=["value"])

    result = synthesize(b.build())
    print(result.summary)
    result.write_mdl("system.mdl")

Packages
--------
- :mod:`repro.uml` — UML metamodel, builder, XMI, validation;
- :mod:`repro.core` — the paper's contribution: the UML→CAAM mapping and
  its optimizations;
- :mod:`repro.simulink` — Simulink substrate: metamodel, CAAM, ``.mdl``
  serialization, dataflow simulator;
- :mod:`repro.fsm` — FSM substrate: flattening, codegen, execution;
- :mod:`repro.backends` — the heterogeneous strategy façade (Fig. 1);
- :mod:`repro.mpsoc` — the downstream MPSoC flow: platform, metrics,
  scheduling, multithreaded C generation;
- :mod:`repro.transform` — rule engine and trace links;
- :mod:`repro.obs` — observability: span tracing, metrics, Chrome-trace
  export (disabled by default, zero overhead);
- :mod:`repro.parallel` — the content-addressed synthesis cache
  (results identical to a cold run);
- :mod:`repro.apps` — the paper's case studies.
"""

from . import (
    apps,
    backends,
    core,
    dse,
    fsm,
    mpsoc,
    obs,
    parallel,
    simulink,
    transform,
    uml,
)
from .core import synthesize, synthesize_to_mdl

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "apps",
    "backends",
    "core",
    "dse",
    "fsm",
    "mpsoc",
    "obs",
    "parallel",
    "simulink",
    "synthesize",
    "synthesize_to_mdl",
    "transform",
    "uml",
]

"""The didactic example of the paper's Fig. 3.

Three threads on two CPUs:

- **T1** (CPU1) pulls a value from T3 (inter-CPU ``getValue``), computes
  ``r1 = calc(x)`` (S-function), ``r2 = dec(x)`` on the passive ``Dec``
  object (S-function), multiplies them via the pre-defined
  ``Platform.mult`` (→ ``Product`` block), and pushes ``r2`` to T2
  (intra-CPU ``setPartial``);
- **T2** (CPU1) receives the partial value and writes a scaled copy to the
  environment (``<<IO>>`` write → system output port);
- **T3** (CPU2) reads the environment (``<<IO>>`` read → system input
  port), filters it (S-function), and pushes the result to T1.

The expected CAAM (Fig. 3(c)): two CPU subsystems, three thread
subsystems, one Product block, S-functions for ``calc``/``dec``/``filter``,
one inter-CPU (GFIFO) channel, one intra-CPU (SWFIFO) channel, one system
input and one system output port.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..uml.builder import ModelBuilder
from ..uml.model import Model


def build_model() -> Model:
    """Construct the Fig. 3 UML model (deployment + sequence diagrams)."""
    b = ModelBuilder("didactic")
    b.passive_class("Dec").op(
        "dec", inputs=["x:int"], returns="int"
    ).body("return x - 1;", "c")
    b.passive_class("Filter").op(
        "filter", inputs=["v:int"], returns="int"
    ).body("return (v + last) / 2;", "c")

    b.thread("T1")
    b.thread("T2")
    b.thread("T3")
    b.instance("Dec1", "Dec")
    b.instance("Filter1", "Filter")
    b.io_device("IODevice")

    b.processor("CPU1", threads=["T1", "T2"])
    b.processor("CPU2", threads=["T3"])
    b.bus("CPU1", "CPU2")

    sd = b.interaction("main")
    # T3: environment read -> filter -> send to T1 (inter-CPU).
    sd.call("T3", "IODevice", "getSample", result="v")
    sd.call("T3", "Filter1", "filter", args=["v"], result="y")
    sd.call("T3", "T1", "setValue", args=["y"])
    # T1: receive, compute, send partial result to T2 (intra-CPU).
    sd.call("T1", "T3", "getValue", result="x")
    sd.call("T1", "T1", "calc", args=["x"], result="r1")
    sd.call("T1", "Dec1", "dec", args=["x"], result="r2")
    sd.call("T1", "Platform", "mult", args=["r1", "r2"], result="r3")
    sd.call("T1", "T2", "setPartial", args=["r2"])
    # T2: receive and write to the environment.
    sd.call("T2", "T1", "getPartial", result="p")
    sd.call("T2", "Platform", "gain", args=["p"], result="out")
    sd.call("T2", "IODevice", "setActuator", args=["out"])
    return b.build()


def behaviors() -> Dict[str, Callable]:
    """Executable S-function behaviours for the didactic example.

    Each callback computes its declarative ``codegen_spec`` ``a * x + b``
    with exactly those IEEE operations, so the generated C and Java
    reproduce the simulator bit for bit (``0.5 * v + 0.0`` maps a
    ``-0.0`` sample to ``+0.0``, as the generated code does).
    """

    def calc(x: float) -> float:
        return 2.0 * x + 1.0

    def dec(x: float) -> float:
        return 1.0 * x + -1.0

    def filter_(v: float) -> float:
        return 0.5 * v + 0.0

    calc.codegen_spec = ("affine", 2.0, 1.0)  # type: ignore[attr-defined]
    dec.codegen_spec = ("affine", 1.0, -1.0)  # type: ignore[attr-defined]
    filter_.codegen_spec = ("affine", 0.5, 0.0)  # type: ignore[attr-defined]
    return {"calc": calc, "dec": dec, "filter": filter_}

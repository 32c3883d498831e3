"""Synthetic 12-thread example (paper §5.2, Figs. 6–8).

Twelve communicating threads named ``A``–``M`` (no ``K``, matching the
paper's figure).  The task graph of Fig. 7(a) — reconstructed from the
figure; exact printed edge weights did not survive the paper's text
extraction, so we use weights consistent with the clustering outcome shown
in Fig. 7(b):

- a heavy chain ``A→B→C→D→F→J`` (the critical path),
- three light side-branches ``A→E→I``, ``B→G→M``, ``C→H→L``.

Linear clustering must group the threads into four clusters exactly as in
Fig. 7(b)::

    {A, B, C, D, F, J}   (critical path -> one CPU)
    {E, I}
    {G, M}
    {H, L}

The UML model expresses each weighted edge as a ``loop`` combined fragment
repeating a ``set``-message, so the task graph *extracted from the sequence
diagram* reproduces the figure's weights (scaled by the 32-bit word size).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.taskgraph import TaskGraph
from ..uml.builder import ModelBuilder
from ..uml.model import Model

#: Thread names of the paper's figure (note: no ``K``).
THREADS = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "L", "M"]

#: Reconstructed Fig. 7(a) edges: (producer, consumer, weight units).
EDGES: List[Tuple[str, str, int]] = [
    ("A", "B", 10),
    ("B", "C", 10),
    ("C", "D", 10),
    ("D", "F", 10),
    ("F", "J", 11),
    ("A", "E", 2),
    ("E", "I", 8),
    ("B", "G", 3),
    ("G", "M", 7),
    ("C", "H", 3),
    ("H", "L", 9),
]

#: The paper's Fig. 7(b) grouping (labels are per-figure; contents matter).
EXPECTED_CLUSTERS = [
    frozenset({"A", "B", "C", "D", "F", "J"}),
    frozenset({"E", "I"}),
    frozenset({"G", "M"}),
    frozenset({"H", "L"}),
]


def task_graph() -> TaskGraph:
    """The Fig. 7(a) task graph with unit node weights."""
    graph = TaskGraph()
    for thread in THREADS:
        graph.add_node(thread, 1.0)
    for producer, consumer, weight in EDGES:
        graph.add_edge(producer, consumer, float(weight))
    return graph


def build_model() -> Model:
    """The synthetic UML model: one big interaction (paper Fig. 6).

    Each weighted edge ``u -w-> v`` becomes a ``loop(w)`` fragment holding
    one ``u -> v : setData_uv(val_u)`` message; each thread first computes
    its local value with a self-call (one S-function per thread).
    """
    b = ModelBuilder("synthetic")
    for thread in THREADS:
        b.thread(thread)

    sd = b.interaction("communication")
    for thread in THREADS:
        sd.call(thread, thread, f"comp{thread}", result=f"val_{thread}")
    for producer, consumer, weight in EDGES:
        loop = sd.loop(iterations=weight)
        loop.call(
            producer,
            consumer,
            f"setData_{producer}{consumer}",
            args=[f"val_{producer}"],
        )
    return b.build()


def behaviors() -> Dict[str, object]:
    """Executable behaviours: thread X produces the constant ord(X).

    Each carries the declarative ``("constant", c)`` spec the
    static-schedule backend lowers.
    """

    def constant(value: float):
        def comp() -> float:
            return value

        comp.codegen_spec = ("constant", value)  # type: ignore[attr-defined]
        return comp

    return {f"comp{thread}": constant(float(ord(thread))) for thread in THREADS}

"""Static scheduling of a CAAM on an MPSoC platform.

Estimates one model iteration of a synthesized CAAM: threads are tasks,
channels are precedence edges with communication delays (cheap intra-CPU,
expensive inter-CPU), and each CPU executes its threads sequentially —
what the §4.2.3 ablation needs to show that the linear-clustering
allocation beats round-robin/random placements.

This module is an adapter: it derives a task graph and deployment plan
from the CAAM and runs the one makespan model of
:mod:`repro.dse.estimate` (whose docstring states the cost model), so the
ablation and the design-space explorer cannot rank plans differently for
the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.taskgraph import TaskGraph
from ..dse import estimate as _kernel
from ..simulink.caam import CaamModel
from ..uml.deployment import DeploymentPlan
from .metrics import functional_blocks
from .platform import Platform


class ScheduleError(Exception):
    """Raised when a schedule cannot be constructed."""


@dataclass(frozen=True)
class ScheduledTask:
    """One thread's slot in the schedule."""

    thread: str
    cpu: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class Schedule:
    """A complete static schedule of one iteration."""

    tasks: List[ScheduledTask] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((task.finish for task in self.tasks), default=0.0)

    def task(self, thread: str) -> ScheduledTask:
        """The scheduled slot of ``thread``."""
        for task in self.tasks:
            if task.thread == thread:
                return task
        raise ScheduleError(f"no scheduled task for thread {thread!r}")

    def by_cpu(self) -> Dict[str, List[ScheduledTask]]:
        """Tasks grouped per CPU, sorted by start time."""
        grouped: Dict[str, List[ScheduledTask]] = {}
        for task in self.tasks:
            grouped.setdefault(task.cpu, []).append(task)
        for tasks in grouped.values():
            tasks.sort(key=lambda t: t.start)
        return grouped

    def gantt(self) -> str:
        """Small textual Gantt chart for reports."""
        lines = []
        for cpu, tasks in sorted(self.by_cpu().items()):
            slots = ", ".join(
                f"{t.thread}[{t.start:g}..{t.finish:g}]" for t in tasks
            )
            lines.append(f"{cpu}: {slots}")
        return "\n".join(lines)


def _caam_dependencies(caam: CaamModel) -> List[Tuple[str, str, int]]:
    """(producer thread, consumer thread, width) per channel.

    Reconstructed from the channel wiring: the channel input is driven by a
    thread (or CPU boundary port) and its output feeds another.
    """
    dependencies: List[Tuple[str, str, int]] = []
    thread_names = {t.name for t in caam.threads()}

    def trace_thread(system, port, direction: str) -> Optional[str]:
        """Follow one hop from a channel to the adjacent thread name."""
        block = port.block
        if block.name in thread_names:
            return block.name
        # CPU boundary port: dig one level (Inport/Outport inside the CPU).
        from ..simulink.caam import is_cpu_subsystem
        from ..simulink.model import SubSystem

        if isinstance(block, SubSystem) and is_cpu_subsystem(block):
            if direction == "producer":
                inner = block.outport_blocks()[port.index - 1]
                driver = block.system.driver_of(inner.input(1))
                if driver is not None and driver.source.block.name in thread_names:
                    return driver.source.block.name
            else:
                inner = block.inport_blocks()[port.index - 1]
                for line in block.system.lines_from(inner):
                    for dest in line.destinations:
                        if dest.block.name in thread_names:
                            return dest.block.name
        return None

    for channel in caam.channels():
        system = channel.parent
        assert system is not None
        width = int(channel.parameters.get("DataWidthBits", 32))
        producer: Optional[str] = None
        consumer: Optional[str] = None
        driver = system.driver_of(channel.input(1))
        if driver is not None:
            producer = trace_thread(system, driver.source, "producer")
        for line in system.lines_from(channel):
            for dest in line.destinations:
                consumer = consumer or trace_thread(system, dest, "consumer")
        if producer and consumer:
            dependencies.append((producer, consumer, width))
    return dependencies


def _caam_task_graph(
    caam: CaamModel, platform: Platform
) -> Tuple[TaskGraph, DeploymentPlan]:
    """The CAAM as the kernel's inputs.

    A thread weighs its functional blocks × its CPU's ``cycles_per_block``
    (so heterogeneous platforms stay exact at ``cycles_per_unit=1``) and
    carries its Thread-SS ``SAPriority``; the channels between one
    producer and one consumer become one edge of their summed widths.
    """
    graph = TaskGraph()
    mapping: Dict[str, str] = {}
    for thread in caam.threads():
        cpu = mapping[thread.name] = caam.cpu_of_thread(thread.name).name
        graph.add_node(
            thread.name,
            len(functional_blocks(thread))
            * platform.processor(cpu).cycles_per_block,
        )
        graph.priorities[thread.name] = int(
            thread.parameters.get("SAPriority", 0)
        )
    for producer, consumer, width in _caam_dependencies(caam):
        graph.add_edge(producer, consumer, float(width))
    return graph, DeploymentPlan.from_mapping(mapping)


def schedule_caam(caam: CaamModel, platform: Platform) -> Schedule:
    """List-schedule one iteration of the CAAM on the platform.

    A consumer starts only after every producer has finished plus the
    channel delay.  Threads on a feedback cycle (through the §4.2.2
    delays) form one super-node: they run back-to-back in name order on
    the CPU of the name-first member.
    """
    graph, plan = _caam_task_graph(caam, platform)
    _, tables, start = _kernel._estimate(graph, plan, platform, 1.0)
    tasks: List[ScheduledTask] = []
    for label in tables.order:
        cpu = plan.cpu_of(tables.anchors[label])
        clock = start[label]
        for thread in sorted(tables.members[label]):
            finish = clock + graph.node_weights[thread]
            tasks.append(ScheduledTask(thread, cpu, clock, finish))
            clock = finish
    return Schedule(tasks=tasks)


def steady_state_interval(caam: CaamModel, platform: Platform) -> float:
    """Steady-state initiation interval of a pipelined CAAM (cycles/sample).

    With every thread processing sample *k+1* while its consumer handles
    sample *k*, throughput is bounded by the busiest processor: its
    per-iteration computation plus the channel transfers it drives.  This
    is the quantity the DAC'07 Motion-JPEG study sweeps against the CPU
    count — more CPUs help until one stage dominates.
    """
    graph, plan = _caam_task_graph(caam, platform)
    return _kernel.estimate_allocation(
        graph, plan, platform, cycles_per_unit=1.0
    ).interval_cycles

"""Multithreaded C code generation from a CAAM.

The downstream MPSoC flow [Huang et al., DAC 2007] generates multithreaded
software from the Simulink CAAM; this module reproduces that step: one C
translation unit per CPU, with

- one function per thread executing its blocks in dataflow order,
- ``swfifo_read/write`` calls for intra-CPU channels,
- ``gfifo_read/write`` calls for inter-CPU channels,
- a ``main`` that registers the threads with a round-robin scheduler.

Each translation unit is printed as a plain list of lines.  The
generated code targets a small runtime API (declared in the emitted
header comment) that is not itself emitted; it is compilable in spirit
rather than against a real board support package — the paper's authors
link against their MPSoC platform libraries, which are proprietary.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..simulink.caam import CaamModel, CpuSubsystem, ThreadSubsystem, is_channel
from ..simulink.model import Block, SubSystem


class CodegenError(Exception):
    """Raised when code cannot be generated."""


#: Fixed preamble of every CPU translation unit: the runtime API it targets.
_RUNTIME_API = [
    "/* Runtime API:",
    " *   void swfifo_read(const char *ch, double *v);   intra-CPU channel",
    " *   void swfifo_write(const char *ch, double v);",
    " *   void gfifo_read(const char *ch, double *v);    inter-CPU channel",
    " *   void gfifo_write(const char *ch, double v);",
    " *   void io_read(const char *port, double *v);     device access",
    " *   void io_write(const char *port, double v);",
    " *   void rt_register_thread(void (*fn)(void), const char *name);",
    " */",
    '#include "caam_runtime.h"',
    "",
]


def _thread_statements(
    thread: ThreadSubsystem, channel_protocol: Dict[str, str]
) -> Tuple[List[str], List[str]]:
    """(variable declarations, body statements) for one thread function.

    Blocks are emitted in a dataflow (topological) order of the thread
    layer; feedback edges through UnitDelay blocks use state variables.
    """
    system = thread.system
    statements: List[str] = []
    declarations: List[str] = []
    signal_names: Dict[Tuple[int, int], str] = {}

    def signal(block: Block, index: int) -> str:
        key = (id(block), index)
        if key not in signal_names:
            name = f"{block.name}_o{index}"
            signal_names[key] = name
            declarations.append(f"{name} = 0.0")
        return signal_names[key]

    def input_expr(block: Block, index: int) -> str:
        line = system.driver_of(block.input(index))
        if line is None:
            return "0.0"
        return signal(line.source.block, line.source.index)

    ordered = _dataflow_order(system)
    for block in ordered:
        kind = block.block_type
        if kind == "Inport":
            # Ports not fed by a channel are system IO (device access).
            protocol = channel_protocol.get(f"{thread.name}.{block.name}", "io")
            statements.append(
                f'{protocol}_read("{block.name}", &{signal(block, 1)});'
            )
        elif kind == "Outport":
            protocol = channel_protocol.get(f"{thread.name}.{block.name}", "io")
            statements.append(
                f'{protocol}_write("{block.name}", {input_expr(block, 1)});'
            )
        elif kind == "Constant":
            statements.append(
                f"{signal(block, 1)} = {float(block.parameters.get('Value', 0.0))};"
            )
        elif kind == "Gain":
            statements.append(
                f"{signal(block, 1)} = {float(block.parameters.get('Gain', 1.0))}"
                f" * {input_expr(block, 1)};"
            )
        elif kind == "Sum":
            signs = str(block.parameters.get("Inputs", "+" * block.num_inputs))
            terms = []
            for position in range(1, block.num_inputs + 1):
                sign = signs[position - 1] if position <= len(signs) else "+"
                terms.append(f"{'-' if sign == '-' else '+'} {input_expr(block, position)}")
            statements.append(f"{signal(block, 1)} = {' '.join(terms).lstrip('+ ')};")
        elif kind == "Product":
            factors = [
                input_expr(block, position)
                for position in range(1, block.num_inputs + 1)
            ]
            statements.append(f"{signal(block, 1)} = {' * '.join(factors)};")
        elif kind == "UnitDelay":
            state = f"{block.name}_state"
            declarations.append(
                f"{state} = {float(block.parameters.get('InitialCondition', 0.0))}"
            )
            statements.append(f"{signal(block, 1)} = {state};")
            # State update is appended after all consumers have read.
        elif kind == "S-Function":
            args = ", ".join(
                input_expr(block, position)
                for position in range(1, block.num_inputs + 1)
            )
            fname = str(block.parameters.get("FunctionName", block.name))
            statements.append(f"{signal(block, 1)} = {fname}({args});")
        else:
            args = ", ".join(
                input_expr(block, position)
                for position in range(1, block.num_inputs + 1)
            )
            statements.append(
                f"{signal(block, 1)} = {block.block_type.lower()}_step({args});"
            )
    # Second pass: UnitDelay state updates (after every read).
    for block in ordered:
        if block.block_type == "UnitDelay":
            statements.append(f"{block.name}_state = {input_expr(block, 1)};")
    return declarations, statements


def _dataflow_order(system) -> List[Block]:
    """Topological order over direct connections; delays break cycles."""
    from ..simulink import blocks as libblocks

    blocks = list(system.blocks)
    indegree = {id(b): 0 for b in blocks}
    successors: Dict[int, List[Block]] = {id(b): [] for b in blocks}
    for line in system.lines:
        for dest in line.destinations:
            if libblocks.is_feedthrough(dest.block) or dest.block.block_type == "Outport":
                if dest.block.block_type == "UnitDelay":
                    continue
                successors[id(line.source.block)].append(dest.block)
                indegree[id(dest.block)] += 1
    ready = sorted(
        (b for b in blocks if indegree[id(b)] == 0), key=lambda b: b.name
    )
    ordered: List[Block] = []
    while ready:
        block = ready.pop(0)
        ordered.append(block)
        for succ in successors[id(block)]:
            indegree[id(succ)] -= 1
            if indegree[id(succ)] == 0:
                ready.append(succ)
        ready.sort(key=lambda b: b.name)
    if len(ordered) != len(blocks):
        raise CodegenError(
            f"thread layer {system.name!r} still contains an algebraic "
            f"loop; run the temporal-barrier pass first"
        )
    return ordered


def _channel_protocols(caam: CaamModel) -> Dict[str, str]:
    """Map ``thread.port`` to the runtime FIFO flavour feeding it."""
    protocols: Dict[str, str] = {}
    for cpu in caam.cpus():
        for channel in cpu.system.blocks:
            if not is_channel(channel):
                continue
            _tag_channel_ends(cpu.system, channel, protocols, "swfifo")
    for channel in caam.root.blocks:
        if not is_channel(channel):
            continue
        # GFIFO channels connect CPU boundary ports; tag the thread ports
        # one level down.
        _tag_gfifo(caam, channel, protocols)
    return protocols


def _tag_channel_ends(system, channel, protocols: Dict[str, str], flavour: str) -> None:
    driver = system.driver_of(channel.input(1))
    if driver is not None and isinstance(driver.source.block, SubSystem):
        thread = driver.source.block
        port = thread.outport_blocks()[driver.source.index - 1]
        protocols[f"{thread.name}.{port.name}"] = flavour
    for line in system.lines_from(channel):
        for dest in line.destinations:
            if isinstance(dest.block, SubSystem):
                thread = dest.block
                port = thread.inport_blocks()[dest.index - 1]
                protocols[f"{thread.name}.{port.name}"] = flavour


def _tag_gfifo(caam: CaamModel, channel, protocols: Dict[str, str]) -> None:
    system = caam.root
    driver = system.driver_of(channel.input(1))
    if driver is not None and isinstance(driver.source.block, CpuSubsystem):
        cpu = driver.source.block
        boundary = cpu.outport_blocks()[driver.source.index - 1]
        inner = cpu.system.driver_of(boundary.input(1))
        if inner is not None and isinstance(inner.source.block, SubSystem):
            thread = inner.source.block
            port = thread.outport_blocks()[inner.source.index - 1]
            protocols[f"{thread.name}.{port.name}"] = "gfifo"
    for line in system.lines_from(channel):
        for dest in line.destinations:
            if isinstance(dest.block, CpuSubsystem):
                cpu = dest.block
                boundary = cpu.inport_blocks()[dest.index - 1]
                for inner in cpu.system.lines_from(boundary):
                    for inner_dest in inner.destinations:
                        if isinstance(inner_dest.block, SubSystem):
                            thread = inner_dest.block
                            port = thread.inport_blocks()[inner_dest.index - 1]
                            protocols[f"{thread.name}.{port.name}"] = "gfifo"


def generate_cpu_source(caam: CaamModel, cpu_name: str) -> str:
    """Generate the C translation unit for one CPU subsystem."""
    cpu = caam.cpu(cpu_name)
    protocols = _channel_protocols(caam)
    threads = cpu.thread_subsystems()
    lines = [f"/* Generated by repro.mpsoc.codegen for {cpu_name} -- do not edit. */"]
    lines += _RUNTIME_API
    for thread in threads:
        declarations, statements = _thread_statements(thread, protocols)
        lines += [f"/* Thread {thread.name} */", f"void thread_{thread.name}(void) {{"]
        lines += [f"    double {decl};" for decl in declarations]
        lines += [f"    {stmt}" for stmt in statements]
        lines += ["}", ""]
    lines.append("int main(void) {")
    lines += [
        f'    rt_register_thread(thread_{thread.name}, "{thread.name}");'
        for thread in threads
    ]
    lines += ["    rt_scheduler_run();", "    return 0;", "}"]
    return "\n".join(lines) + "\n"


def generate_all(caam: CaamModel) -> Dict[str, str]:
    """One generated C source per CPU: ``{cpu name: source}``."""
    return {cpu.name: generate_cpu_source(caam, cpu.name) for cpu in caam.cpus()}

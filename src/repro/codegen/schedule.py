"""Lower a synthesized CAAM to a periodic admissible static schedule.

This is the analysis half of the static-schedule backend (Fakih's
SDF-based code generation from Simulink models, arXiv:1701.04217): the
emitters in :mod:`repro.codegen.cemit` / :mod:`repro.codegen.javaemit`
render the :class:`StaticSchedule` built here, they never look at the
CAAM directly.

The lowering consumes the PR-8 analyzer wholesale instead of re-deriving
it: :func:`repro.analysis.sdf.sdf_from_caam` lifts the thread/channel
topology onto an SDF graph, :func:`repro.analysis.sdf.analyze_graph`
solves the balance equations and simulates one PASS period, and this
module replays that result structurally:

- the **firing order** of the processing elements (one PE per Thread-SS)
  is the analyzer's recorded ``firing_sequence``;
- every ``CommChannel`` becomes one or more **ring buffers** — one per
  (terminal delay-chain node, consuming PE) pair, because fanout
  branches may cross different numbers of ``UnitDelay`` blocks — sized
  ``max(analyzer bound, delay + 1)`` and preloaded with the delays'
  ``InitialCondition`` values in pop order;
- ``UnitDelay`` blocks sitting *outside* any thread (the §4.2.2
  temporal-barrier placement adjacent to channels) are folded into the
  buffers as initial tokens; thread-internal delays stay ordinary state;
- intra-PE block order is :func:`repro.simulink.simulator.feedthrough_order`
  restricted to the PE, i.e. exactly the simulator's evaluation order.

Anything the static form cannot represent (cross-PE wires that bypass a
channel, opaque S-Function callbacks, multi-rate repetition vectors,
rate-inconsistent or deadlocked graphs) raises :class:`CodegenError`
with the offending element named — the zoo differential harness proves
the representable set covers the whole generated corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.sdf import SdfAnalysis, analyze_graph, sdf_from_caam
from ..simulink.caam import (
    GFIFO,
    SWFIFO,
    CaamModel,
    is_channel,
    is_thread_subsystem,
)
from ..simulink.model import Block, Port, flatten
from ..simulink.simulator import AlgebraicLoopError, feedthrough_order


class CodegenError(Exception):
    """The CAAM cannot be lowered to a static schedule (element named)."""


#: Block types the emitters know how to render inside a PE step function.
SUPPORTED_TYPES = frozenset(
    {
        "Constant",
        "Gain",
        "Sum",
        "Product",
        "Saturation",
        "Abs",
        "Relay",
        "UnitDelay",
        "S-Function",
        "Sin",
        "Step",
        # Sinks without value semantics: scheduled but emitted as no-ops.
        "Scope",
        "Terminator",
    }
)


@dataclass(frozen=True)
class ValueRef:
    """How a consumer reads one input sample.

    ``kind`` is ``"signal"`` (another block's output in the same PE, or —
    for outport sampling only — any PE), ``"stim"`` (a root Inport
    stimulus sample), or ``"buffer"`` (the value popped from a channel
    ring buffer this period, ``buffer_index`` into
    :attr:`StaticSchedule.buffers`).
    """

    kind: str
    block: Optional[Block] = None
    port: int = 1
    buffer_index: int = -1


@dataclass
class BufferSpec:
    """One static ring buffer realizing (a fanout branch of) a channel."""

    index: int
    channel: Block
    #: PE producing into the buffer; ``None`` = environment (root Inport).
    producer_pe: Optional[str]
    #: PE popping from the buffer; ``None`` = environment (root Outport).
    consumer_pe: Optional[str]
    #: What gets pushed each period (a signal or stimulus ref).
    source: ValueRef
    #: Initial tokens on the path (folded UnitDelay count).
    delay: int
    #: Ring capacity: ``max(analyzer bound, delay + 1)``.
    capacity: int
    #: Initial token values in pop order (consumer-adjacent delay first).
    initial: Tuple[float, ...] = ()
    #: ``GFIFO`` when producer and consumer PE run on different CPUs,
    #: else ``SWFIFO`` (the environment end never runs inside a period).
    protocol: str = SWFIFO


@dataclass
class BlockStep:
    """One block firing inside a PE step: the block plus resolved inputs."""

    block: Block
    inputs: List[ValueRef] = field(default_factory=list)


@dataclass
class PeSchedule:
    """The sequential program of one processing element."""

    name: str
    cpu: str
    #: Blocks in simulator feedthrough-topological order.
    blocks: List[BlockStep] = field(default_factory=list)
    #: Buffer indices popped once at the start of the PE step.
    pops: List[int] = field(default_factory=list)
    #: Buffer indices pushed once at the end of the PE step.
    pushes: List[int] = field(default_factory=list)


@dataclass
class StaticSchedule:
    """A complete periodic admissible static schedule for one CAAM."""

    name: str
    model: CaamModel
    #: Root Inports in ``Port``-parameter order — the ``inputs[]`` layout.
    inports: List[Block]
    #: Root Outports in ``Port``-parameter order — the ``outputs[]`` layout.
    outports: List[Block]
    #: Per-outport sample source (``None`` = undriven, samples 0.0).
    outport_refs: List[Optional[ValueRef]]
    pes: List[PeSchedule]
    #: PE firing order for one period (the analyzer's PASS sequence).
    firing_order: List[str]
    buffers: List[BufferSpec]
    #: Buffers pushed from stimulus at the start of each period.
    env_pushes: List[int]
    #: Buffers popped by the environment (outport sampling) at period end.
    env_pops: List[int]
    #: The underlying SDF analysis (repetition vector, buffer bounds).
    analysis: SdfAnalysis

    def pe(self, name: str) -> PeSchedule:
        """The named PE schedule (raises :class:`CodegenError`)."""
        for entry in self.pes:
            if entry.name == name:
                return entry
        raise CodegenError(f"no processing element {name!r} in schedule")

    def partition(self) -> Dict[str, List[str]]:
        """CPU → its PEs in firing order (the §4.2.3 thread partition).

        CPUs appear in CAAM order; each CPU's list is
        :attr:`firing_order` restricted to that CPU, so running every
        list on its own thread preserves the PASS precedences.
        """
        cpu_of = {pe.name: pe.cpu for pe in self.pes}
        partition: Dict[str, List[str]] = {pe.cpu: [] for pe in self.pes}
        for name in self.firing_order:
            partition[cpu_of[name]].append(name)
        return partition

    def stats(self) -> Dict[str, int]:
        """Size census used by obs spans and manifests."""
        return {
            "pes": len(self.pes),
            "blocks": sum(len(pe.blocks) for pe in self.pes),
            "buffers": len(self.buffers),
            "initial_tokens": sum(b.delay for b in self.buffers),
            "inports": len(self.inports),
            "outports": len(self.outports),
        }


def _port_order(blocks: Sequence[Block]) -> List[Block]:
    """Sort root IO blocks by their ``Port`` parameter, then name."""
    return sorted(
        blocks,
        key=lambda b: (int(b.parameters.get("Port", 0)), b.name),
    )


def _initial_condition(block: Block) -> float:
    return float(block.parameters.get("InitialCondition", 0.0))


def build_schedule(caam: CaamModel) -> StaticSchedule:
    """Lower ``caam`` to a :class:`StaticSchedule` (see module docs)."""
    blocks, edges = flatten(caam)
    in_edges: Dict[Block, Dict[int, Port]] = {}
    out_edges: Dict[int, List[Tuple[Port, Port]]] = {}
    for src, dst in edges:
        slot = in_edges.setdefault(dst.block, {})
        if dst.index in slot:
            raise CodegenError(
                f"input {dst.index} of block {dst.block.path!r} is driven "
                f"by multiple sources"
            )
        slot[dst.index] = src
        out_edges.setdefault(id(src.block), []).append((src, dst))

    try:
        order = feedthrough_order(blocks, in_edges)
    except AlgebraicLoopError as exc:
        raise CodegenError(
            f"model {caam.name!r} has an algebraic loop and admits no "
            f"static schedule: {exc}"
        ) from exc

    threads = caam.threads()
    names = [t.name for t in threads]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise CodegenError(
            f"thread name(s) {', '.join(map(repr, duplicates))} are not "
            f"unique across CPUs; the static schedule keys PEs by name"
        )
    prefixes = {t.path + "/": t.name for t in threads}
    cpu_of = {
        thread.name: cpu.name
        for cpu in caam.cpus()
        for thread in cpu.thread_subsystems()
    }

    def owner(block: Block) -> Optional[str]:
        path = block.path + "/"
        for prefix, name in prefixes.items():
            if path.startswith(prefix):
                return name
        return None

    def is_root_inport(block: Block) -> bool:
        return block.block_type == "Inport" and owner(block) is None

    def is_root_outport(block: Block) -> bool:
        return block.block_type == "Outport" and owner(block) is None

    # ----- SDF analysis: rates, deadlock freedom, bounds, firing order -----
    analysis = analyze_graph(sdf_from_caam(caam))
    if not analysis.consistent:
        conflicts = ", ".join(
            f"{e.src} -[{e.channel}]-> {e.dst}" for e in analysis.conflicts
        )
        raise CodegenError(
            f"model {caam.name!r}: SDF balance equations are inconsistent "
            f"({conflicts}); no periodic schedule exists"
        )
    if analysis.capped:
        raise CodegenError(
            f"model {caam.name!r}: repetition vector exceeds the analyzer "
            f"firing cap; refusing to unroll a schedule that large"
        )
    if analysis.deadlocked:
        raise CodegenError(
            f"model {caam.name!r}: SDF graph deadlocks for lack of initial "
            f"tokens (blocked: {', '.join(analysis.blocked)}); run the "
            f"temporal-barrier pass before codegen"
        )
    multirate = sorted(
        a for a, r in analysis.repetition.items() if r != 1
    )
    if multirate:
        raise CodegenError(
            f"model {caam.name!r}: CAAM-level repetition vector is not "
            f"single-rate (actors {', '.join(multirate)}); the fixed-step "
            f"CAAM realization fires every thread once per period"
        )

    # ----- channels -> ring buffers ----------------------------------------
    buffers: List[BufferSpec] = []
    #: (terminal path node id, consumer pe) -> buffer index
    buffer_key: Dict[Tuple[int, Optional[str]], int] = {}
    folded: Dict[int, Block] = {}

    def trace_producer(channel: Block) -> Tuple[ValueRef, Optional[str], List[Block]]:
        """Walk upstream through unowned UnitDelays to the producer."""
        chain: List[Block] = []
        port = in_edges.get(channel, {}).get(1)
        while port is not None:
            block = port.block
            pe = owner(block)
            if pe is not None:
                return ValueRef("signal", block, port.index), pe, chain
            if is_root_inport(block):
                return ValueRef("stim", block), None, chain
            if block.block_type != "UnitDelay":
                raise CodegenError(
                    f"channel {channel.path!r} is driven through "
                    f"{block.path!r} ({block.block_type}), which is neither "
                    f"a thread block nor a foldable UnitDelay"
                )
            chain.insert(0, block)  # producer-to-channel order
            port = in_edges.get(block, {}).get(1)
        raise CodegenError(f"channel {channel.path!r} has no driver")

    def trace_consumers(
        channel: Block,
    ) -> List[Tuple[Block, List[Block], Optional[str]]]:
        """Walk downstream: (terminal node, delay chain, consumer PE)."""
        found: List[Tuple[Block, List[Block], Optional[str]]] = []

        def walk(node: Block, chain: List[Block]) -> None:
            for src, dst in out_edges.get(id(node), ()):
                consumer = dst.block
                pe = owner(consumer)
                if pe is not None:
                    found.append((node, chain, pe))
                elif is_root_outport(consumer):
                    found.append((node, chain, None))
                elif consumer.block_type == "UnitDelay":
                    walk(consumer, chain + [consumer])
                else:
                    raise CodegenError(
                        f"channel {channel.path!r} fans out into "
                        f"{consumer.path!r} ({consumer.block_type}), which "
                        f"is neither a thread block, a root Outport, nor a "
                        f"foldable UnitDelay"
                    )

        walk(channel, [])
        return found

    bounds = analysis.buffer_bounds
    for channel in caam.channels():
        if channel not in in_edges and id(channel) not in out_edges:
            continue  # fully disconnected channel: nothing to realize
        source, producer_pe, producer_chain = trace_producer(channel)
        for ud in producer_chain:
            folded[id(ud)] = ud
        for terminal, chain, consumer_pe in trace_consumers(channel):
            for ud in chain:
                folded[id(ud)] = ud
            key = (id(terminal), consumer_pe)
            if key in buffer_key:
                continue  # fanout within one PE shares the popped sample
            delay = len(producer_chain) + len(chain)
            initial = tuple(
                [_initial_condition(ud) for ud in reversed(chain)]
                + [_initial_condition(ud) for ud in reversed(producer_chain)]
            )
            spec = BufferSpec(
                index=len(buffers),
                channel=channel,
                producer_pe=producer_pe,
                consumer_pe=consumer_pe,
                source=source,
                delay=delay,
                capacity=max(bounds.get(channel.name, 1), delay + 1),
                initial=initial,
                protocol=(
                    GFIFO
                    if producer_pe is not None
                    and consumer_pe is not None
                    and cpu_of.get(producer_pe) != cpu_of.get(consumer_pe)
                    else SWFIFO
                ),
            )
            buffer_key[key] = spec.index
            buffers.append(spec)

    # ----- classify every flattened block ----------------------------------
    pe_blocks: Dict[str, List[Block]] = {t.name: [] for t in threads}
    inports: List[Block] = []
    outports: List[Block] = []
    for block in order:
        pe = owner(block)
        if pe is not None:
            pe_blocks[pe].append(block)
            continue
        if is_root_inport(block):
            inports.append(block)
        elif is_root_outport(block):
            outports.append(block)
        elif is_channel(block) or id(block) in folded:
            continue  # realized as ring buffers
        elif is_thread_subsystem(block):  # pragma: no cover - flatten drops
            continue
        else:
            raise CodegenError(
                f"block {block.path!r} ({block.block_type}) lives outside "
                f"every thread and is not a channel, a channel-adjacent "
                f"UnitDelay, or root model IO; the static schedule cannot "
                f"place it"
            )
    inports = _port_order(inports)
    outports = _port_order(outports)

    def resolve(consumer: Block, port: Port, pe: Optional[str]) -> ValueRef:
        src = port.block
        src_pe = owner(src)
        if src_pe is not None and (pe is None or src_pe == pe):
            return ValueRef("signal", src, port.index)
        if is_root_inport(src):
            return ValueRef("stim", src)
        if is_channel(src) or id(src) in folded:
            index = buffer_key.get((id(src), pe))
            if index is not None:
                return ValueRef("buffer", buffer_index=index)
        if src_pe is not None:
            raise CodegenError(
                f"block {consumer.path!r} reads {src.path!r} across the "
                f"{src_pe}/{pe} thread boundary without a channel; the "
                f"static schedule only passes data through CommChannels"
            )
        raise CodegenError(
            f"block {consumer.path!r} reads unsupported source {src.path!r} "
            f"({src.block_type})"
        )

    # ----- per-PE programs ---------------------------------------------------
    pes: List[PeSchedule] = []
    for thread in threads:
        pe = PeSchedule(name=thread.name, cpu=cpu_of.get(thread.name, ""))
        for block in pe_blocks[thread.name]:
            if block.block_type not in SUPPORTED_TYPES:
                raise CodegenError(
                    f"block {block.path!r} has unsupported type "
                    f"{block.block_type!r}; the static-schedule emitters "
                    f"support {', '.join(sorted(SUPPORTED_TYPES))}"
                )
            _validate_semantics(block)
            step = BlockStep(block=block)
            sources = in_edges.get(block, {})
            for index in range(1, block.num_inputs + 1):
                port = sources.get(index)
                if port is None:
                    raise CodegenError(
                        f"input {index} of block {block.path!r} is not "
                        f"connected; the schedule has no sample to feed it"
                    )
                step.inputs.append(resolve(block, port, thread.name))
            pe.blocks.append(step)
        pe.pops = [
            spec.index for spec in buffers if spec.consumer_pe == thread.name
        ]
        pe.pushes = [
            spec.index for spec in buffers if spec.producer_pe == thread.name
        ]
        pes.append(pe)

    # ----- environment boundary ---------------------------------------------
    outport_refs: List[Optional[ValueRef]] = []
    for outport in outports:
        port = in_edges.get(outport, {}).get(1)
        outport_refs.append(
            resolve(outport, port, None) if port is not None else None
        )
    env_pushes = [
        spec.index for spec in buffers if spec.producer_pe is None
    ]
    env_pops = [
        spec.index for spec in buffers if spec.consumer_pe is None
    ]

    firing_order = list(analysis.firing_sequence)
    missing = [n for n in sorted(pe_blocks) if n not in set(firing_order)]
    firing_order.extend(missing)  # pragma: no cover - actors always listed

    return StaticSchedule(
        name=caam.name,
        model=caam,
        inports=inports,
        outports=outports,
        outport_refs=outport_refs,
        pes=pes,
        firing_order=firing_order,
        buffers=buffers,
        env_pushes=env_pushes,
        env_pops=env_pops,
        analysis=analysis,
    )


def _validate_semantics(block: Block) -> None:
    """Reject blocks whose parameters the emitters cannot reproduce."""
    if block.block_type == "Sum":
        signs = str(
            block.parameters.get("Inputs", "+" * block.num_inputs)
        ).replace("|", "")
        if len(signs) != block.num_inputs or any(
            s not in "+-" for s in signs
        ):
            raise CodegenError(
                f"Sum block {block.path!r}: sign string {signs!r} does not "
                f"match its {block.num_inputs} input(s)"
            )
    elif block.block_type == "S-Function":
        callback = block.parameters.get("callback")
        if callback is None:
            return  # sum-of-inputs placeholder semantics are emittable
        if block.parameters.get("Stateful"):
            raise CodegenError(
                f"S-Function {block.path!r} has an opaque stateful "
                f"callback; static codegen needs declarative behaviour"
            )
        spec = getattr(callback, "codegen_spec", None)
        if not _valid_callback_spec(spec, block.num_inputs):
            raise CodegenError(
                f"S-Function {block.path!r} carries a Python callback "
                f"without a declarative codegen_spec; static codegen "
                f"cannot translate opaque callables"
            )


def _valid_callback_spec(spec: object, num_inputs: int) -> bool:
    if not isinstance(spec, tuple) or not spec:
        return False
    if spec[0] == "affine":
        return len(spec) == 3 and num_inputs == 1
    if spec[0] == "constant":
        return len(spec) == 2 and num_inputs == 0
    return False

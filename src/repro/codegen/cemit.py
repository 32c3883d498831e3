"""Deterministic C99 emission of a :class:`~repro.codegen.schedule.StaticSchedule`.

The generated translation unit is self-contained and allocation-free:
static signal/state variables, static ring buffers preloaded by
``<model>_init()``, one ``static void <pe>_step(void)`` per processing
element (the shared body, :func:`lower`), and one of two drivers:

- :func:`generate_c` — ``<model>_step(inputs, outputs)`` replays the
  analyzer's PASS firing order on the caller's thread.  No malloc, no
  scheduler, no threads.
- :func:`generate_threaded_c` — one POSIX thread per CPU of the §4.2.3
  partition runs that CPU's PEs in firing order between two barriers
  per period; rings become bounded blocking FIFOs, labelled SWFIFO or
  GFIFO by whether their PEs share a CPU.  Same interface and harness.

**Bit-identity contract.**  The differential harness pins the generated
program's output streams bit-for-bit against the slot-compiled simulator,
so every emitted expression reproduces the Python block semantics
(:mod:`repro.simulink.blocks`) exactly:

- all numeric literals are C99 hexadecimal floating constants
  (``float.hex()``), which round-trip ``double`` values exactly;
- ``Sum`` accumulates left-to-right from a leading ``0.0`` (including
  the sign-of-zero consequence: ``0.0 + -0.0`` is ``+0.0``);
- ``Saturation`` is the ternary pair matching Python's
  ``min(max(x, lo), hi)`` tie behaviour;
- compilation must disable FP contraction (``-ffp-contract=off``) so no
  multiply-add fuses — :data:`repro.codegen.differential.CFLAGS` is the
  reference flag set.

The optional ``REPRO_CODEGEN_MAIN`` guard compiles in a stdin/stdout
harness speaking hexfloat (``%la`` / ``%a``) so the differential check
never loses a bit to decimal formatting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isinf, isnan
from typing import Callable, Dict, List, Tuple

from ..simulink.model import Block
from .identifiers import SymbolTable, sanitize
from .schedule import BufferSpec, CodegenError, StaticSchedule, ValueRef


def c_double(value: float) -> str:
    """Render ``value`` as an exact C99 double constant."""
    value = float(value)
    if isnan(value):
        return "NAN"
    if isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    return value.hex()


@dataclass(frozen=True)
class Dialect:
    """The language-specific slice of block emission.

    Both emitters render *the same* statement skeletons through one code
    path (:func:`block_statements`), so C and Java can never drift apart
    semantically; only literals, intrinsics and declaration syntax vary.
    """

    double: Callable[[float], str]
    abs_fn: str
    sin_fn: str
    #: ``decl_double(name, comment)`` / ``decl_flag`` for state variables.
    decl_double: Callable[[str, str], str]
    decl_flag: Callable[[str, str], str]
    flag_true: str
    flag_false: str


C_DIALECT = Dialect(
    double=c_double,
    abs_fn="fabs",
    sin_fn="sin",
    decl_double=lambda name, comment: f"static double {name};  /* {comment} */",
    decl_flag=lambda name, comment: f"static int {name};  /* {comment} */",
    flag_true="1",
    flag_false="0",
)


class _Namer:
    """Stable symbol assignment for one translation unit."""

    def __init__(self, schedule: StaticSchedule) -> None:
        self._prefix = schedule.name + "/"
        self._signals = SymbolTable("v_")
        self._states = SymbolTable("s_")
        self._stims = SymbolTable("in_")
        self._pes = SymbolTable("pe_")
        self._cpus = SymbolTable("cpu_")

    def _rel(self, block: Block) -> str:
        path = block.path
        if path.startswith(self._prefix):
            path = path[len(self._prefix):]
        return path

    def signal(self, block: Block, port: int = 1) -> str:
        # Extra output ports get their own table entries so a mangled
        # block name can never collide with a port-suffixed sibling.
        key = self._rel(block) if port == 1 else f"{self._rel(block)}.out{port}"
        return self._signals.symbol(key)

    def state(self, block: Block) -> str:
        return self._states.symbol(self._rel(block))

    def stim(self, block: Block) -> str:
        return self._stims.symbol(block.name)

    def pe(self, name: str) -> str:
        return self._pes.symbol(name) + "_step"

    def cpu(self, name: str) -> str:
        return self._cpus.symbol(name)


def _out_count(block: Block) -> int:
    """How many output samples the simulator writes for ``block``."""
    if block.block_type == "S-Function" and (
        block.parameters.get("callback") is None
    ):
        return max(1, block.num_outputs)
    if block.block_type in ("Scope", "Terminator"):
        return 0
    return 1


@dataclass
class Lowered:
    """The shared body of one translation unit, before any driver.

    Both drivers of an emitter (the sequential ``step`` and the threaded
    one) print these same pieces; only how a ring is pushed and popped
    differs, which :func:`lower` takes as the ``pop``/``push`` renderers.
    """

    #: Stimulus latches, then every block output, in declaration order.
    signals: List[str]
    #: Block state declarations (rendered through the dialect).
    states: List[str]
    #: Block state resets for ``init``.
    inits: List[str]
    #: ``(step-function symbol, body lines)`` per PE, in schedule order.
    pes: List[Tuple[str, List[str]]]
    #: How a consumer reads a :class:`ValueRef` (a signal or ``rbN_pop``).
    ref: Callable[[ValueRef], str]
    #: The driver's ring statements, reused around the period in ``step``.
    pop: Callable[[BufferSpec], str]
    push: Callable[[BufferSpec, str], str]


def lower(
    schedule: StaticSchedule,
    names: _Namer,
    d: Dialect,
    pop: Callable[[BufferSpec], str],
    push: Callable[[BufferSpec, str], str],
) -> Lowered:
    """Lower every PE of ``schedule`` to statements (see :class:`Lowered`)."""

    def ref(value: ValueRef) -> str:
        if value.kind == "signal":
            assert value.block is not None
            if value.port > max(1, _out_count(value.block)):
                raise CodegenError(
                    f"block output {value.block.path!r}.out{value.port} is "
                    f"consumed but never produced"
                )
            return names.signal(value.block, value.port)
        if value.kind == "stim":
            assert value.block is not None
            return names.stim(value.block)
        return f"rb{value.buffer_index}_pop"

    lowered = Lowered(
        signals=[names.stim(inport) for inport in schedule.inports],
        states=[],
        inits=[],
        pes=[],
        ref=ref,
        pop=pop,
        push=push,
    )
    for pe in schedule.pes:
        body: List[str] = []
        updates: List[str] = []
        for index in pe.pops:
            body.append(pop(schedule.buffers[index]))
        for step in pe.blocks:
            block = step.block
            args = [ref(value) for value in step.inputs]
            stmts, upd, decls, inits = block_statements(block, args, names, d)
            body.extend(stmts)
            updates.extend(upd)
            lowered.states.extend(decls)
            lowered.inits.extend(inits)
            for port in range(1, _out_count(block) + 1):
                lowered.signals.append(names.signal(block, port))
        for index in pe.pushes:
            spec = schedule.buffers[index]
            body.append(push(spec, ref(spec.source)))
        body.extend(updates)
        if not body:
            body.append("    /* no blocks scheduled on this PE */")
        lowered.pes.append((names.pe(pe.name), body))
    return lowered


def _ring_comment(spec: BufferSpec) -> str:
    """``path[, N initial token(s)]`` — the comment on every ring."""
    return spec.channel.path + (
        f", {spec.delay} initial token(s)" if spec.delay else ""
    )


def _fifo_comment(spec: BufferSpec) -> str:
    """``PROTOCOL producer -> consumer: path...`` on every threaded ring."""
    ends = " -> ".join(
        pe or "<env>" for pe in (spec.producer_pe, spec.consumer_pe)
    )
    return f"{spec.protocol} {ends}: {_ring_comment(spec)}"


def _threaded_banner(schedule: StaticSchedule) -> List[str]:
    """The comment lines describing the partition, shared with Java."""
    lines = [
        " * One thread per CPU of the thread partition; every period is",
        " * bracketed by two barriers, and each CPU thread runs its PEs in",
        " * the PASS firing order:",
    ]
    for cpu, pes in schedule.partition().items():
        lines.append(f" *   {cpu}: " + " -> ".join(pes))
    lines += [
        " * Channels are bounded FIFOs sized from the SDF analyzer's PASS",
        " * bounds: SWFIFO within one CPU, GFIFO across CPUs.  A pop",
        " * blocks while its ring is empty, a push while it is full.",
    ]
    return lines


def _step_body(
    schedule: StaticSchedule,
    names: _Namer,
    lowered: Lowered,
    period: List[str],
) -> List[str]:
    """Stimulus latches, environment pushes, ``period``, pops, outputs."""
    ref, pop, push = lowered.ref, lowered.pop, lowered.push
    buffers = schedule.buffers
    body = [
        f"    {names.stim(inport)} = inputs[{position}];"
        for position, inport in enumerate(schedule.inports)
    ]
    body += [push(buffers[i], ref(buffers[i].source)) for i in schedule.env_pushes]
    body += period
    body += [pop(buffers[i]) for i in schedule.env_pops]
    body += [
        f"    outputs[{position}] = "
        f"{ref(value) if value is not None else '0.0'};"
        for position, value in enumerate(schedule.outport_refs)
    ]
    return body


def _c_unit(
    schedule: StaticSchedule,
    names: _Namer,
    filename: str,
    intro: List[str],
    lowered: Lowered,
    rings: List[str],
    ring_inits: List[str],
    threads: List[str],
    period: List[str],
) -> Dict[str, str]:
    """Assemble ``{"<model>…c": …, "<model>.h": …}`` around one driver.

    ``intro`` is everything before the declarations (banner, includes,
    runtime); ``threads`` sits between the PE functions and ``step``;
    ``period`` is the part of ``step`` that fires the PEs.
    """
    name = sanitize(schedule.name).lower()
    macro = name.upper()
    body = _step_body(schedule, names, lowered, period)
    if not schedule.inports:
        body.insert(0, "    (void)inputs;")
    if not schedule.outports:
        body.append("    (void)outputs;")
    lines = intro + ["", "/* -- stimulus latches and block output signals -- */"]
    lines += [f"static double {s};" for s in lowered.signals] or ["/* (none) */"]
    lines += ["", "/* -- block state -- */"]
    lines += lowered.states or ["/* (stateless) */"]
    lines += ["", "/* -- channel ring buffers -- */"]
    lines += rings or ["/* (no channels) */"]
    lines += ["", f"void {name}_init(void) {{"]
    lines += lowered.inits + ring_inits or ["    /* nothing to reset */"]
    lines += ["}", ""]
    lines += [
        f"static void {fn}(void) {{\n" + "\n".join(pe_body) + "\n}"
        for fn, pe_body in lowered.pes
    ]
    lines += [""] + threads
    lines.append(f"void {name}_step(const double *inputs, double *outputs) {{")
    lines += body
    lines += ["}", ""]
    lines += _main_harness(name, macro)
    header_name = f"{name}.h"
    header = "\n".join(
        [
            f"/* {header_name} -- interface of the generated static "
            f"schedule for {schedule.name!r}.",
            " * Generated by repro.codegen; do not edit.",
            " */",
            f"#ifndef REPRO_{macro}_H",
            f"#define REPRO_{macro}_H",
            "",
            f"#define {macro}_N_INPUTS {len(schedule.inports)}",
            f"#define {macro}_N_OUTPUTS {len(schedule.outports)}",
            "",
            "/* Reset states and reload channel initial tokens. */",
            f"void {name}_init(void);",
            "/* Execute one schedule period (one firing of every PE). */",
            f"void {name}_step(const double *inputs, double *outputs);",
            "",
            f"#endif /* REPRO_{macro}_H */",
        ]
    ) + "\n"
    return {filename: "\n".join(lines) + "\n", header_name: header}


def generate_c(schedule: StaticSchedule) -> Dict[str, str]:
    """Emit ``{"<model>.c": ..., "<model>.h": ...}`` for ``schedule``.

    The sequential driver: ``<model>_step`` fires every PE in the PASS
    firing order on the caller's thread.
    """
    name = sanitize(schedule.name).lower()
    names = _Namer(schedule)
    lowered = lower(schedule, names, C_DIALECT, _pop_stmt, _push_stmt)
    rings: List[str] = []
    ring_inits: List[str] = []
    for spec in schedule.buffers:
        n = spec.index
        rings.append(
            f"static double rb{n}[{spec.capacity}]; "
            f"static int rb{n}_head; static int rb{n}_tail; "
            f"static double rb{n}_pop;  /* {_ring_comment(spec)} */"
        )
        ring_inits += _token_inits(spec, c_double)
        ring_inits.append(
            f"    rb{n}_head = 0; rb{n}_tail = {spec.delay}; "
            f"rb{n}_pop = 0.0;"
        )
    repetition = ", ".join(
        f"{actor}:{count}"
        for actor, count in sorted(schedule.analysis.repetition.items())
    )
    intro = [
        f"/* {name}.c -- static-schedule realization of CAAM "
        f"{schedule.name!r}.",
        " * Generated by repro.codegen; do not edit.",
        " *",
        " * Periodic admissible sequential schedule (one call of "
        f"{name}_step()",
        " * is one period): " + _order(schedule.firing_order),
        f" * Repetition vector: {repetition or '<empty>'}",
        " * No malloc, no runtime scheduler; buffers are static rings",
        " * sized from the SDF analyzer's PASS bounds.",
        " *",
        " * Bit-identity: compile with FP contraction disabled",
        " * (e.g. cc -O2 -ffp-contract=off) to match the reference",
        " * simulator stream for stream.",
        " */",
        "#include <math.h>",
        f'#include "{name}.h"',
    ]
    period = [f"    {names.pe(pe)}();" for pe in schedule.firing_order]
    return _c_unit(
        schedule, names, f"{name}.c", intro, lowered, rings, ring_inits,
        threads=[], period=period,
    )


#: The bounded blocking FIFO every threaded ring is an instance of.
_FIFO_RUNTIME = [
    "/* -- FIFO runtime: a pop blocks while its ring is empty, a push",
    " *    while it is full; one mutex and condition per ring -- */",
    "typedef struct {",
    "    double *slot;",
    "    int capacity, head, tail, count;",
    "    pthread_mutex_t lock;",
    "    pthread_cond_t moved;",
    "} fifo_t;",
    "",
    "static void fifo_reset(fifo_t *f, int tokens) {",
    "    f->head = 0; f->tail = tokens; f->count = tokens;",
    "}",
    "",
    "static double fifo_pop(fifo_t *f) {",
    "    double value;",
    "    pthread_mutex_lock(&f->lock);",
    "    while (f->count == 0)",
    "        pthread_cond_wait(&f->moved, &f->lock);",
    "    value = f->slot[f->head];",
    "    f->head = (f->head + 1) % f->capacity;",
    "    f->count -= 1;",
    "    pthread_cond_broadcast(&f->moved);",
    "    pthread_mutex_unlock(&f->lock);",
    "    return value;",
    "}",
    "",
    "static void fifo_push(fifo_t *f, double value) {",
    "    pthread_mutex_lock(&f->lock);",
    "    while (f->count == f->capacity)",
    "        pthread_cond_wait(&f->moved, &f->lock);",
    "    f->slot[f->tail] = value;",
    "    f->tail = (f->tail + 1) % f->capacity;",
    "    f->count += 1;",
    "    pthread_cond_broadcast(&f->moved);",
    "    pthread_mutex_unlock(&f->lock);",
    "}",
]


def _fifo_pop(spec: BufferSpec) -> str:
    return f"    rb{spec.index}_pop = fifo_pop(&rb{spec.index});"


def _fifo_push(spec: BufferSpec, expr: str) -> str:
    return f"    fifo_push(&rb{spec.index}, {expr});"


def generate_threaded_c(schedule: StaticSchedule) -> Dict[str, str]:
    """Emit ``{"<model>_threads.c": ..., "<model>.h": ...}``.

    The threaded driver over the same body as :func:`generate_c`: one
    POSIX thread per CPU of :meth:`StaticSchedule.partition`, periods
    bracketed by two barriers, rings as blocking FIFOs.  The interface
    and the ``REPRO_CODEGEN_MAIN`` harness are those of the sequential
    program, so :func:`repro.codegen.differential_check` pins both.
    """
    name = sanitize(schedule.name).lower()
    names = _Namer(schedule)
    lowered = lower(schedule, names, C_DIALECT, _fifo_pop, _fifo_push)
    rings: List[str] = []
    ring_inits: List[str] = []
    for spec in schedule.buffers:
        n = spec.index
        rings += [
            f"/* {_fifo_comment(spec)} */",
            f"static double rb{n}_slot[{spec.capacity}]; "
            f"static double rb{n}_pop;",
            f"static fifo_t rb{n} = {{rb{n}_slot, {spec.capacity}, 0, 0, 0, "
            "PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER};",
        ]
        ring_inits += _token_inits(spec, c_double, f"rb{n}_slot")
        ring_inits.append(
            f"    fifo_reset(&rb{n}, {spec.delay}); rb{n}_pop = 0.0;"
        )
    partition = schedule.partition()
    threads = [
        "/* -- one thread per CPU; two barriers bracket every period -- */",
        "static pthread_barrier_t period_start;",
        "static pthread_barrier_t period_end;",
        "",
    ]
    for cpu, pes in partition.items():
        threads += [
            f"static void *{names.cpu(cpu)}_thread(void *arg) {{",
            "    (void)arg;",
            "    for (;;) {",
            "        pthread_barrier_wait(&period_start);",
            *(f"        {names.pe(pe)}();" for pe in pes),
            "        pthread_barrier_wait(&period_end);",
            "    }",
            "    return NULL;",
            "}",
            "",
        ]
    threads += [
        "static void start_threads(void) {",
        "    static int started = 0;",
        *(["    pthread_t thread;"] if partition else []),
        "    if (started) return;",
        "    started = 1;",
        f"    pthread_barrier_init(&period_start, NULL, {len(partition) + 1});",
        f"    pthread_barrier_init(&period_end, NULL, {len(partition) + 1});",
        *(
            f"    pthread_create(&thread, NULL, {names.cpu(cpu)}_thread, NULL);"
            for cpu in partition
        ),
        "}",
        "",
    ]
    intro = [
        f"/* {name}_threads.c -- multithreaded realization of CAAM "
        f"{schedule.name!r}.",
        " * Generated by repro.codegen; do not edit.",
        " *",
        *_threaded_banner(schedule),
        " *",
        " * Bit-identity: compile with FP contraction disabled and",
        " * POSIX threads (e.g. cc -O2 -ffp-contract=off -pthread).",
        " */",
        "#define _POSIX_C_SOURCE 200809L",
        "#include <math.h>",
        "#include <pthread.h>",
        f'#include "{name}.h"',
    ]
    if schedule.buffers:
        intro += [""] + _FIFO_RUNTIME
    period = [
        "    start_threads();",
        "    pthread_barrier_wait(&period_start);",
        "    pthread_barrier_wait(&period_end);",
    ]
    return _c_unit(
        schedule, names, f"{name}_threads.c", intro, lowered, rings,
        ring_inits, threads=threads, period=period,
    )


def _order(pes: List[str]) -> str:
    return " -> ".join(pes if pes else ("<empty>",))


def _token_inits(spec: BufferSpec, literal, array: str = "") -> List[str]:
    """Preload statements for ``spec``'s initial tokens."""
    array = array or f"rb{spec.index}"
    return [
        f"    {array}[{position}] = {literal(token)};"
        for position, token in enumerate(spec.initial)
    ]


def _pop_stmt(spec: BufferSpec) -> str:
    n = spec.index
    return (
        f"    rb{n}_pop = rb{n}[rb{n}_head]; "
        f"rb{n}_head = (rb{n}_head + 1) % {spec.capacity};"
    )


def _push_stmt(spec: BufferSpec, expr: str) -> str:
    n = spec.index
    return (
        f"    rb{n}[rb{n}_tail] = {expr}; "
        f"rb{n}_tail = (rb{n}_tail + 1) % {spec.capacity};"
    )


def block_statements(
    block: Block, args: List[str], names: _Namer, d: Dialect
) -> Tuple[List[str], List[str], List[str], List[str]]:
    """One block firing: (output stmts, deferred updates, state decls, inits).

    Every expression mirrors :mod:`repro.simulink.blocks` operation for
    operation; see the module docstring for the contract.  Statements are
    dialect-neutral except where :class:`Dialect` injects syntax, so the C
    and Java realizations of a block are the same expression tree.
    """
    kind = block.block_type
    out = names.signal(block)
    p = block.parameters
    num = d.double
    if kind == "Constant":
        return [f"    {out} = {num(p.get('Value', 0.0))};"], [], [], []
    if kind == "Gain":
        gain = num(p.get("Gain", 1.0))
        return [f"    {out} = {gain} * {args[0]};"], [], [], []
    if kind == "Sum":
        signs = str(p.get("Inputs", "+" * len(args))).replace("|", "")
        expr = "0.0"
        for sign, arg in zip(signs, args):
            expr += f" {'+' if sign == '+' else '-'} {arg}"
        return [f"    {out} = {expr};"], [], [], []
    if kind == "Product":
        expr = " * ".join(args) if args else "1.0"
        return [f"    {out} = {expr};"], [], [], []
    if kind == "Saturation":
        lo = num(p.get("LowerLimit", -1.0))
        hi = num(p.get("UpperLimit", 1.0))
        return (
            [
                "    {",
                f"        double t = {args[0]} >= {lo} ? {args[0]} : {lo};",
                f"        {out} = t <= {hi} ? t : {hi};",
                "    }",
            ],
            [], [], [],
        )
    if kind == "Abs":
        return [f"    {out} = {d.abs_fn}({args[0]});"], [], [], []
    if kind == "UnitDelay":
        state = names.state(block)
        initial = num(p.get("InitialCondition", 0.0))
        return (
            [f"    {out} = {state};"],
            # Commit after every signal of the PE is final (update phase).
            [f"    {state} = {args[0]};"],
            [d.decl_double(state, f"UnitDelay {block.path}")],
            [f"    {state} = {initial};"],
        )
    if kind == "Relay":
        state = names.state(block)
        on_point = num(p.get("OnSwitchValue", 0.5))
        off_point = num(p.get("OffSwitchValue", -0.5))
        on_value = num(p.get("OnOutputValue", 1.0))
        off_value = num(p.get("OffOutputValue", 0.0))
        return (
            [
                f"    if ({state}) {{",
                f"        if ({args[0]} <= {off_point}) "
                f"{state} = {d.flag_false};",
                f"    }} else if ({args[0]} >= {on_point}) "
                f"{state} = {d.flag_true};",
                f"    {out} = {state} ? {on_value} : {off_value};",
            ],
            [],
            [d.decl_flag(state, f"Relay engaged {block.path}")],
            [f"    {state} = {d.flag_false};"],
        )
    if kind == "Sin":
        state = names.state(block)
        amplitude = num(p.get("Amplitude", 1.0))
        frequency = num(p.get("Frequency", 1.0))
        phase = num(p.get("Phase", 0.0))
        return (
            [
                f"    {out} = {amplitude} * {d.sin_fn}({frequency} * {state} "
                f"+ {phase});",
                f"    {state} = {state} + 1.0;",
            ],
            [],
            [d.decl_double(state, f"Sin step counter {block.path}")],
            [f"    {state} = 0.0;"],
        )
    if kind == "Step":
        state = names.state(block)
        step_time = num(p.get("Time", 1.0))
        before = num(p.get("Before", 0.0))
        after = num(p.get("After", 1.0))
        return (
            [
                f"    {out} = {state} >= {step_time} ? {after} : {before};",
                f"    {state} = {state} + 1.0;",
            ],
            [],
            [d.decl_double(state, f"Step counter {block.path}")],
            [f"    {state} = 0.0;"],
        )
    if kind == "S-Function":
        callback = p.get("callback")
        if callback is None:
            # Placeholder semantics: sum of inputs on every output port.
            expr = "0.0"
            for arg in args:
                expr += f" + {arg}"
            stmts = [f"    {out} = {expr};"]
            for port in range(2, _out_count(block) + 1):
                stmts.append(f"    {names.signal(block, port)} = {out};")
            return stmts, [], [], []
        spec = getattr(callback, "codegen_spec", None)
        if isinstance(spec, tuple) and spec and spec[0] == "affine":
            a, b = num(spec[1]), num(spec[2])
            return [f"    {out} = {a} * {args[0]} + {b};"], [], [], []
        if isinstance(spec, tuple) and spec and spec[0] == "constant":
            return [f"    {out} = {num(spec[1])};"], [], [], []
        raise CodegenError(
            f"S-Function {block.path!r}: unsupported codegen_spec {spec!r}"
        )
    if kind in ("Scope", "Terminator"):
        return [f"    /* {kind} {block.path}: no value semantics */"], [], [], []
    raise CodegenError(
        f"no emission rule for block type {kind!r} ({block.path})"
    )  # pragma: no cover - schedule validates SUPPORTED_TYPES first


def _main_harness(name: str, macro: str) -> List[str]:
    """The ``REPRO_CODEGEN_MAIN`` stdin/stdout differential driver."""
    return [
        "#ifdef REPRO_CODEGEN_MAIN",
        "/* Differential harness: reads 'episodes steps' then one line of",
        " * hexfloat stimulus samples per step; writes one line of hexfloat",
        " * outputs per step.  %a round-trips doubles exactly. */",
        "#include <stdio.h>",
        "int main(void) {",
        "    int episodes, steps;",
        '    if (scanf("%d %d", &episodes, &steps) != 2) return 2;',
        f"    double inputs[{macro}_N_INPUTS > 0 ? {macro}_N_INPUTS : 1];",
        f"    double outputs[{macro}_N_OUTPUTS > 0 ? {macro}_N_OUTPUTS : 1];",
        "    for (int e = 0; e < episodes; ++e) {",
        f"        {name}_init();",
        "        for (int s = 0; s < steps; ++s) {",
        f"            for (int i = 0; i < {macro}_N_INPUTS; ++i)",
        '                if (scanf("%la", &inputs[i]) != 1) return 2;',
        f"            {name}_step(inputs, outputs);",
        f"            for (int i = 0; i < {macro}_N_OUTPUTS; ++i)",
        '                printf(i ? " %a" : "%a", outputs[i]);',
        '            printf("\\n");',
        "        }",
        "    }",
        "    return 0;",
        "}",
        "#endif /* REPRO_CODEGEN_MAIN */",
    ]

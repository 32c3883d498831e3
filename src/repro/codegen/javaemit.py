"""Deterministic Java emission of a :class:`~repro.codegen.schedule.StaticSchedule`.

The shared body of :func:`repro.codegen.cemit.lower` — one private
method per processing element over fixed-size rings — printed with two
drivers, like the C emitter:

- :func:`generate_java` — one allocation-free class whose ``step()``
  replays the SDF analyzer's PASS on the caller's thread;
- :func:`generate_threaded_java` — one daemon thread per CPU, two
  ``CyclicBarrier`` waits per period, rings as blocking FIFOs (what
  :class:`repro.backends.JavaBackend` prints).

The emitted expressions come from the same :func:`~repro.codegen.cemit.
block_statements` code path as the C emitter, through
:data:`JAVA_DIALECT`: Java accepts C99 hexadecimal floating literals
(``0x1.8p+1``), underscore identifiers, ``{ ... }`` statement blocks and
the ``?:`` operator, so the two backends share one statement skeleton per
block and cannot drift apart semantically.  Java's arithmetic is
strictfp-equivalent for ``double`` on all supported JVMs (JEP 306), so
the streams match the C program and the Python simulator bit for bit.

Each generated class also carries a ``main`` speaking the
same hexfloat stdin/stdout protocol as the C harness, so the differential
check can pin a JVM run when one is available.
"""

from __future__ import annotations

from math import isinf, isnan
from typing import Dict, List

from .cemit import (
    Dialect,
    Lowered,
    _fifo_comment,
    _Namer,
    _order,
    _pop_stmt,
    _push_stmt,
    _token_inits,
    lower,
    _ring_comment,
    _step_body,
    _threaded_banner,
)
from .identifiers import camel, sanitize
from .schedule import BufferSpec, StaticSchedule


def java_double(value: float) -> str:
    """Render ``value`` as an exact Java double constant."""
    value = float(value)
    if isnan(value):
        return "Double.NaN"
    if isinf(value):
        return (
            "Double.POSITIVE_INFINITY"
            if value > 0
            else "Double.NEGATIVE_INFINITY"
        )
    # float.hex() text is valid Java hexadecimal-floating-point syntax.
    return value.hex()


JAVA_DIALECT = Dialect(
    double=java_double,
    abs_fn="Math.abs",
    sin_fn="Math.sin",
    decl_double=lambda name, comment: (
        f"    private double {name};  /* {comment} */"
    ),
    decl_flag=lambda name, comment: (
        f"    private boolean {name};  /* {comment} */"
    ),
    flag_true="true",
    flag_false="false",
)


def class_name_for(schedule: StaticSchedule) -> str:
    """The Java type name emitted for ``schedule`` (``Crane`` for crane)."""
    return camel(sanitize(schedule.name)) + "Schedule"


def _java_unit(
    schedule: StaticSchedule,
    names: _Namer,
    cls: str,
    intro: List[str],
    members: List[str],
    lowered: Lowered,
    rings: List[str],
    ring_inits: List[str],
    threads: List[str],
    period: List[str],
) -> Dict[str, str]:
    """Assemble ``{"<Class>.java": source}`` around one driver.

    ``intro`` is the banner; ``members`` follow the constants (runtime
    types, barriers); ``threads`` sits between the PE methods and
    ``step``; ``period`` is the part of ``step`` that fires the PEs.
    """
    body = _step_body(schedule, names, lowered, period)
    lines = intro + [
        f"public final class {cls} {{",
        f"    public static final int N_INPUTS = {len(schedule.inports)};",
        f"    public static final int N_OUTPUTS = {len(schedule.outports)};",
        *members,
        "",
        "    /* -- stimulus latches and block output signals -- */",
    ]
    lines += [f"    private double {s};" for s in lowered.signals] or [
        "    /* (none) */"
    ]
    lines += ["", "    /* -- block state -- */"]
    lines += lowered.states or ["    /* (stateless) */"]
    lines += ["", "    /* -- channel ring buffers -- */"]
    lines += rings or ["    /* (no channels) */"]
    lines += [
        "",
        f"    public {cls}() {{",
        "        init();",
        "    }",
        "",
        "    /** Reset states and reload channel initial tokens. */",
        "    public void init() {",
    ]
    lines += ["    " + line for line in lowered.inits + ring_inits] or [
        "        /* nothing to reset */"
    ]
    lines += ["    }", ""]
    lines += [
        f"    private void {fn}() {{\n"
        + "\n".join("    " + line for line in pe_body)
        + "\n    }"
        for fn, pe_body in lowered.pes
    ]
    lines += [""] + threads
    lines += [
        "    /** Execute one schedule period (one firing of every PE). */",
        "    public void step(double[] inputs, double[] outputs) {",
    ]
    lines += ["    " + line for line in body] or ["        ;"]
    lines += ["    }", ""]
    lines += _java_main(cls)
    lines.append("}")
    return {f"{cls}.java": "\n".join(lines) + "\n"}


def generate_java(schedule: StaticSchedule) -> Dict[str, str]:
    """Emit ``{"<Class>.java": source}`` for ``schedule``.

    The sequential driver: ``step()`` fires every PE in the PASS firing
    order on the caller's thread.
    """
    cls = class_name_for(schedule)
    names = _Namer(schedule)
    lowered = lower(schedule, names, JAVA_DIALECT, _pop_stmt, _push_stmt)
    rings: List[str] = []
    ring_inits: List[str] = []
    for spec in schedule.buffers:
        n = spec.index
        rings += [
            f"    private final double[] rb{n} = "
            f"new double[{spec.capacity}];  /* {_ring_comment(spec)} */",
            f"    private int rb{n}_head; private int rb{n}_tail; "
            f"private double rb{n}_pop;",
        ]
        ring_inits += _token_inits(spec, java_double)
        ring_inits.append(
            f"    rb{n}_head = 0; rb{n}_tail = {spec.delay}; "
            f"rb{n}_pop = 0.0;"
        )
    repetition = ", ".join(
        f"{actor}:{count}"
        for actor, count in sorted(schedule.analysis.repetition.items())
    )
    intro = [
        f"/* {cls}.java -- static-schedule realization of CAAM "
        f"{schedule.name!r}.",
        " * Generated by repro.codegen; do not edit.",
        " *",
        " * Periodic admissible sequential schedule (one call of step()",
        f" * is one period): {_order(schedule.firing_order)}",
        f" * Repetition vector: {repetition or '<empty>'}",
        " * Allocation-free after construction; buffers are fixed arrays",
        " * sized from the SDF analyzer's PASS bounds.",
        " */",
    ]
    period = [f"    {names.pe(pe)}();" for pe in schedule.firing_order]
    return _java_unit(
        schedule, names, cls, intro, [], lowered, rings, ring_inits,
        threads=[], period=period,
    )


def threaded_class_name_for(schedule: StaticSchedule) -> str:
    """The threaded Java type name (``CraneThreads`` for crane)."""
    return camel(sanitize(schedule.name)) + "Threads"


#: The bounded blocking FIFO and barrier helpers of the threaded class.
_FIFO_RUNTIME = [
    "",
    "    /** Bounded FIFO: pop waits while empty, push while full. */",
    "    private static final class Fifo {",
    "        final double[] slot;",
    "        private int head, tail, count;",
    "",
    "        Fifo(int capacity) { slot = new double[capacity]; }",
    "",
    "        synchronized void reset(int tokens) {",
    "            head = 0; tail = tokens; count = tokens;",
    "        }",
    "",
    "        synchronized double pop() {",
    "            while (count == 0) pause();",
    "            double value = slot[head];",
    "            head = (head + 1) % slot.length;",
    "            count -= 1;",
    "            notifyAll();",
    "            return value;",
    "        }",
    "",
    "        synchronized void push(double value) {",
    "            while (count == slot.length) pause();",
    "            slot[tail] = value;",
    "            tail = (tail + 1) % slot.length;",
    "            count += 1;",
    "            notifyAll();",
    "        }",
    "",
    "        private void pause() {",
    "            try { wait(); } catch (InterruptedException e) {",
    "                throw new IllegalStateException(e);",
    "            }",
    "        }",
    "    }",
]


def _fifo_pop(spec: BufferSpec) -> str:
    return f"    rb{spec.index}_pop = rb{spec.index}.pop();"


def _fifo_push(spec: BufferSpec, expr: str) -> str:
    return f"    rb{spec.index}.push({expr});"


def generate_threaded_java(schedule: StaticSchedule) -> Dict[str, str]:
    """Emit ``{"<Model>Threads.java": source}``: the threaded driver.

    The Java twin of :func:`repro.codegen.cemit.generate_threaded_c`:
    one daemon thread per CPU running that CPU's PEs in firing order,
    two :class:`java.util.concurrent.CyclicBarrier` waits per period,
    rings as monitor-guarded blocking FIFOs.  The ``init``/``step``
    interface and the hexfloat ``main`` are those of :func:`generate_java`.
    """
    cls = threaded_class_name_for(schedule)
    names = _Namer(schedule)
    lowered = lower(schedule, names, JAVA_DIALECT, _fifo_pop, _fifo_push)
    rings: List[str] = []
    ring_inits: List[str] = []
    for spec in schedule.buffers:
        n = spec.index
        rings += [
            f"    /* {_fifo_comment(spec)} */",
            f"    private final Fifo rb{n} = new Fifo({spec.capacity}); "
            f"private double rb{n}_pop;",
        ]
        ring_inits += _token_inits(spec, java_double, f"rb{n}.slot")
        ring_inits.append(f"    rb{n}.reset({spec.delay}); rb{n}_pop = 0.0;")
    partition = schedule.partition()
    members = [
        f"    private static final int N_CPUS = {len(partition)};",
        *(_FIFO_RUNTIME if schedule.buffers else []),
        "",
        "    /* -- one thread per CPU; two barriers bracket every period -- */",
        "    private final java.util.concurrent.CyclicBarrier periodStart =",
        "        new java.util.concurrent.CyclicBarrier(N_CPUS + 1);",
        "    private final java.util.concurrent.CyclicBarrier periodEnd =",
        "        new java.util.concurrent.CyclicBarrier(N_CPUS + 1);",
        "    private boolean started;",
    ]
    threads: List[str] = []
    for cpu, pes in partition.items():
        threads += [
            f"    private void {names.cpu(cpu)}_period() {{",
            *(f"        {names.pe(pe)}();" for pe in pes),
            "    }",
            "",
        ]
    threads += [
        "    private void startThreads() {",
        "        if (started) return;",
        "        started = true;",
        *(
            f'        spawn("{cpu}", this::{names.cpu(cpu)}_period);'
            for cpu in partition
        ),
        "    }",
        "",
        "    private void spawn(String cpu, Runnable period) {",
        "        Thread thread = new Thread(() -> {",
        "            while (true) {",
        "                await(periodStart);",
        "                period.run();",
        "                await(periodEnd);",
        "            }",
        "        }, cpu);",
        "        thread.setDaemon(true);",
        "        thread.start();",
        "    }",
        "",
        "    private static void await(java.util.concurrent.CyclicBarrier b) {",
        "        try { b.await(); } catch (Exception e) {",
        "            throw new IllegalStateException(e);",
        "        }",
        "    }",
        "",
    ]
    intro = [
        f"/* {cls}.java -- multithreaded realization of CAAM "
        f"{schedule.name!r}.",
        " * Generated by repro.codegen; do not edit.",
        " *",
        *_threaded_banner(schedule),
        " */",
    ]
    period = [
        "    startThreads();",
        "    await(periodStart);",
        "    await(periodEnd);",
    ]
    return _java_unit(
        schedule, names, cls, intro, members, lowered, rings, ring_inits,
        threads=threads, period=period,
    )


def _java_main(cls: str) -> List[str]:
    """Hexfloat stdin/stdout driver matching the C differential harness."""
    return [
        "    /* Differential harness: reads 'episodes steps' then one",
        "     * hexfloat stimulus line per step; writes one hexfloat",
        "     * output line per step (same protocol as the C driver). */",
        "    public static void main(String[] argv) throws Exception {",
        "        java.io.BufferedReader in = new java.io.BufferedReader(",
        "            new java.io.InputStreamReader(System.in));",
        "        StringBuilder out = new StringBuilder();",
        '        String[] head = in.readLine().trim().split("\\\\s+");',
        "        int episodes = Integer.parseInt(head[0]);",
        "        int steps = Integer.parseInt(head[1]);",
        "        double[] inputs = new double[N_INPUTS];",
        "        double[] outputs = new double[N_OUTPUTS];",
        f"        {cls} schedule = new {cls}();",
        "        for (int e = 0; e < episodes; ++e) {",
        "            schedule.init();",
        "            for (int s = 0; s < steps; ++s) {",
        "                if (N_INPUTS > 0) {",
        '                    String[] row = in.readLine().trim()'
        '.split("\\\\s+");',
        "                    for (int i = 0; i < N_INPUTS; ++i)",
        "                        inputs[i] = Double.parseDouble(row[i]);",
        "                } else { in.readLine(); }",
        "                schedule.step(inputs, outputs);",
        "                for (int i = 0; i < N_OUTPUTS; ++i) {",
        "                    if (i > 0) out.append(' ');",
        "                    out.append(Double.toHexString(outputs[i]));",
        "                }",
        "                out.append('\\n');",
        "            }",
        "        }",
        "        System.out.print(out);",
        "    }",
    ]

"""Differential checking of generated schedules against the simulator.

Both generated C programs — the sequential driver and the threaded one
(:func:`~repro.codegen.cemit.generate_threaded_c`) — are compiled with
the reference flag set (:data:`CFLAGS` — FP contraction off so no
multiply-add fuses — plus ``-pthread``) and driven over the same
stimulus episodes as ``Simulator(engine="slots")``; output streams must
match **bit for bit** (``struct.pack`` comparison, two NaNs of any
payload count as equal).  All stimulus and output values cross the
process boundary as hexadecimal floats (``float.hex()`` / C ``%la``), so
no bit is ever lost to decimal formatting.

Every check is gated on a working C compiler: :func:`cc_available`
resolves ``$CC`` or ``cc``/``gcc``/``clang`` from PATH, and callers
(pytest via ``skipif``, the zoo harness, CI) skip cleanly when none is
present.
"""

from __future__ import annotations

import os
import shutil
import struct
import subprocess
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..simulink.simulator import Simulator
from . import cemit
from .schedule import CodegenError, StaticSchedule, build_schedule

#: Reference compilation flags.  ``-ffp-contract=off`` is load-bearing:
#: a fused multiply-add rounds once where the Python semantics round
#: twice, which breaks bit-identity on the first Gain-into-Sum chain.
CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off")

#: Wall-clock bound on one generated binary: a threaded program that
#: deadlocks fails the check instead of hanging it.
RUN_TIMEOUT_S = 60

#: The C programs :func:`differential_check` pins, by name.
PROGRAMS = (
    ("sequential", cemit.generate_c),
    ("threaded", cemit.generate_threaded_c),
)


class DifferentialError(Exception):
    """Raised when compilation or execution of the generated C fails."""


def cc_available() -> Optional[str]:
    """Path of a usable C compiler, or ``None``.

    Honors ``$CC`` first, then falls back to ``cc``/``gcc``/``clang``.
    """
    candidates = []
    env = os.environ.get("CC")
    if env:
        candidates.append(env)
    candidates.extend(["cc", "gcc", "clang"])
    for name in candidates:
        found = shutil.which(name)
        if found:
            return found
    return None


@dataclass
class Mismatch:
    """One output sample that differed between C and the simulator."""

    outport: str
    episode: int
    step: int
    expected: float
    actual: float
    #: Which of :data:`PROGRAMS` produced ``actual``.
    program: str = "sequential"

    def __str__(self) -> str:
        return (
            f"{self.outport}[ep{self.episode}][{self.step}]: "
            f"simulator {self.expected!r} != {self.program} "
            f"{self.actual!r}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one model's differential check."""

    model: str
    episodes: int
    steps: int
    samples: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _same(a: float, b: float) -> bool:
    # Bit-exact, except any-NaN == any-NaN (the simulator may canonicalize
    # payloads differently than the C library).
    if a != a and b != b:
        return True
    return _bits(a) == _bits(b)


def compile_c(
    artifacts: Mapping[str, str],
    workdir: str,
    compiler: Optional[str] = None,
) -> str:
    """Compile emitted C ``artifacts`` with the harness; return binary path."""
    compiler = compiler or cc_available()
    if compiler is None:
        raise DifferentialError("no C compiler available")
    c_files: List[str] = []
    for filename, text in artifacts.items():
        path = os.path.join(workdir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        if filename.endswith(".c"):
            c_files.append(path)
    if not c_files:
        raise DifferentialError("no .c artifact to compile")
    binary = os.path.join(workdir, "schedule_bin")
    command = [
        compiler,
        *CFLAGS,
        "-pthread",
        "-DREPRO_CODEGEN_MAIN",
        *c_files,
        "-o",
        binary,
        "-lm",
    ]
    result = subprocess.run(
        command, capture_output=True, text=True, cwd=workdir
    )
    if result.returncode != 0:
        raise DifferentialError(
            f"compilation failed ({' '.join(command)}):\n{result.stderr}"
        )
    return binary


def _stimulus_lines(
    schedule: StaticSchedule,
    episodes: Sequence[Mapping[str, Sequence[float]]],
    steps: int,
) -> str:
    names = [block.name for block in schedule.inports]
    lines = [f"{len(episodes)} {steps}"]
    for episode in episodes:
        for step in range(steps):
            samples = []
            for name in names:
                trace = episode.get(name, ())
                value = float(trace[step]) if step < len(trace) else 0.0
                samples.append(value.hex())
            lines.append(" ".join(samples))
    return "\n".join(lines) + "\n"


def run_binary(
    binary: str,
    schedule: StaticSchedule,
    episodes: Sequence[Mapping[str, Sequence[float]]],
    steps: int,
) -> List[Dict[str, List[float]]]:
    """Drive the compiled harness; outputs per episode keyed by outport."""
    stdin = _stimulus_lines(schedule, episodes, steps)
    try:
        result = subprocess.run(
            [binary],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise DifferentialError(
            f"generated binary still running after {RUN_TIMEOUT_S} s "
            f"(deadlocked?)"
        ) from exc
    if result.returncode != 0:
        raise DifferentialError(
            f"generated binary exited {result.returncode}: "
            f"{result.stderr[:500]}"
        )
    out_names = [block.name for block in schedule.outports]
    lines = result.stdout.split("\n")
    outputs: List[Dict[str, List[float]]] = []
    cursor = 0
    for _ in episodes:
        episode_out: Dict[str, List[float]] = {n: [] for n in out_names}
        for _ in range(steps):
            if cursor >= len(lines):
                raise DifferentialError("generated binary truncated output")
            tokens = lines[cursor].split()
            cursor += 1
            if len(tokens) != len(out_names):
                raise DifferentialError(
                    f"expected {len(out_names)} samples per line, "
                    f"got {len(tokens)}"
                )
            for name, token in zip(out_names, tokens):
                episode_out[name].append(float.fromhex(token))
        outputs.append(episode_out)
    return outputs


def differential_check(
    caam,
    episodes: Sequence[Mapping[str, Sequence[float]]],
    steps: int,
    schedule: Optional[StaticSchedule] = None,
    compiler: Optional[str] = None,
    max_mismatches: int = 10,
) -> DifferentialReport:
    """Compile the generated C for ``caam`` and pin it to the simulator.

    Every program in :data:`PROGRAMS` is compiled and run on the same
    episodes; ``samples`` counts the compared output positions, and a
    position matches only if every program reproduces it.  Raises
    :class:`~repro.codegen.schedule.CodegenError` when the model is
    outside the static backend's domain and :class:`DifferentialError`
    on toolchain trouble; returns a report whose ``ok`` says whether
    every sample of every episode matched bit for bit.
    """
    if schedule is None:
        schedule = build_schedule(caam)
    report = DifferentialReport(
        model=schedule.name, episodes=len(episodes), steps=steps
    )
    reference = Simulator(caam, engine="slots").run_many(steps, list(episodes))
    out_names = [block.name for block in schedule.outports]
    report.samples = len(reference) * len(out_names) * steps
    for program, emit in PROGRAMS:
        with tempfile.TemporaryDirectory(prefix="repro-codegen-") as workdir:
            binary = compile_c(emit(schedule), workdir, compiler)
            actual = run_binary(binary, schedule, episodes, steps)
        for index, (got, want) in enumerate(zip(actual, reference)):
            for name in out_names:
                expected = want.outputs[name]
                produced = got[name]
                for step in range(steps):
                    if _same(expected[step], produced[step]):
                        continue
                    if len(report.mismatches) < max_mismatches:
                        report.mismatches.append(
                            Mismatch(
                                outport=name,
                                episode=index,
                                step=step,
                                expected=expected[step],
                                actual=produced[step],
                                program=program,
                            )
                        )
    return report


__all__ = [
    "CFLAGS",
    "CodegenError",
    "DifferentialError",
    "DifferentialReport",
    "Mismatch",
    "PROGRAMS",
    "RUN_TIMEOUT_S",
    "cc_available",
    "compile_c",
    "differential_check",
    "run_binary",
]

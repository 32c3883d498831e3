"""The threaded C and Java drivers over the static schedule.

The structural checks need no toolchain; the differential checks compile
and run every generated program (skipping without ``cc`` / a JDK) and
pin it bit for bit to ``Simulator(engine="slots")``.
"""

import random
import re
import shutil
import subprocess

import pytest

from repro.apps import didactic, mjpeg, synthetic
from repro.codegen import build_schedule, cc_available, differential_check
from repro.codegen.cemit import generate_threaded_c
from repro.codegen.differential import _same, _stimulus_lines
from repro.codegen.javaemit import generate_threaded_java
from repro.core import synthesize
from repro.simulink.caam import GFIFO, SWFIFO
from repro.simulink.simulator import Simulator
from repro.uml import DeploymentPlan
from repro.zoo import generate_corpus

pytestmark = pytest.mark.codegen

needs_cc = pytest.mark.skipif(cc_available() is None, reason="no C compiler")
needs_java = pytest.mark.skipif(
    shutil.which("javac") is None or shutil.which("java") is None,
    reason="no JDK on PATH",
)

STEPS = 24
EPISODES = 3


def _cases():
    """``(name, caam)`` for the apps with behaviours and the seed-42 zoo."""
    cases = [
        ("didactic", synthesize(didactic.build_model(), behaviors=didactic.behaviors()).caam),
        (
            "synthetic",
            synthesize(
                synthetic.build_model(),
                auto_allocate=True,
                behaviors=synthetic.behaviors(),
            ).caam,
        ),
        # Without behaviours the placeholder S-functions sum their inputs,
        # so synthetic's channels and GFIFOs carry data.
        ("synthetic-placeholders", synthesize(synthetic.build_model(), auto_allocate=True).caam),
        (
            "mjpeg-pipelined",
            synthesize(
                mjpeg.build_model(),
                DeploymentPlan.from_mapping(
                    {t: f"CPU{i}" for i, t in enumerate(mjpeg.THREADS)}
                ),
                behaviors=mjpeg.behaviors(),
            ).caam,
        ),
    ]
    for scenario in generate_corpus(42, 100):
        result = synthesize(
            scenario.model,
            auto_allocate=scenario.params.auto_allocate,
            behaviors=scenario.behaviors,
        )
        cases.append((scenario.name, result.caam))
    return cases


@pytest.fixture(scope="module")
def multi_cpu():
    """Every case whose schedule spans two or more CPUs."""
    found = []
    for name, caam in _cases():
        schedule = build_schedule(caam)
        if len(schedule.partition()) >= 2:
            found.append((name, caam, schedule))
    return found


def _episodes(schedule, seed):
    """``EPISODES`` seeded episodes; about one sample in six is a signed zero."""
    rng = random.Random(seed)
    pool = [-0.0, 0.0, -0.0]
    return [
        {
            inport.name: [
                rng.choice(pool) if rng.random() < 1 / 6 else rng.uniform(-50, 50)
                for _ in range(STEPS)
            ]
            for inport in schedule.inports
        }
        for _ in range(EPISODES)
    ]


class TestStructure:
    def test_corpus_has_multi_cpu_models(self, multi_cpu):
        names = [name for name, _, _ in multi_cpu]
        assert {"didactic", "synthetic", "mjpeg-pipelined"} <= set(names)
        assert sum(name.startswith("zoo_") for name in names) >= 40

    def test_one_thread_function_per_cpu_in_firing_order(self, multi_cpu):
        for name, _, schedule in multi_cpu:
            files = generate_threaded_c(schedule)
            (source,) = [t for f, t in files.items() if f.endswith(".c")]
            threads = re.findall(
                r"static void \*(\w+)_thread\(void \*arg\) \{\n(.*?)\n\}",
                source,
                re.S,
            )
            partition = schedule.partition()
            assert len(threads) == len(partition), name
            for (symbol, body), (cpu, pes) in zip(threads, partition.items()):
                assert symbol.startswith(f"cpu_{cpu}"), name
                calls = re.findall(r"pe_(\w+)_step\(\);", body)
                assert calls == pes, (name, cpu)
            (java,) = generate_threaded_java(schedule).values()
            assert java.count("_period() {") == len(partition), name

    def test_fifo_labels_match_the_inferred_protocols(self, multi_cpu):
        seen = set()
        for name, _, schedule in multi_cpu:
            (source,) = [
                t for f, t in generate_threaded_c(schedule).items()
                if f.endswith(".c")
            ]
            (java,) = generate_threaded_java(schedule).values()
            for spec in schedule.buffers:
                ends = " -> ".join(
                    pe or "<env>" for pe in (spec.producer_pe, spec.consumer_pe)
                )
                if spec.producer_pe and spec.consumer_pe:
                    expected = spec.channel.parameters["Protocol"]
                else:  # the environment end never runs inside a period
                    expected = SWFIFO
                label = f"/* {expected} {ends}: {spec.channel.path}"
                assert label in source, (name, spec.index)
                assert label in java, (name, spec.index)
                seen.add(expected)
        assert seen == {SWFIFO, GFIFO}


@needs_cc
class TestThreadedC:
    def test_threaded_c_matches_the_slot_simulator(self, multi_cpu):
        compiler = cc_available()
        for seed, (name, caam, schedule) in enumerate(multi_cpu):
            report = differential_check(
                caam,
                _episodes(schedule, seed),
                STEPS,
                schedule=schedule,
                compiler=compiler,
            )
            assert report.ok, (name, [str(m) for m in report.mismatches])

    def test_apps_compile_under_strict_warnings(self, multi_cpu, tmp_path):
        compiler = cc_available()
        for name, _, schedule in multi_cpu:
            if name.startswith("zoo_"):
                continue
            files = generate_threaded_c(schedule)
            for filename, text in files.items():
                (tmp_path / filename).write_text(text)
            (unit,) = [f for f in files if f.endswith(".c")]
            subprocess.run(
                [compiler, "-std=c99", "-Wall", "-Werror", "-pthread",
                 "-DREPRO_CODEGEN_MAIN", unit, "-o", "bin", "-lm"],
                cwd=tmp_path, check=True, capture_output=True,
            )


def _run_java(schedule, episodes, workdir):
    ((filename, source),) = generate_threaded_java(schedule).items()
    (workdir / filename).write_text(source)
    subprocess.run(["javac", filename], cwd=workdir, check=True, capture_output=True)
    proc = subprocess.run(
        ["java", "-cp", str(workdir), filename[: -len(".java")]],
        input=_stimulus_lines(schedule, episodes, STEPS),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return proc.stdout.split("\n")


@needs_java
class TestThreadedJava:
    def test_threaded_java_matches_the_slot_simulator(self, multi_cpu, tmp_path):
        zoo = [case for case in multi_cpu if case[0].startswith("zoo_")][:3]
        apps = [case for case in multi_cpu if case[0] in ("didactic", "synthetic")]
        for name, caam, schedule in apps + zoo:
            episodes = _episodes(schedule, seed=7)
            workdir = tmp_path / name
            workdir.mkdir()
            lines = _run_java(schedule, episodes, workdir)
            reference = Simulator(caam, engine="slots").run_many(STEPS, episodes)
            outports = [block.name for block in schedule.outports]
            cursor = 0
            for episode in reference:
                for step in range(STEPS):
                    tokens = lines[cursor].split()
                    cursor += 1
                    assert len(tokens) == len(outports), name
                    for port, token in zip(outports, tokens):
                        want = episode.outputs[port][step]
                        assert _same(want, float.fromhex(token)), (name, port, step)

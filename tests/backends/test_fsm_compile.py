"""Compile the generated FSM sources with a real C compiler and ``javac``.

Covers the seed-42 zoo ``fsm`` slice (each machine lowered with its
declared variables) and the hand-built machine of the digest pins: every
``.c`` must build warning-free as C99, every ``.h`` must stand alone in a
translation unit that only includes it, and every ``.java`` must compile.
"""

from __future__ import annotations

import shutil
import subprocess
from typing import Dict, List

import pytest

from repro.codegen.differential import cc_available
from repro.fsm import Fsm, generate_artifacts
from repro.zoo import build_fsm, generate_corpus

from .test_text_output_digests import _hand_built_fsm

pytestmark = pytest.mark.codegen

ZOO_SEED = 42
ZOO_COUNT = 50


def _machines() -> List[Fsm]:
    machines = [
        build_fsm(spec)
        for scenario in generate_corpus(ZOO_SEED, ZOO_COUNT, families=("fsm",))
        for spec in scenario.params.fsms
    ]
    return machines + [_hand_built_fsm()]


def _write(tmp_path, language: str) -> Dict[str, str]:
    artifacts: Dict[str, str] = {}
    for fsm in _machines():
        for name, source in generate_artifacts(fsm, language).items():
            assert name not in artifacts, f"two machines emit {name}"
            artifacts[name] = source
    for name, source in artifacts.items():
        (tmp_path / name).write_text(source)
    return artifacts


def _compile(command: List[str], cwd) -> None:
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not cc_available(), reason="no C compiler on PATH")
def test_c_sources_and_headers_compile(tmp_path):
    artifacts = _write(tmp_path, "c")
    units = sorted(name for name in artifacts if name.endswith(".c"))
    for header in sorted(name for name in artifacts if name.endswith(".h")):
        unit = f"include_{header[:-2]}.c"
        (tmp_path / unit).write_text(f'#include "{header}"\n')
        units.append(unit)
    assert len(units) == 2 * (ZOO_COUNT + 1)
    _compile([cc_available(), "-std=c99", "-Wall", "-Werror", "-c", *units], tmp_path)


@pytest.mark.skipif(shutil.which("javac") is None, reason="no javac on PATH")
def test_java_sources_compile(tmp_path):
    artifacts = _write(tmp_path, "java")
    assert len(artifacts) == ZOO_COUNT + 1
    _compile(["javac", "-d", "classes", *sorted(artifacts)], tmp_path)

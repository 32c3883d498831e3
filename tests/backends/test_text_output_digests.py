"""Byte-for-byte pins on every text backend's output.

The FSM printers and the multithreaded Java and MPSoC C drivers have no
compiler or simulator behind them in the quick tier-1 run, so their
exact bytes are pinned here: a sha256 per artifact, keyed
``<input>/<backend>/<file>``, over the four case-study apps, a seed-42
zoo slice (every family, plus each zoo state machine with its declared
variables) and one hand-built FSM.  The Simulink back-end's ``.mdl``
and its E-core intermediate (``.caam.xml``) are pinned over the same
inputs, so a printer rewrite that moves a single byte fails here.  Where
generation raises, the exception type and message are pinned instead of
a digest.

Regenerate the stored digests (only for an intended output change) with::

    PYTHONPATH=src python tests/backends/test_text_output_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

import pytest

from repro.apps import crane, didactic, mjpeg, synthetic
from repro.backends import FsmBackend, JavaBackend, SimulinkBackend
from repro.codegen import build_schedule
from repro.codegen.cemit import generate_threaded_c
from repro.core import synthesize
from repro.fsm import Fsm, generate_artifacts
from repro.zoo import build_fsm, generate_corpus

DIGESTS_PATH = Path(__file__).with_name("text_output_digests.json")

#: Scenarios drawn from the seed-42 zoo: five per family.
ZOO_SEED = 42
ZOO_COUNT = 30


def _hand_built_fsm() -> Fsm:
    """Eventless, unguarded and two-statement-action transitions."""
    fsm = Fsm("door controller")
    fsm.add_state("closed", initial=True)
    fsm.add_state("opening")
    fsm.add_state("open")
    fsm.add_state("stuck")
    fsm.add_variable("cycles", 0.0)
    fsm.add_variable("load", 1.5)
    fsm.add_transition(
        "closed", "opening", event="unlock", guard="cycles < 10",
        action="cycles = cycles + 1; load = load * 2",
    )
    fsm.add_transition("opening", "open")
    fsm.add_transition("opening", "stuck", guard="load > 8")
    fsm.add_transition("open", "closed", event="lock", action="load = 1.5")
    return fsm


def _outcome(produce: Callable[[], Dict[str, str]]) -> Dict[str, str]:
    """``{file: sha256}``, or ``{"!raises": "Type: message"}``."""
    try:
        artifacts = produce()
    except Exception as exc:  # noqa: BLE001 - the failure is what is pinned
        return {"!raises": f"{type(exc).__name__}: {exc}"}
    return {
        name: hashlib.sha256(source.encode("utf-8")).hexdigest()
        for name, source in artifacts.items()
    }


def _inputs() -> Iterator[Tuple[str, Callable[[], Dict[str, Dict[str, str]]]]]:
    """``(input id, thunk → {backend: outcome})`` for every pinned input."""
    apps = [
        ("crane", crane, False),
        ("didactic", didactic, False),
        ("mjpeg", mjpeg, False),
        ("synthetic", synthetic, True),
    ]
    for name, app, auto_allocate in apps:
        yield f"app-{name}", lambda app=app, auto=auto_allocate: _model_outputs(
            app.build_model(), app.behaviors(), auto
        )
    for scenario in generate_corpus(ZOO_SEED, ZOO_COUNT):
        yield f"zoo-{scenario.name}", lambda s=scenario: _zoo_outputs(s)
    yield "fsm-door", lambda: {
        f"fsm-{lang}": _outcome(lambda: generate_artifacts(_hand_built_fsm(), lang))
        for lang in ("c", "java")
    }


def _model_outputs(model, behaviors, auto_allocate) -> Dict[str, Dict[str, str]]:
    return {
        "fsm-c": _outcome(lambda: FsmBackend("c").generate(model)),
        "fsm-java": _outcome(lambda: FsmBackend("java").generate(model)),
        "java": _outcome(lambda: JavaBackend().generate(model)),
        "mpsoc": _outcome(
            lambda: generate_threaded_c(
                build_schedule(
                    synthesize(
                        model, auto_allocate=auto_allocate, behaviors=behaviors
                    ).caam
                )
            )
        ),
        "simulink": _outcome(
            lambda: SimulinkBackend(
                auto_allocate=auto_allocate, behaviors=behaviors
            ).generate(model)
        ),
    }


def _zoo_outputs(scenario) -> Dict[str, Dict[str, str]]:
    outputs = _model_outputs(
        scenario.model, scenario.behaviors, scenario.params.auto_allocate
    )
    # The zoo declares machine variables outside the UML model; lower each
    # spec with them so the variable-printing paths are pinned as well.
    for spec in scenario.params.fsms:
        for lang in ("c", "java"):
            outputs[f"spec-{spec.name}-{lang}"] = _outcome(
                lambda spec=spec, lang=lang: generate_artifacts(build_fsm(spec), lang)
            )
    return outputs


def collect() -> Dict[str, Dict[str, Dict[str, str]]]:
    """Every pinned outcome: ``{input: {backend: {file: digest}}}``."""
    return {key: thunk() for key, thunk in _inputs()}


_INPUTS = dict(_inputs())


@pytest.fixture(scope="module")
def stored() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(DIGESTS_PATH.read_text())


def test_every_input_is_pinned(stored):
    assert sorted(stored) == sorted(_INPUTS)


@pytest.mark.parametrize("key", sorted(_INPUTS))
def test_output_matches_stored_digests(key, stored):
    assert _INPUTS[key]() == stored[key]


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")

"""Pins on the static CAAM schedule and its steady-state interval.

For every pinned input this records the makespan, the steady-state
initiation interval and the sha256 of ``(makespan, interval,
[(thread, cpu, start, finish), ...])`` in schedule order, so a change to
the makespan model that moves a single slot fails here.  The inputs are
the four case-study apps (their own deployment plan and the §4.2.3
automatic allocation), a seed-42 zoo slice under seven plans each
(round-robin on one to four CPUs plus three seeded random plans), a
two-thread feedback model (split over two CPUs and co-located) and a
two-thread ``SAPriority`` model.

Regenerate the stored pins (only for an intended schedule change) with::

    PYTHONPATH=src python tests/mpsoc/test_schedule_pins.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.apps import crane, didactic, mjpeg, synthetic
from repro.core import synthesize
from repro.mpsoc import platform_for_caam, schedule_caam, steady_state_interval
from repro.uml import DeploymentPlan, ModelBuilder, is_thread
from repro.zoo import generate_corpus

PINS_PATH = Path(__file__).with_name("schedule_pins.json")

ZOO_SEED = 42
ZOO_COUNT = 80
RANDOM_PLAN_SEEDS = (0, 1, 2)


def _pin(result) -> Dict[str, object]:
    platform = platform_for_caam(result.caam)
    schedule = schedule_caam(result.caam, platform)
    interval = steady_state_interval(result.caam, platform)
    slots = [[t.thread, t.cpu, t.start, t.finish] for t in schedule.tasks]
    payload = json.dumps([schedule.makespan, interval, slots])
    return {
        "makespan": schedule.makespan,
        "interval": interval,
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


def _threads(model) -> List[str]:
    return [i.name for i in model.all_instances() if is_thread(i)]


def _plans(threads: List[str]) -> Iterator[Tuple[str, DeploymentPlan]]:
    for cpus in range(1, 5):
        yield f"rr{cpus}", DeploymentPlan.from_mapping(
            {t: f"CPU{i % cpus}" for i, t in enumerate(threads)}
        )
    for seed in RANDOM_PLAN_SEEDS:
        rng = random.Random(seed)
        yield f"random{seed}", DeploymentPlan.from_mapping(
            {t: f"CPU{rng.randrange(4)}" for t in threads}
        )


def _feedback_model():
    """A ⇄ B: A (two blocks) feeds B, B feeds back into A."""
    b = ModelBuilder("feedback")
    b.thread("A")
    b.thread("B")
    sd = b.interaction("main")
    sd.call("A", "A", "work", result="v")
    sd.call("A", "A", "scale", args=["v"], result="u")
    sd.call("A", "B", "setData", args=["u"])
    sd.call("B", "B", "consume", args=["data"], result="w")
    sd.call("B", "A", "setBack", args=["w"])
    return b.build()


def _priority_model(high: str):
    b = ModelBuilder("prio")
    b.thread("A", priority=9 if high == "A" else 1)
    b.thread("B", priority=9 if high == "B" else 1)
    sd = b.interaction("main")
    sd.call("A", "A", "workA", result="x")
    sd.call("B", "B", "workB", result="y")
    return b.build()


def _inputs() -> Iterator[Tuple[str, Callable[[], Dict[str, Dict[str, object]]]]]:
    """``(input id, thunk → {plan label: pin})`` for every pinned input."""
    for name, app in (
        ("crane", crane),
        ("didactic", didactic),
        ("mjpeg", mjpeg),
        ("synthetic", synthetic),
    ):
        yield f"app-{name}", lambda app=app: {
            "explicit": _pin(synthesize(app.build_model())),
            "auto": _pin(synthesize(app.build_model(), auto_allocate=True)),
        }
    for scenario in generate_corpus(ZOO_SEED, ZOO_COUNT):
        yield f"zoo-{scenario.name}", lambda s=scenario: {
            label: _pin(synthesize(s.model, plan))
            for label, plan in _plans(_threads(s.model))
        }
    yield "feedback", lambda: {
        "split": _pin(
            synthesize(
                _feedback_model(),
                DeploymentPlan.from_mapping({"A": "CPU1", "B": "CPU2"}),
            )
        ),
        "colocated": _pin(
            synthesize(
                _feedback_model(),
                DeploymentPlan.from_mapping({"A": "CPU1", "B": "CPU1"}),
            )
        ),
    }
    yield "priority", lambda: {
        f"high-{high}": _pin(
            synthesize(
                _priority_model(high),
                DeploymentPlan.from_mapping({"A": "C", "B": "C"}),
            )
        )
        for high in ("A", "B")
    }


def collect() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Every pin: ``{input: {plan label: pin}}``."""
    return {key: thunk() for key, thunk in _inputs()}


_INPUTS = dict(_inputs())


@pytest.fixture(scope="module")
def stored() -> Dict[str, Dict[str, Dict[str, object]]]:
    return json.loads(PINS_PATH.read_text())


def test_every_input_is_pinned(stored):
    assert sorted(stored) == sorted(_INPUTS)


@pytest.mark.parametrize("key", sorted(_INPUTS))
def test_schedule_matches_stored_pins(key, stored):
    assert _INPUTS[key]() == stored[key]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")

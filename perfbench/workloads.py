"""Seeded job lists for the two ``repro serve`` workloads.

A workload is a list of warm-up jobs (run before the timed window, on
every boot) and a list of timed jobs.  Both are pure functions of the
workload name, the seed and the job count: job ``i`` depends only on
``(seed, i)``, so a shorter run replays a prefix of a longer one.  The
server only ever sees the generated XMI; the seed never leaves this
process.

See ``README.md`` next to this file for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.apps import crane, mjpeg, synthetic
from repro.core.flow import synthesize
from repro.server.jobs import JobSpec
from repro.uml.xmi import to_xmi_string
from repro.zoo.generator import (
    FAMILIES,
    Scenario,
    build_scenario,
    draw_params,
    generate_scenario,
    stimuli_for,
)
from repro.zoo.workload import scenario_job_spec

#: Seed whose artifacts are pinned by ``golden.json``.
DEFAULT_SEED = 0
#: Run length ``BENCHMARK.json`` asks for; ``golden.json`` covers the
#: job lists of this length.
DEFAULT_SECONDS = 30

#: Model sources synth-cold cycles through: the six zoo families, then
#: the paper's case studies under a per-job name (a fresh cache key).
COLD_SOURCES = FAMILIES + ("crane", "mjpeg", "synthetic")
_APPS = {
    "crane": crane.build_model,
    "mjpeg": mjpeg.build_model,
    "synthetic": synthetic.build_model,
}

#: verify-warm: models in the working set (two cache entries each, so
#: 48 of the cache's 64), the candidates drawn per family to pick them
#: from, their largest thread count, the job kinds in
#: their fixed interleaving, and batch episodes per simulate job.  The
#: thread cap keeps the rare 7-12-thread models out, so a seed changes
#: which models run, not how much work they are; it also keeps every
#: ``explore`` job exhaustive (at most Bell(6) = 203 candidates through
#: the batched estimator) and the size of the other kinds.  Five kinds
#: in equal shares put the median and the 90th percentile inside a
#: kind's band of latencies, not on the edge between two kinds.
WORKING_SET = 24
WARM_POOL = 16
WARM_MAX_THREADS = 6
WARM_KINDS = ("codegen", "analyze", "simulate", "synthesize", "explore")
PRIMING_KINDS = ("synthesize", "analyze")
SIM_EPISODES = 16

#: Warm-up models index from here, so they never share a model (or a
#: cache key) with a timed job.
WARMUP_BASE = 1_000_000


@dataclass(frozen=True)
class Workload:
    """How one workload is driven."""

    name: str
    #: Fixed period of the client's ``GET /jobs/<id>`` polling.
    poll_s: float
    #: Timed jobs per second of ``--seconds``: the job count is fixed by
    #: the run length, never by how fast the server happens to be.
    jobs_per_second: float

    def job_count(self, seconds: float) -> int:
        return max(1, round(seconds * self.jobs_per_second))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("synth-cold", poll_s=0.002, jobs_per_second=60),
        Workload("verify-warm", poll_s=0.002, jobs_per_second=100),
    )
}


@dataclass
class Job:
    """One job the client submits, plus what the oracle needs."""

    index: int
    spec: JobSpec
    #: The ``POST /jobs`` request body.
    body: bytes = field(init=False)
    #: SHA-256 of the body: equal keys give equal artifacts.
    key: str = field(init=False)

    def __post_init__(self) -> None:
        self.body = json.dumps(self.spec.to_dict(), sort_keys=True).encode()
        self.key = hashlib.sha256(self.body).hexdigest()

    @property
    def kind(self) -> str:
        return self.spec.kind


@dataclass
class Plan:
    """A workload's warm-up and timed job lists for one seed."""

    workload: Workload
    seed: int
    warmup: List[Job]
    timed: List[Job]

    def digest(self) -> str:
        """SHA-256 over the timed job specs, in order."""
        hasher = hashlib.sha256()
        for job in self.timed:
            hasher.update(job.key.encode())
        return hasher.hexdigest()


def _root_inports(caam) -> List[str]:
    """Root Inport names in stimulus (Port-parameter) order."""
    inports = sorted(
        (b for b in caam.root.blocks if b.block_type == "Inport"),
        key=lambda b: int(b.parameters.get("Port", 0)),
    )
    return [b.name for b in inports]


def _candidates(seed: int, family: str) -> List[Scenario]:
    """The first ``WARM_POOL`` scenarios of ``family`` in the seed's zoo
    stream whose task graphs have at most ``WARM_MAX_THREADS`` threads."""
    found: List[Scenario] = []
    index = 0
    while len(found) < WARM_POOL:
        params = draw_params(seed, index, family)
        index += 1
        if len(params.threads) <= WARM_MAX_THREADS:
            found.append(build_scenario(params))
    return found


# -- synth-cold ------------------------------------------------------------


def _cold_job(seed: int, index: int) -> JobSpec:
    source = COLD_SOURCES[index % len(COLD_SOURCES)]
    if source in _APPS:
        return JobSpec(
            kind="synthesize",
            model_xmi=to_xmi_string(_APPS[source]()),
            options={"use_cache": True, "name": f"{source}_{seed}_{index}"},
        )
    spec = scenario_job_spec(generate_scenario(seed, index, source))
    return dataclasses.replace(
        spec, options={**spec.options, "use_cache": True}
    )


def _synth_cold(seed: int, count: int) -> Tuple[List[JobSpec], List[JobSpec]]:
    warmup = [_cold_job(seed, WARMUP_BASE + 1 + i) for i in range(4)]
    return warmup, [_cold_job(seed, i) for i in range(count)]


# -- verify-warm -----------------------------------------------------------


def _warm_specs(scenario: Scenario) -> Dict[str, JobSpec]:
    """The five job kinds over one working-set model.

    Every kind but ``analyze`` and ``explore`` synthesizes with the same
    options, so the model holds two cache entries (``analyze``
    synthesizes unvalidated; ``explore`` builds its task graph straight
    from the model).
    """
    xmi = to_xmi_string(scenario.model)
    caam = synthesize(scenario.model).caam
    params = dataclasses.replace(scenario.params, episodes=SIM_EPISODES)
    options = {
        "codegen": {"languages": ["c", "java"], "use_cache": True},
        "analyze": {"use_cache": True},
        "simulate": {
            "use_cache": True,
            "steps": params.steps,
            "stimuli": stimuli_for(params, _root_inports(caam)),
        },
        "synthesize": {"use_cache": True},
        "explore": {},
    }
    return {
        kind: JobSpec(kind=kind, model_xmi=xmi, options=options[kind])
        for kind in WARM_KINDS
    }


def _working_set(seed: int) -> List[Scenario]:
    """``WORKING_SET`` models, the same share from each family.

    Each family's models sit at evenly spaced ranks, by XMI size, of
    ``WARM_POOL`` candidates, so a seed changes which models run but
    hardly how large they are on average.  Families rotate.
    """
    per_family = WORKING_SET // len(FAMILIES)
    picked = []
    for family in FAMILIES:
        pool = sorted(
            _candidates(seed, family),
            key=lambda scenario: (
                len(to_xmi_string(scenario.model)),
                scenario.name,
            ),
        )
        picked.append(
            [
                pool[(2 * k + 1) * WARM_POOL // (2 * per_family)]
                for k in range(per_family)
            ]
        )
    return [scenario for rank in zip(*picked) for scenario in rank]


def _verify_warm(seed: int, count: int) -> Tuple[List[JobSpec], List[JobSpec]]:
    models = [_warm_specs(scenario) for scenario in _working_set(seed)]
    # Priming stores both cache entries of every model; the other kinds
    # reuse the synthesize entry.
    warmup = [specs[kind] for specs in models for kind in PRIMING_KINDS]
    timed = [
        models[(i // len(WARM_KINDS)) % WORKING_SET][
            WARM_KINDS[i % len(WARM_KINDS)]
        ]
        for i in range(count)
    ]
    return warmup, timed


_BUILDERS = {
    "synth-cold": _synth_cold,
    "verify-warm": _verify_warm,
}


def _every_kind(seed: int) -> List[JobSpec]:
    """One job of each kind on a warm-up model of its own.

    Every workload's warm-up starts with these, so every lazily imported
    module is loaded before the timed window, and every layer the traced
    replay times has at least one call on every workload.
    """
    scenario = generate_scenario(seed, WARMUP_BASE, "fanout")
    return list(_warm_specs(scenario).values())


def build(name: str, seed: int, count: int) -> Plan:
    """The job lists of workload ``name`` for ``seed``, ``count`` timed."""
    warmup, timed = _BUILDERS[name](seed, count)
    warmup = _every_kind(seed) + warmup
    return Plan(
        workload=WORKLOADS[name],
        seed=seed,
        warmup=[Job(-1 - i, spec) for i, spec in enumerate(warmup)],
        timed=[Job(i, spec) for i, spec in enumerate(timed)],
    )

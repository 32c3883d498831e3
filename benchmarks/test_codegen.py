"""Static-schedule backend throughput over the zoo corpus.

The backend lowers every corpus CAAM to a PASS and emits C + Java with a
hash-pinned traceability manifest; this benchmark reports models/sec for
both stages and — when a C compiler is present — pins the first few
models bit-for-bit against the slot engine.
"""

import time

import pytest

from repro.codegen import (
    build_schedule,
    cc_available,
    differential_check,
    generate,
    verify_manifest,
)
from repro.codegen.trace import flatten_artifacts
from repro.core import synthesize
from repro.zoo import generate_corpus
from repro.zoo.generator import stimuli_for

#: Fixed-seed corpus the codegen throughput benchmark sweeps, and how
#: many of those models get the expensive compile-and-pin differential.
CODEGEN_SEED = 42
CODEGEN_COUNT = 30
CODEGEN_DIFF_COUNT = 5


@pytest.fixture(scope="module")
def codegen_bench():
    """Schedule, emit and verify every corpus model; time both stages.

    Synthesis is done up front (the backend is the unit under test);
    every model is scheduled and emitted to C and Java, every manifest is
    hash-verified, and — when a C compiler is available — the first few
    models also run the full compile-and-pin differential against the
    slot engine.
    """
    synthesized = []
    for scenario in generate_corpus(CODEGEN_SEED, CODEGEN_COUNT):
        result = synthesize(
            scenario.model,
            auto_allocate=scenario.params.auto_allocate,
            behaviors=scenario.behaviors,
        )
        synthesized.append((scenario, result))

    start = time.perf_counter()
    schedules = [
        (scenario, result, build_schedule(result.caam))
        for scenario, result in synthesized
    ]
    schedule_s = time.perf_counter() - start

    buffers = 0
    records = 0
    verified = True
    start = time.perf_counter()
    generated = []
    for scenario, result, schedule in schedules:
        run = generate(
            result.caam,
            languages=("c", "java"),
            uml_trace=result.mapping.context.trace,
            schedule=schedule,
        )
        generated.append((scenario, result, run))
        buffers += len(schedule.buffers)
        records += len(run.manifest["records"])
        if verify_manifest(run.manifest, flatten_artifacts(run.artifacts)):
            verified = False
    emit_s = time.perf_counter() - start

    compiler = cc_available()
    checked = identical = 0
    if compiler:
        for scenario, result, run in generated[:CODEGEN_DIFF_COUNT]:
            params = scenario.params
            inports = [b.name for b in run.schedule.inports]
            episodes = stimuli_for(params, inports)
            diff = differential_check(
                result.caam, episodes, params.steps, schedule=run.schedule
            )
            checked += 1
            if diff.ok:
                identical += 1

    return {
        "corpus_seed": CODEGEN_SEED,
        "corpus_models": CODEGEN_COUNT,
        "models_per_sec_scheduled": CODEGEN_COUNT / schedule_s,
        "models_per_sec_emitted": CODEGEN_COUNT / emit_s,
        "buffers": buffers,
        "manifest_records": records,
        "manifests_verified": verified,
        "differential": {
            "checked": checked,
            "bit_identical": identical,
            "compiler": compiler,
        },
    }


def test_codegen_the_zoo(codegen_bench, paper_report):
    stats = codegen_bench
    assert stats["corpus_seed"] == CODEGEN_SEED
    assert stats["corpus_models"] == CODEGEN_COUNT
    assert stats["models_per_sec_scheduled"] > 0
    assert stats["models_per_sec_emitted"] > 0
    # Every generated manifest hash-verified against its artifacts.
    assert stats["manifests_verified"]
    # With a compiler on PATH, every checked model was bit-identical.
    differential = stats["differential"]
    if differential["compiler"]:
        assert differential["checked"] == CODEGEN_DIFF_COUNT
        assert differential["bit_identical"] == differential["checked"]

    diff_cell = (
        f"{differential['bit_identical']}/{differential['checked']} "
        f"bit-identical"
        if differential["compiler"]
        else "skipped (no cc)"
    )
    paper_report(
        f"E8: codegen the zoo ({CODEGEN_COUNT} models, seed "
        f"{CODEGEN_SEED})",
        [
            (
                "PASS scheduling",
                "n/a (new backend)",
                f"{stats['models_per_sec_scheduled']:.0f} models/s",
            ),
            (
                "C+Java emission",
                "n/a (new backend)",
                f"{stats['models_per_sec_emitted']:.0f} models/s",
            ),
            ("ring buffers", "-", f"{stats['buffers']}"),
            ("manifest records", "-", f"{stats['manifest_records']}"),
            ("manifests verified", "all", "all" if stats["manifests_verified"] else "FAILED"),
            ("differential", "bit-identical", diff_cell),
        ],
    )

"""Static-analyzer throughput over the zoo corpus and the case studies.

The analyzer is the lint gate every model in the zoo sweep passes
through, so its cost per model matters: this benchmark reports models/sec
for the full five-pass pipeline on a fixed-seed corpus plus the per-pass
wall-time breakdown.
"""

import time

import pytest

from repro import obs
from repro.analysis import analyze, analyze_synthesized, pass_names
from repro.apps import crane
from repro.core import synthesize
from repro.zoo import generate_corpus

#: Fixed-seed corpus the analyzer throughput benchmark sweeps.
ANALYSIS_SEED = 42
ANALYSIS_COUNT = 30


@pytest.fixture(scope="module")
def analysis_bench():
    """Analyze crane and every corpus model; time the passes.

    Synthesis is done up front (the analyzer is the unit under test, not
    the flow); per-pass wall time comes from the ``analysis.pass.*`` obs
    timers, the ones any enabled recorder sees.
    """
    recorder = obs.Recorder()
    with obs.use(recorder):
        start = time.perf_counter()
        crane_report = analyze_synthesized(crane.build_model())
        crane_s = time.perf_counter() - start

        pairs = []
        for scenario in generate_corpus(ANALYSIS_SEED, ANALYSIS_COUNT):
            result = synthesize(
                scenario.model,
                auto_allocate=scenario.params.auto_allocate,
                behaviors=scenario.behaviors,
            )
            pairs.append((scenario, result.caam))
        diagnostics = 0
        errors = 0
        start = time.perf_counter()
        for scenario, caam in pairs:
            report = analyze(
                scenario.model, caam, subject=scenario.params.name
            )
            diagnostics += len(report.diagnostics)
            errors += len(report.at_or_above("error"))
        corpus_s = time.perf_counter() - start

    passes = {}
    for name in pass_names():
        stat = recorder.metrics.timer_stat(f"analysis.pass.{name}")
        if stat is not None:
            passes[name] = {"calls": stat.count, "total_s": stat.total}
    return {
        "corpus_seed": ANALYSIS_SEED,
        "corpus_models": ANALYSIS_COUNT,
        "models_per_sec": ANALYSIS_COUNT / corpus_s,
        "diagnostics": diagnostics,
        "error_diagnostics": errors,
        "crane_analyze_s": crane_s,
        "crane_clean": crane_report.clean,
        "passes": passes,
    }


def test_analyze_the_zoo(analysis_bench, paper_report):
    stats = analysis_bench
    assert stats["corpus_seed"] == ANALYSIS_SEED
    assert stats["corpus_models"] == ANALYSIS_COUNT
    assert stats["models_per_sec"] > 0
    # The corpus-wide lint gate: generated models carry no error-severity
    # findings, and crane is fully clean.
    assert stats["error_diagnostics"] == 0
    assert stats["crane_clean"]
    # Every registered pass ran on every model (plus crane).
    for name in ("structure", "channels", "fsm", "sdf", "dataflow"):
        assert stats["passes"][name]["calls"] >= ANALYSIS_COUNT

    slowest = max(
        stats["passes"], key=lambda name: stats["passes"][name]["total_s"]
    )
    paper_report(
        f"E7: analyze the zoo ({ANALYSIS_COUNT} models, seed "
        f"{ANALYSIS_SEED})",
        [
            (
                "five-pass analyze",
                "n/a (new tooling)",
                f"{stats['models_per_sec']:.0f} models/s",
            ),
            ("diagnostics", "warnings/notes only", f"{stats['diagnostics']}"),
            ("error findings", "0", f"{stats['error_diagnostics']}"),
            (
                "crane analyze",
                "clean",
                f"{stats['crane_analyze_s'] * 1000:.1f} ms",
            ),
            (
                "slowest pass",
                "-",
                f"{slowest} "
                f"({stats['passes'][slowest]['total_s'] * 1000:.0f} ms total)",
            ),
        ],
    )

"""Performance characterization of the dataflow simulator.

Not a paper figure — this documents the substrate's execution speed so
downstream users can size their runs: steps/second on the crane CAAM and
on the synthetic 12-thread CAAM, for both the slot-compiled engine (the
default) and the reference interpreter it is verified against.
"""

import time

import pytest

from repro.apps import crane, synthetic
from repro.core import synthesize
from repro.simulink import ENGINE_REFERENCE, ENGINE_SLOTS, Simulator


@pytest.fixture(scope="module")
def crane_caam():
    return synthesize(crane.build_model(), behaviors=crane.behaviors()).caam


@pytest.fixture(scope="module")
def synthetic_caam():
    return synthesize(
        synthetic.build_model(), auto_allocate=True,
        behaviors=synthetic.behaviors(),
    ).caam


def test_simulator_throughput_crane(benchmark, crane_caam, paper_report):
    simulator = Simulator(crane_caam)
    stimulus = {
        "In1": [0.0] * 100, "In2": [0.0] * 100, "In3": [5.0] * 100
    }

    def run_100_steps():
        simulator.reset()
        return simulator.run(100, inputs=stimulus)

    trace = benchmark(run_100_steps)
    assert trace.steps == 100
    blocks = crane_caam.count_blocks()
    paper_report(
        "simulator throughput (crane, per 100 steps)",
        [
            ("blocks", "n/a", f"{blocks}"),
            ("steps", "n/a", "100 per round"),
        ],
    )


def test_simulator_throughput_synthetic(benchmark, synthetic_caam, paper_report):
    simulator = Simulator(synthetic_caam)

    def run_100_steps():
        simulator.reset()
        return simulator.run(100)

    trace = benchmark(run_100_steps)
    assert trace.steps == 100
    paper_report(
        "simulator throughput (synthetic 12-thread, per 100 steps)",
        [("blocks", "n/a", f"{synthetic_caam.count_blocks()}")],
    )


def test_reference_engine_throughput_crane(benchmark, crane_caam):
    simulator = Simulator(crane_caam, engine=ENGINE_REFERENCE)
    stimulus = {
        "In1": [0.0] * 100, "In2": [0.0] * 100, "In3": [5.0] * 100
    }

    def run_100_steps():
        simulator.reset()
        return simulator.run(100, inputs=stimulus)

    trace = benchmark(run_100_steps)
    assert trace.steps == 100


#: Per-CAAM 500-step stimulus for the slots-vs-reference gate (synthetic
#: has no inports).
ENGINE_GATE_STIMULI = {
    "crane": {"In1": [0.0] * 500, "In2": [0.0] * 500, "In3": [5.0] * 500},
    "synthetic": None,
}


@pytest.mark.parametrize("workload", sorted(ENGINE_GATE_STIMULI))
def test_slot_engine_not_slower_than_reference(
    workload, request, paper_report
):
    """The perf-smoke gate: the compiled engine must beat the interpreter.

    Timed manually (best of 3) rather than through pytest-benchmark so one
    test can compare both engines and fail CI on a regression; the results
    are also asserted bit-identical, making this a one-stop smoke test.
    """
    caam = request.getfixturevalue(f"{workload}_caam")
    stimulus = ENGINE_GATE_STIMULI[workload]

    def steps_per_sec(engine):
        simulator = Simulator(caam, engine=engine)
        best = float("inf")
        for _ in range(3):
            simulator.reset()
            start = time.perf_counter()
            trace = simulator.run(500, inputs=stimulus)
            best = min(best, time.perf_counter() - start)
        return 500 / best, trace

    slots_sps, slots_trace = steps_per_sec(ENGINE_SLOTS)
    reference_sps, reference_trace = steps_per_sec(ENGINE_REFERENCE)
    assert slots_trace.to_csv() == reference_trace.to_csv()
    assert slots_sps >= reference_sps, (
        f"slot engine regressed on {workload}: {slots_sps:.0f} steps/s "
        f"vs reference {reference_sps:.0f} steps/s"
    )
    paper_report(
        f"slot-compiled vs reference engine ({workload}, 500 steps)",
        [
            ("slots steps/s", "n/a", f"{slots_sps:,.0f}"),
            ("reference steps/s", "n/a", f"{reference_sps:,.0f}"),
            ("speedup", "n/a", f"{slots_sps / reference_sps:.2f}x"),
        ],
    )


def test_batch_engine_10x_looped_at_512(crane_caam, paper_report):
    """The perf-smoke gate for the vectorized batch engine.

    At batch 512 the ``(episodes, slots)`` ndarray kernels must deliver at
    least 10× the looped scalar engine's aggregate steps/sec — the lever
    the DSE/zoo sweeps rely on — and the episodes must stay byte-identical
    (exactness first, speed second).
    """
    pytest.importorskip("numpy")
    import os

    from repro.simulink import ENGINE_BATCH
    from repro.simulink.batch import BATCH_THRESHOLD_ENV

    steps, size = 50, 512
    stimuli = [{"In3": [5.0] * steps} for _ in range(size)]

    def steps_per_sec(engine, env=None):
        saved = os.environ.get(BATCH_THRESHOLD_ENV)
        if env is not None:
            os.environ[BATCH_THRESHOLD_ENV] = env
        try:
            simulator = Simulator(crane_caam, engine=engine)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                episodes = simulator.run_many(steps, stimuli)
                best = min(best, time.perf_counter() - start)
        finally:
            if saved is None:
                os.environ.pop(BATCH_THRESHOLD_ENV, None)
            else:
                os.environ[BATCH_THRESHOLD_ENV] = saved
        return (steps * size) / best, episodes

    looped_sps, looped = steps_per_sec(ENGINE_SLOTS, env=str(10**9))
    batched_sps, batched = steps_per_sec(ENGINE_BATCH)
    assert [r.to_csv() for r in batched] == [r.to_csv() for r in looped]
    speedup = batched_sps / looped_sps
    assert speedup >= 10.0, (
        f"batch engine below the 10x gate at batch {size}: "
        f"{batched_sps:,.0f} steps/s vs looped {looped_sps:,.0f} "
        f"({speedup:.1f}x)"
    )
    paper_report(
        f"batched vs looped run_many (crane, {size}x{steps} steps)",
        [
            ("looped steps/s", "n/a", f"{looped_sps:,.0f}"),
            ("batched steps/s", "n/a", f"{batched_sps:,.0f}"),
            ("speedup", "n/a", f"{speedup:.1f}x"),
        ],
    )


def test_run_many_amortizes_compilation(benchmark, crane_caam):
    simulator = Simulator(crane_caam, engine=ENGINE_SLOTS)
    stimuli = [{"In3": [5.0] * 100} for _ in range(5)]

    def run_batch():
        return simulator.run_many(100, stimuli)

    episodes = benchmark(run_batch)
    assert len(episodes) == 5


def test_fsm_event_throughput(benchmark):
    from repro.fsm.model import Fsm
    from repro.fsm.simulator import FsmSimulator

    fsm = Fsm("bench")
    fsm.add_state("idle")
    fsm.add_state("busy")
    fsm.add_variable("n", 0.0)
    fsm.add_transition(
        "idle", "busy", event="go", guard="n < 1e9", action="n = n + 1"
    )
    fsm.add_transition("busy", "idle", event="done")
    simulator = FsmSimulator(fsm)
    events = ["go", "done"] * 500

    def run_events():
        return simulator.run(events)

    states = benchmark(run_events)
    assert states[-1] == "idle"

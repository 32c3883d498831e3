#!/usr/bin/env python3
"""Motion-JPEG decoder pipeline — the downstream flow's workload.

The paper feeds its generated CAAMs to the "Simulink-based MPSoC design
flow" whose published case study is a Motion-JPEG decoder (Huang et al.,
DAC 2007).  This example plays that story end to end on a simplified but
bit-true decoder:

1. model the five-stage decoder pipeline in UML (no deployment diagram);
2. synthesize the CAAM with automatic thread allocation;
3. decode an encoded test pattern *through the generated model* and check
   pixel-perfect reconstruction;
4. sweep the CPU count and print the steady-state throughput curve.

Run:  python examples/mjpeg_decoder.py
"""

from __future__ import annotations

from repro.apps import mjpeg
from repro.core import synthesize
from repro.codegen import build_schedule
from repro.codegen.cemit import generate_threaded_c
from repro.mpsoc import platform_for_caam, steady_state_interval
from repro.simulink import Simulator
from repro.uml import DeploymentPlan


def main() -> None:
    model = mjpeg.build_model()

    print("=== 1. Synthesize the decoder CAAM (automatic allocation) ===")
    result = synthesize(
        model, auto_allocate=True, behaviors=mjpeg.behaviors()
    )
    print(f"  {result.summary}")
    chain = " -> ".join(mjpeg.THREADS)
    print(f"  pipeline: {chain}")

    print("\n=== 2. Bit-true decode through the generated model ===")
    pixels = mjpeg.sample_pixels(12)
    stream = mjpeg.encode(pixels)
    simulator = Simulator(result.caam)
    trace = simulator.run(len(stream), inputs={"In1": stream})
    decoded = trace.output("Out1")
    print(f"  original pixels: {[int(p) for p in pixels]}")
    print(f"  decoded pixels:  {[int(p) for p in decoded]}")
    print(f"  pixel-perfect:   {decoded == pixels}")

    print("\n=== 3. Throughput vs CPU count (DAC'07-style sweep) ===")
    print(f"  {'CPUs':>5} {'cycles/sample':>15} {'speedup':>9}")
    base = None
    for cpus in (1, 2, 3, 5):
        plan = DeploymentPlan.from_mapping(
            {t: f"CPU{i % cpus}" for i, t in enumerate(mjpeg.THREADS)}
        )
        swept = synthesize(model, plan, behaviors=mjpeg.behaviors())
        platform = platform_for_caam(swept.caam)
        interval = steady_state_interval(swept.caam, platform)
        base = base or interval
        print(f"  {cpus:>5} {interval:>15g} {base / interval:>8.2f}x")

    print("\n=== 4. Multithreaded C for the fully pipelined mapping ===")
    plan = DeploymentPlan.from_mapping(
        {t: f"CPU{i}" for i, t in enumerate(mjpeg.THREADS)}
    )
    pipelined = synthesize(model, plan, behaviors=mjpeg.behaviors())
    source = generate_threaded_c(build_schedule(pipelined.caam))["mjpeg_threads.c"]
    print("  CPU1 (the VLD stage):")
    lines = source.splitlines()
    start = lines.index("static void pe_Tvld_step(void) {")
    for line in lines[start : lines.index("}", start) + 1]:
        print(f"    {line}")


if __name__ == "__main__":
    main()

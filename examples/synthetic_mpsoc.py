#!/usr/bin/env python3
"""Synthetic 12-thread example (paper §5.2): automatic thread allocation.

Reproduces Figs. 6-8: a sequence diagram describing twelve communicating
threads is turned into a task graph, clustered with linear clustering
(Gerasoulis & Yang), and synthesized — with no deployment diagram — into a
four-CPU Simulink CAAM whose top level matches the paper's Fig. 8.  The
example then compares the automatic allocation against round-robin and
random baselines on the MPSoC cost model, and prints the generated
multithreaded C: one POSIX thread per CPU.

Run:  python examples/synthetic_mpsoc.py
"""

from __future__ import annotations

from repro.apps import synthetic
from repro.core import (
    allocate_from_model,
    inter_cluster_communication,
    random_clusters,
    round_robin_clusters,
    synthesize,
)
from repro.codegen import build_schedule
from repro.codegen.cemit import generate_threaded_c
from repro.mpsoc import communication_cost, platform_for_caam, schedule_caam


def main() -> None:
    model = synthetic.build_model()

    print("=== Task graph extracted from the sequence diagram (Fig. 7a) ===")
    allocation = allocate_from_model(model)
    graph = allocation.graph
    for (src, dst), weight in sorted(graph.edges.items()):
        print(f"  {src} -> {dst}: {weight:g} bits/iteration")

    print("\n=== Linear clustering result (Fig. 7b) ===")
    print(f"  {allocation.summary()}")
    print(f"  critical path: {' -> '.join(allocation.clustering.critical_path)}")
    expected = set(synthetic.EXPECTED_CLUSTERS)
    actual = set(allocation.clustering.as_sets())
    print(f"  matches the paper's grouping: {expected == actual}")

    print("\n=== Baseline comparison (communication crossing CPUs) ===")
    cpu_count = len(allocation.plan.cpus)
    for label, clusters in [
        ("linear clustering", allocation.clustering.clusters),
        ("round-robin", round_robin_clusters(graph, cpu_count)),
        ("random (seed 1)", random_clusters(graph, cpu_count, seed=1)),
    ]:
        traffic = inter_cluster_communication(graph, clusters)
        print(f"  {label:>18}: {traffic:8g} bits/iteration inter-CPU")

    print("\n=== Synthesized CAAM top level (Fig. 8) ===")
    result = synthesize(
        model, auto_allocate=True, behaviors=synthetic.behaviors()
    )
    print(f"  {result.summary}")
    for channel in result.caam.inter_cpu_channels():
        print(f"  inter-CPU channel {channel.name} (GFIFO)")

    print("\n=== MPSoC cost model ===")
    platform = platform_for_caam(result.caam)
    print(f"  {communication_cost(result.caam, platform)}")
    schedule = schedule_caam(result.caam, platform)
    print(f"  makespan: {schedule.makespan:g} cycles")
    print("  schedule:")
    for line in schedule.gantt().splitlines():
        print(f"    {line}")

    static = build_schedule(result.caam)
    cpu = next(iter(static.partition()))
    print(f"\n=== Generated multithreaded C: the {cpu} thread ===")
    lines = generate_threaded_c(static)["synthetic_threads.c"].splitlines()
    start = lines.index(f"static void *cpu_{cpu}_thread(void *arg) {{")
    for line in lines[start : lines.index("}", start) + 1]:
        print(f"  {line}")


if __name__ == "__main__":
    main()

"""XMI in, artifact out: the ``repro serve`` benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth-cold --seed 0 --seconds 20 --trace 0

A run builds the workload's seeded job list, executes it in process for
the oracle, boots a fresh ``repro serve --port 0`` several times (the
median boot is ``setup_s``) and drives the last one in a closed loop.
``--trace 1`` adds a client-traced loop and an in-process replay through
every layer, and reports the per-layer metrics instead.  The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated run unwinds normally, so every server it started is
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The client and every server it starts share one CPU (the highest
    # this process may use; interrupts favour the lowest).  In a closed
    # loop with one job in flight they mostly take turns, and on a
    # shared 2-vCPU host, spreading their threads over both CPUs added
    # cross-CPU hand-offs and steal from either CPU: in four interleaved
    # pairs of verify-warm runs, unpinned runs used 7-16% more server CPU
    # per job and completed 2-17% fewer jobs per second.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # The server inherits this environment: no REPRO_* knob may change
    # what either side computes.
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]

    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"pick one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = workloads.DEFAULT_SECONDS
    result = bench.run(
        args.workload, args.seed, seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``golden.json``: artifact digests for the default seed.

Run from the repository root after an intended output change::

    python3 perfbench/make_golden.py

Each workload records how many timed jobs it covers and maps a prefix
of every covered job spec's SHA-256 to a prefix of the SHA-256 of the
artifact the in-process executor returns for it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        plan = workloads.build(
            name,
            workloads.DEFAULT_SEED,
            workload.job_count(workloads.DEFAULT_SECONDS),
        )
        check = oracle.Oracle(plan)
        check.prepare()
        if check.problems:
            print(f"{name}: {sorted(check.problems.values())[0]}")
            return 1
        artifacts = {
            job.key[: oracle.GOLDEN_CHARS]: oracle.short_sha256(
                check.expected[job.key]
            )
            for job in plan.timed
        }
        golden[name] = {"jobs": len(plan.timed), "artifacts": artifacts}
        print(
            f"{name}: {len(plan.timed)} jobs, "
            f"{len(artifacts)} distinct artifacts"
        )
    with open(oracle.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared benchmark helpers: paper-vs-measured reporting.

Every benchmark prints a small table comparing what the paper's figure
shows with what this reproduction measures, so `pytest benchmarks/
--benchmark-only -s` regenerates the evaluation section (the curated copy
is EXPERIMENTS.md in the repository root).  Speed over the user's path —
XMI in over HTTP, artifact out — is measured by ``perfbench/``.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest


def report(title: str, rows: List[Tuple[str, str, str]]) -> None:
    """Print a paper-vs-measured table (visible with ``-s``)."""
    width_label = max((len(r[0]) for r in rows), default=10)
    width_paper = max((len(r[1]) for r in rows), default=10)
    print(f"\n=== {title} ===")
    print(
        f"{'quantity':<{width_label}} | {'paper':<{width_paper}} | measured"
    )
    print("-" * (width_label + width_paper + 14))
    for label, paper, measured in rows:
        print(f"{label:<{width_label}} | {paper:<{width_paper}} | {measured}")


@pytest.fixture()
def paper_report():
    return report

"""The artifact oracle: what every job must return, and the checks on it.

Every HTTP artifact is compared byte for byte with
``repro.server.executor.execute(spec)`` run in the benchmark process.
Each distinct spec is also checked against an independent path once:

* ``simulate``: the episodes replayed on the ``reference`` engine must
  serialize to the same bytes (bit-identical floats);
* ``codegen``: the trace manifest must verify against its sources
  (``codegen.trace.verify_manifest``), in process and for every HTTP
  job against the sources the server returned;
* ``explore``: the Pareto front must be the same with the scalar cost
  estimator (``REPRO_DSE_BATCH=0``).

For the default seed, artifacts are also pinned by (truncated) SHA-256
digests in ``golden.json``, so an output change between commits fails even when
the server and the library agree.  Each workload's entry covers the
first ``jobs`` timed jobs; a covered job whose spec has no pinned digest
fails too, so a changed job list cannot skip the pin.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.codegen.trace import verify_manifest
from repro.core.flow import synthesize
from repro.dse.explore import DSE_BATCH_ENV
from repro.server.executor import execute
from repro.simulink.simulator import ENGINE_REFERENCE, Simulator
from repro.uml.xmi import from_xmi_string

from serverloop import JobRecord
from workloads import DEFAULT_SEED, Job, Plan

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")
#: ``golden.json`` gives, per workload, the number of timed jobs it
#: covers (``jobs``) and maps the first 16 hex digits of each covered
#: spec's SHA-256 to the first 16 of its artifact's (``artifacts``):
#: 64 bits each, ample to detect a change.
GOLDEN_CHARS = 16


def short_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:GOLDEN_CHARS]


def load_golden(workload: str) -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def _reference_simulation(job: Job) -> bytes:
    options = job.spec.options
    result = synthesize(from_xmi_string(job.spec.model_xmi), use_cache=False)
    simulator = Simulator(
        result.caam,
        monitor=options.get("monitor", []),
        engine=ENGINE_REFERENCE,
    )
    episodes = simulator.run_many(options["steps"], options["stimuli"])
    document = [
        {"outputs": episode.outputs, "signals": episode.signals}
        for episode in episodes
    ]
    return (json.dumps(document, indent=2) + "\n").encode()


def _scalar_explore(job: Job) -> bytes:
    previous = os.environ.get(DSE_BATCH_ENV)
    os.environ[DSE_BATCH_ENV] = "0"
    try:
        return execute(job.spec).artifact_text.encode()
    finally:
        if previous is None:
            del os.environ[DSE_BATCH_ENV]
        else:
            os.environ[DSE_BATCH_ENV] = previous


def _manifest_problems(artifact: bytes, sources: Dict[str, str]) -> List[str]:
    try:
        manifest = json.loads(artifact)
    except ValueError as exc:
        return [f"manifest is not JSON: {exc}"]
    return verify_manifest(manifest, sources)


class Oracle:
    """Expected artifacts for a plan, and the per-job verdict."""

    def __init__(self, plan: Plan, golden: Optional[Dict[str, Any]] = None):
        self.plan = plan
        self.golden = golden if plan.seed == DEFAULT_SEED else None
        self.expected: Dict[str, bytes] = {}
        #: Spec key -> why the library itself failed that spec.
        self.problems: Dict[str, str] = {}
        self.golden_checked = 0

    def prepare(self) -> None:
        """Execute each distinct spec once, in the order the server sees it."""
        for job in self.plan.warmup + self.plan.timed:
            if job.key in self.expected:
                continue
            try:
                outcome = execute(job.spec)
            except Exception as exc:  # noqa: BLE001 - recorded as failure
                self.problems[job.key] = f"execute raised {exc!r}"
                self.expected[job.key] = b""
                continue
            self.expected[job.key] = outcome.artifact_text.encode()
            self._check_library(job, outcome)

    def _check_library(self, job: Job, outcome) -> None:
        expected = self.expected[job.key]
        if job.kind == "simulate":
            if _reference_simulation(job) != expected:
                self.problems[job.key] = "reference engine disagrees"
        elif job.kind == "explore":
            if _scalar_explore(job) != expected:
                self.problems[job.key] = "scalar estimator disagrees"
        elif job.kind == "codegen":
            found = _manifest_problems(expected, outcome.payload["sources"])
            if found:
                self.problems[job.key] = f"manifest: {found[0]}"

    def verdict(self, record: JobRecord) -> Optional[str]:
        """Why ``record`` failed, or ``None`` if its artifact is right."""
        job = record.job
        if record.error is not None:
            return record.error
        if job.key in self.problems:
            return self.problems[job.key]
        if record.artifact != self.expected[job.key]:
            return "artifact differs from the in-process executor"
        if self.golden is not None and 0 <= job.index < self.golden["jobs"]:
            pinned = self.golden["artifacts"].get(job.key[:GOLDEN_CHARS])
            if pinned is None:
                return "job spec is not the one pinned in golden.json"
            self.golden_checked += 1
            if short_sha256(record.artifact) != pinned:
                return "artifact differs from golden.json"
        if job.kind == "codegen":
            sources = record.document.get("result", {}).get("sources", {})
            found = _manifest_problems(record.artifact, sources)
            if found:
                return f"manifest: {found[0]}"
        return None

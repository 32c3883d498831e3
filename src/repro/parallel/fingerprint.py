"""Stable structural fingerprints for content-addressed caching.

The synthesis cache (:mod:`repro.parallel.cache`) keys results by *what*
is being synthesized, not by object identity: two structurally identical
``(model, plan, platform, flow options)`` tuples must map to one key, and
changing any model element or any option must change the key.

The canonical form of a UML model is its XMI element tree (the writer
behind :func:`repro.uml.xmi.to_xmi_string`): element ids are assigned by
a per-model counter in construction order, so two identically-built
models produce identical trees, and every attribute, message, stereotype,
and deployment edit lands in it.  The tree is hashed once, as one
value-only pickle, without being rendered to XML (see
:func:`model_fingerprint`; schema version 2 introduced that encoding).
Plans, platforms, task graphs and option mappings are canonicalized into
sorted JSON documents.  All fingerprints are hex SHA-256 digests.

Conservatism note: models that are *semantically* equal but built in a
different element order fingerprint differently.  For a cache that is the
safe direction — the worst case is a miss, never a wrong hit.

A model that arrives as XMI text can be keyed on the text itself
(:func:`xmi_cache_key`), with no parse and no element tree.  Equal texts
parse to equal models, so that key is a finer partition than the
structural one: it misses on texts that differ only in layout, but it
never hits wrongly.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Any, Mapping, Optional

from ..uml.deployment import DeploymentPlan
from ..uml.model import Model
from ..uml.xmi import _Writer

#: Bumping the schema version invalidates every previously stored entry —
#: do so whenever the synthesis flow changes what it produces for the same
#: inputs (new optimization pass, changed MDL emission, ...).
SCHEMA_VERSION = "2"


def digest(*parts: str) -> str:
    """Hex SHA-256 over the length-prefixed concatenation of ``parts``.

    Length prefixes make the combination injective: ``("ab", "c")`` and
    ``("a", "bc")`` hash differently.
    """
    hasher = hashlib.sha256()
    for part in parts:
        raw = part.encode("utf-8")
        hasher.update(str(len(raw)).encode("ascii"))
        hasher.update(b":")
        hasher.update(raw)
    return hasher.hexdigest()


def _canonical_json(value: Any) -> str:
    """A deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def model_fingerprint(model: Model) -> str:
    """Fingerprint of a UML model via its canonical XMI element tree.

    The tree is encoded as its preorder rows ``(tag, sorted attribute
    items, text, child count)`` in one pickle of a pinned protocol.  Fast
    mode keeps no memo, so the bytes depend on the values alone, never on
    which equal strings happen to be one object.  The child counts make
    the preorder decode to exactly one tree, and pickle frames every
    string with its length, so the encoding is injective.
    """
    rows = [
        (el.tag, sorted(el.attrib.items()), el.text, len(el))
        for el in _Writer(model).write().iter()
    ]
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(rows)
    return digest("model", hashlib.sha256(buffer.getvalue()).hexdigest())


def plan_fingerprint(plan: Optional[DeploymentPlan]) -> str:
    """Fingerprint of an explicit deployment plan (``None`` is distinct)."""
    if plan is None:
        return digest("plan", "none")
    return digest(
        "plan",
        _canonical_json({"cpus": plan.cpus, "mapping": plan.as_mapping()}),
    )


def platform_fingerprint(platform: Any) -> str:
    """Fingerprint of an :class:`repro.mpsoc.platform.Platform` (or None)."""
    if platform is None:
        return digest("platform", "default")
    return digest(
        "platform",
        _canonical_json(
            {
                "processors": [
                    [p.name, p.clock_mhz, p.cycles_per_block]
                    for p in platform.processors
                ],
                "bus": [
                    platform.bus.name,
                    platform.bus.word_cycles,
                    platform.bus.latency_cycles,
                ],
                "intra_word_cycles": platform.intra_word_cycles,
            }
        ),
    )


def taskgraph_fingerprint(graph: Any) -> str:
    """Fingerprint of a :class:`repro.core.taskgraph.TaskGraph`."""
    return digest(
        "taskgraph",
        _canonical_json(
            {
                "nodes": dict(sorted(graph.node_weights.items())),
                "edges": sorted(
                    [src, dst, weight]
                    for (src, dst), weight in graph.edges.items()
                ),
            }
        ),
    )


def options_fingerprint(options: Mapping[str, Any]) -> str:
    """Fingerprint of a flat flow-options mapping."""
    return digest("options", _canonical_json(dict(options)))


def synthesis_cache_key(
    model: Model,
    plan: Optional[DeploymentPlan],
    options: Mapping[str, Any],
) -> str:
    """The content address of one ``synthesize()`` invocation."""
    return digest(
        "synthesize",
        SCHEMA_VERSION,
        model_fingerprint(model),
        plan_fingerprint(plan),
        options_fingerprint(options),
    )


def xmi_cache_key(
    xmi: str,
    plan: Optional[DeploymentPlan],
    options: Mapping[str, Any],
) -> str:
    """The content address of synthesizing the model that ``xmi`` encodes.

    Keyed on the text's bytes, not on the parsed model, and tagged apart
    from :func:`synthesis_cache_key`, so the two never share a key.
    ``surrogatepass`` keeps the encoding total (and injective) for the
    lone surrogates a JSON request may carry.
    """
    text = hashlib.sha256(xmi.encode("utf-8", "surrogatepass")).hexdigest()
    return digest(
        "synthesize-xmi",
        SCHEMA_VERSION,
        text,
        plan_fingerprint(plan),
        options_fingerprint(options),
    )

#!/usr/bin/env python3
"""Regenerate docs/api.md from the package docstrings.

Run from the repository root:  python tools/gen_api_docs.py
"""

import importlib
import inspect
import os
import pkgutil

import repro


def _first_paragraph(doc):
    if not doc:
        return ""
    return doc.strip().split("\n\n")[0].replace("\n", " ")


def main() -> None:
    lines = [
        "# API Reference",
        "",
        "Generated from the package docstrings (first paragraph of each).",
        "Regenerate with `python tools/gen_api_docs.py`.",
        "",
        "Guides: [tutorial](tutorial.md) · "
        "[observability (tracing/metrics/profiling)](observability.md) · "
        "[synthesis cache](parallel.md) · "
        "[batch server](server.md)",
        "",
    ]
    packages = sorted(
        name
        for _, name, _ in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        )
    )
    for name in packages:
        module = importlib.import_module(name)
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(_first_paragraph(module.__doc__))
        lines.append("")
        members = []
        for member_name, member in sorted(vars(module).items()):
            if member_name.startswith("_"):
                continue
            # unwrap: lru_cache-decorated functions are documented too
            if not (inspect.isclass(member) or inspect.isfunction(inspect.unwrap(member))):
                continue
            if getattr(member, "__module__", None) != name:
                continue
            kind = "class" if inspect.isclass(member) else "def"
            try:
                signature = str(inspect.signature(member))
                if len(signature) > 70:
                    signature = "(...)"
            except (ValueError, TypeError):
                signature = "(...)"
            members.append(
                (kind, member_name, signature, _first_paragraph(inspect.getdoc(member)))
            )
        for kind, member_name, signature, doc in members:
            lines.append(f"- **`{kind} {member_name}{signature}`** — {doc}")
        if members:
            lines.append("")
    target = os.path.join(os.path.dirname(__file__), "..", "docs", "api.md")
    with open(target, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {os.path.normpath(target)}")


if __name__ == "__main__":
    main()

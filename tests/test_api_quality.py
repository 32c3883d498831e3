"""API quality gates: documentation and export hygiene.

These tests keep the public surface honest: every public module, class
and function carries a docstring, and every name in an ``__all__`` list
actually exists.
"""

import importlib
import importlib.util
import os
import inspect
import pkgutil

import pytest

import repro

_MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]

#: Structural exemptions: Protocol stubs (body is ``...``, the Protocol
#: class docstring documents them) and dataclass lambda defaults.
_EXEMPT = {
    "repro.backends": {"Backend.generate"},
    "repro.simulink.blocks": {"BlockSemantics.initial_state"},
}


@pytest.mark.parametrize("module_name", _MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", _MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-export; documented at home
        if not inspect.getdoc(member):
            undocumented.append(name)
        elif inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not inspect.getdoc(method):
                    undocumented.append(f"{name}.{method_name}")
    undocumented = [
        name
        for name in undocumented
        if name not in _EXEMPT.get(module_name, set())
    ]
    assert not undocumented, (
        f"{module_name}: undocumented public API: {sorted(undocumented)}"
    )


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_exports_exist(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}: __all__ names missing: {missing}"


def test_top_level_reexports_resolve():
    from repro import core, simulink, uml

    assert callable(repro.synthesize)
    assert uml.ModelBuilder and simulink.Simulator and core.map_model


def test_api_reference_covers_every_module():
    """docs/api.md is exactly what tools/gen_api_docs.py renders now, so
    it names every module and member; regenerate it after a change."""
    root = os.path.join(os.path.dirname(__file__), "..")
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", os.path.join(root, "tools", "gen_api_docs.py")
    )
    gen_api_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_api_docs)
    path = os.path.join(root, "docs", "api.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert text == gen_api_docs.render(), (
        "docs/api.md is stale; run python tools/gen_api_docs.py"
    )

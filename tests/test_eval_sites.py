"""Guard against ``eval``/``exec``/``compile`` call sites in the library.

Model input can come from untrusted clients (the server's ``model_xmi``),
so every place that executes a string as Python is a liability.  FSM
guards and actions are parsed by :mod:`repro.fsm.expr` and evaluated by
closures, so no site is left; the allowed set below may only shrink.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

ALLOWED = set()


def _calls_eval_or_exec(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "compile":
            return True  # the builtin; re.compile and friends are fine
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("eval", "exec"):
            return True
    return False


def test_eval_and_exec_only_at_allowed_sites():
    sites = {
        path.relative_to(PACKAGE_ROOT).as_posix()
        for path in PACKAGE_ROOT.rglob("*.py")
        if _calls_eval_or_exec(ast.parse(path.read_text(), filename=str(path)))
    }
    assert sites == ALLOWED

"""Modules of the package use one another through public names only, and
only `systems.py` decides a symbol's kind."""

from __future__ import annotations

import ast
from pathlib import Path

import revrw

PACKAGE_DIR = Path(revrw.__file__).resolve().parent


def _modules():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found


def test_only_the_systems_module_passes_a_kind_to_symbol():
    # Symbol(name, arity) is a constructor until a RewriteSystem classifies
    # it; a third argument or a kind= keyword anywhere else decides a kind
    # outside that one place.
    found = []
    for path, tree in _modules():
        if path.name == "systems.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Symbol" and (
                len(node.args) > 2
                or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg in ("kind", None) for k in node.keywords)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found

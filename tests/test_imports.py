"""Modules of the package use one another through public names only,
only `systems.py` decides a symbol's kind, and no function recurses."""

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


def _calls_of_itself(function: ast.FunctionDef, method: bool) -> bool:
    """Whether function calls itself: by its name (a module-level or nested
    function), or as `self.<name>(...)` (a method). A method's bare-name
    call reaches a module-level function, and a call on any other object
    (`super().__init__`, `other.apply`) reaches another function."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if method:
            itself = (
                isinstance(f, ast.Attribute) and f.attr == function.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"
            )
        else:
            itself = isinstance(f, ast.Name) and f.id == function.name
        if itself:
            return True
    return False


def _recursive_functions(tree: ast.Module) -> list[str]:
    found = []
    # (node, its qualified name, whether its functions are methods)
    stack = [(tree, "", False)]
    while stack:
        node, prefix, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}.", True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_of_itself(child, in_class):
                    found.append(prefix + child.name)
                stack.append((child, f"{prefix}{child.name}.", False))
            else:
                stack.append((child, prefix, in_class))
    return found


def test_no_function_calls_itself():
    # Only Bounds may limit the depth of a term or trace, never Python's
    # recursion limit: every walker runs on an explicit stack.
    found = [f"{path.name}: {name}" for path, tree in _modules() for name in _recursive_functions(tree)]
    assert not found

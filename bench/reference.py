"""Reference checks that do not go through the code paths the benchmark times.

Every helper walks terms with an explicit stack, so a check never fails on
inputs hundreds of levels deep, and every helper reads terms structurally
(``.symbol``/``.args`` for applications, ``.name`` for variables). Nothing
here imports revrw: each set-up re-imports the package, and these helpers
must accept terms from any import of it.
"""

from __future__ import annotations

import ast
from pathlib import Path


class WrongResult(Exception):
    """A timed operation returned a result its reference rejects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongResult(message)


def is_var(t) -> bool:
    return not hasattr(t, "symbol")


def nat_value(t) -> int | None:
    """n for the numeral s^n(0), else None."""
    n = 0
    while not is_var(t) and t.symbol.name == "s" and len(t.args) == 1:
        n += 1
        t = t.args[0]
    if is_var(t) or t.symbol.name != "0" or t.args:
        return None
    return n


def list_items(t) -> list | None:
    """The heads of a cons/nil list, else None."""
    items = []
    while not is_var(t) and t.symbol.name == "cons" and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    if is_var(t) or t.symbol.name != "nil" or t.args:
        return None
    return items


def same_term(a, b) -> bool:
    """Structural equality by symbol name, arity and variable name."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if is_var(x) or is_var(y):
            if not (is_var(x) and is_var(y) and x.name == y.name):
                return False
            continue
        if x.symbol.name != y.symbol.name or len(x.args) != len(y.args):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def term_text(t) -> str:
    """Prefix rendering, for messages and dictionary keys."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif is_var(item):
            out.append(item.name)
        elif not item.args:
            out.append(item.symbol.name)
        else:
            out.append(item.symbol.name + "(")
            stack.append(")")
            for i in range(len(item.args) - 1, -1, -1):
                stack.append(item.args[i])
                if i:
                    stack.append(",")
    return "".join(out)


def subterm_at(t, position):
    for i in position:
        if is_var(t) or not 1 <= i <= len(t.args):
            return None
        t = t.args[i - 1]
    return t


def instantiate(t, binding) -> object:
    """t with every variable x replaced by binding(x); rebuilds with the
    node's own class and symbol."""
    if is_var(t):
        return binding(t.name)
    args = [instantiate(a, binding) for a in t.args]
    return type(t)(t.symbol, tuple(args))


def plant(t, position, u):
    """t with u at position (rebuilds the spine only)."""
    if not position:
        return u
    i = position[0]
    args = list(t.args)
    args[i - 1] = plant(args[i - 1], position[1:], u)
    return type(t)(t.symbol, tuple(args))


def trace_stats(trace) -> tuple[int, int]:
    """(trace terms including every condition sub-trace, deepest nesting of
    condition sub-traces) of a forward trace."""
    count = 0
    deepest = 0
    stack = [(trace, 0)]
    while stack:
        tr, depth = stack.pop()
        deepest = max(deepest, depth)
        for tt in tr:
            count += 1
            for sub in tt.sub_traces:
                stack.append((sub, depth + 1))
    return count, deepest


def witness_stats(witnesses) -> tuple[int, int]:
    """As trace_stats, for rewrite-layer step witnesses."""
    count = 0
    deepest = 0
    stack = [(witnesses, 0)]
    while stack:
        steps, depth = stack.pop()
        deepest = max(deepest, depth)
        for w in steps:
            count += 1
            for sub in w.sub_witnesses:
                stack.append((sub, depth + 1))
    return count, deepest


# ---------------------------------------------------------------------------
# Systems compared modulo a per-rule variable bijection


def _rule_sides(rule) -> list:
    sides = [rule.lhs, rule.rhs]
    for c in rule.conditions:
        sides += [c.lhs, c.rhs]
    return sides


def rules_isomorphic(a, b) -> bool:
    if a.label != b.label or len(a.conditions) != len(b.conditions):
        return False
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    stack = list(zip(_rule_sides(a), _rule_sides(b)))
    while stack:
        x, y = stack.pop()
        if is_var(x) or is_var(y):
            if not (is_var(x) and is_var(y)):
                return False
            if fwd.setdefault(x.name, y.name) != y.name:
                return False
            if bwd.setdefault(y.name, x.name) != x.name:
                return False
            continue
        if x.symbol.name != y.symbol.name or len(x.args) != len(y.args):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def systems_isomorphic(a, b) -> bool:
    return len(a.rules) == len(b.rules) and all(
        rules_isomorphic(x, y) for x, y in zip(a.rules, b.rules)
    )


def load_goldens(path: Path) -> dict[str, str]:
    """Module-level GOLDEN_* string constants of a Python source file, read
    with ast (the file is not imported)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if (
            isinstance(target, ast.Name)
            and target.id.startswith("GOLDEN_")
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            out[target.id] = node.value.value
    return out

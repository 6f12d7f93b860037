"""Independent oracles and enumerations used by the test suite.

Everything here is deliberately brute force: exhaustive enumeration of
candidate substitutions, breadth-first search over all one-step successors,
and structural comparison modulo variable renaming. These stay independent of
the code paths they are used to check.
"""

from __future__ import annotations

import itertools

from revrw import (
    App,
    BoundExceeded,
    Bounds,
    NotGround,
    Pair,
    PreconditionViolated,
    RewriteSystem,
    Rule,
    StepWitness,
    Subst,
    Term,
    UnsafePair,
    Var,
    forward_successors,
    is_safe,
    format_term,
    is_ground,
    match,
    replace,
    step,
    term_vars,
)
from revrw.reversible import witness_trace_term
from revrw.rewrite import STRATEGIES
from revrw.terms import CONSTRUCTOR, DEFINED, ROOT, Position

SEARCH_BOUNDS = Bounds(max_steps=200000, max_depth=100)


def constructor_universe(system: RewriteSystem, max_depth: int) -> list[Term]:
    """All ground terms of depth <= max_depth over the system's plain
    constructors, ordered by (size, printed form)."""
    symbols = sorted(
        (s for s in system.signature.values() if s.kind == CONSTRUCTOR),
        key=lambda s: (s.arity, s.name),
    )
    layers: list[Term] = [App(s) for s in symbols if s.arity == 0]
    current = list(layers)
    for _ in range(max_depth - 1):
        new: list[Term] = []
        for s in symbols:
            if s.arity == 0:
                continue
            for args in itertools.product(current, repeat=s.arity):
                new.append(App(s, args))
        current = current + new
        current = list(dict.fromkeys(current))
    current.sort(key=lambda t: (_size(t), repr(t)))
    return current


def _size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(_size(a) for a in t.args)


def basic_terms(
    system: RewriteSystem, max_depth: int = 4, cap_per_function: int | None = None
) -> list[Term]:
    """Basic ground terms f(constructor args) of depth <= max_depth, each
    function contributing at most cap_per_function argument tuples (taken in
    the deterministic product order of the size-sorted universe)."""
    universe = constructor_universe(system, max_depth - 1)
    out: list[Term] = []
    for name in sorted(system.defined_symbols):
        sym = system.signature[name]
        tuples = itertools.product(universe, repeat=sym.arity)
        if cap_per_function is not None:
            tuples = itertools.islice(tuples, cap_per_function)
        out.extend(App(sym, args) for args in tuples)
    return out


def all_normal_forms(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    cache: dict[Term, frozenset[Term]] | None = None,
) -> frozenset[Term]:
    """Exhaustive search over every one-step successor down to normal forms."""
    if cache is None:
        cache = {}
    found = cache.get(term)
    if found is not None:
        return found
    successors = step(system, term, strategy, SEARCH_BOUNDS)
    if not successors:
        result = frozenset([term])
    else:
        result = frozenset().union(
            *(all_normal_forms(system, w.result, strategy, cache) for w in successors)
        )
    cache[term] = result
    return result


def reachable_terms(
    system: RewriteSystem, term: Term, max_steps: int, strategy: str = "innermost"
) -> set[Term]:
    """All terms reachable in at most max_steps one-step reductions."""
    frontier = {term}
    seen = {term}
    for _ in range(max_steps):
        frontier = {
            w.result
            for t in frontier
            for w in step(system, t, strategy, SEARCH_BOUNDS)
        } - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def reversibly_reachable_terms(
    system: RewriteSystem, term: Term, max_steps: int, strategy: str = "innermost"
) -> set[Term]:
    """Terms reachable through the traced forward relation."""
    frontier = [Pair(term)]
    seen = {term}
    for _ in range(max_steps):
        nxt = []
        for pair in frontier:
            for succ in forward_successors(system, pair, strategy, SEARCH_BOUNDS):
                if succ.term not in seen:
                    seen.add(succ.term)
                    nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return seen


def ground_unifiers(s: Term, t: Term, universe: list[Term]) -> list[Subst]:
    """Every substitution over the universe that makes s and t equal."""
    names = sorted(term_vars(s) | term_vars(t))
    out = []
    for values in itertools.product(universe, repeat=len(names)):
        sigma = Subst(dict(zip(names, values)))
        if sigma.apply(s) == sigma.apply(t):
            out.append(sigma)
    return out


def same_term(a: Term, b: Term) -> bool:
    """Structural equality without recursion, for terms too deep for ==."""
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        if isinstance(u, Var) or isinstance(v, Var):
            if u != v:
                return False
        elif u.symbol != v.symbol:
            return False
        else:
            stack.extend(zip(u.args, v.args))
    return True


# ---------------------------------------------------------------------------
# Structural comparison modulo per-rule variable renaming


def _terms_isomorphic(a: Term, b: Term, fwd: dict[str, str], bwd: dict[str, str]) -> bool:
    if isinstance(a, Var) != isinstance(b, Var):
        return False
    if isinstance(a, Var):
        if fwd.setdefault(a.name, b.name) != b.name:
            return False
        return bwd.setdefault(b.name, a.name) == a.name
    if a.symbol != b.symbol or len(a.args) != len(b.args):
        return False
    return all(_terms_isomorphic(x, y, fwd, bwd) for x, y in zip(a.args, b.args))


def rules_isomorphic(a: Rule, b: Rule) -> bool:
    """Same label, same structure up to a variable bijection."""
    if a.label != b.label or len(a.conditions) != len(b.conditions):
        return False
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    sides = [(a.lhs, b.lhs), (a.rhs, b.rhs)]
    for ca, cb in zip(a.conditions, b.conditions):
        sides += [(ca.lhs, cb.lhs), (ca.rhs, cb.rhs)]
    return all(_terms_isomorphic(x, y, fwd, bwd) for x, y in sides)


def systems_isomorphic(a: RewriteSystem, b: RewriteSystem) -> bool:
    return len(a.rules) == len(b.rules) and all(
        rules_isomorphic(x, y) for x, y in zip(a.rules, b.rules)
    )


# ---------------------------------------------------------------------------
# Reference rewriting engine: a recursive walk from the root on every step
#
# This is the engine the library's resumable search replaced. It tries every
# rule at every defined node, rebuilds the whole term with `replace`, and
# calls `ref_first_step` once per step of a forward run. Its step order,
# witnesses, bound checks and error messages are the specification the
# library engine is tested against.


class _RefBudget:
    def __init__(self, bounds: Bounds):
        self.steps_left = bounds.max_steps
        self.max_depth = bounds.max_depth

    def spend(self) -> None:
        if self.steps_left <= 0:
            raise BoundExceeded("step bound exceeded")
        self.steps_left -= 1

    def check_depth(self, depth: int) -> None:
        if depth > self.max_depth:
            raise BoundExceeded("condition evaluation depth bound exceeded")


def _ref_check(term: Term, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not is_ground(term):
        raise NotGround(f"cannot rewrite non-ground term {format_term(term)}")


def _ref_solve(system, rule, sigma0, strategy, budget, depth):
    budget.check_depth(depth)
    sigma = sigma0
    derivations = []
    for c in rule.conditions:
        lhs = sigma.apply(c.lhs)
        if not is_ground(lhs):
            raise PreconditionViolated(
                f"rule {rule.label}: condition lhs {format_term(lhs)} is not ground "
                "under the accumulated substitution (system is not deterministic)"
            )
        value, steps = _ref_normalize(system, lhs, strategy, budget, depth + 1)
        theta = match(sigma.apply(c.rhs), value)
        if theta is None:
            return None
        if strategy == "constructor" and not theta.is_constructor:
            return None
        sigma = sigma.union(theta)
        derivations.append(tuple(steps))
    return sigma, tuple(derivations)


def _ref_witnesses_at(system, whole, pos, sub, strategy, budget, depth, out, limit):
    if not (isinstance(sub, App) and sub.symbol.kind == DEFINED):
        return False
    found = False
    for rule in system.rules:
        sigma0 = match(rule.lhs, sub)
        if sigma0 is None:
            continue
        if strategy == "constructor" and not sigma0.is_constructor:
            continue
        solved = _ref_solve(system, rule, sigma0, strategy, budget, depth)
        if solved is None:
            continue
        sigma, derivations = solved
        result = replace(whole, pos, sigma.apply(rule.rhs))
        out.append(StepWitness(pos, rule.label, sigma, result, derivations))
        found = True
        if limit is not None and len(out) >= limit:
            break
    return found


def _ref_witnesses(system, term, strategy, budget, depth, limit=None):
    out: list[StepWitness] = []
    if strategy == "top":
        _ref_witnesses_at(system, term, ROOT, term, strategy, budget, depth, out, limit)
        return out

    def walk(sub: Term, pos: Position) -> bool:
        below = False
        if isinstance(sub, App):
            for i, arg in enumerate(sub.args, 1):
                below = walk(arg, (*pos, i)) or below
                if limit is not None and len(out) >= limit:
                    return True
        if strategy == "any" or not below:
            here = _ref_witnesses_at(
                system, term, pos, sub, strategy, budget, depth, out, limit
            )
            return below or here
        return below

    walk(term, ROOT)
    return out


def _ref_normalize(system, term, strategy, budget, depth):
    steps: list[StepWitness] = []
    while True:
        found = _ref_witnesses(system, term, strategy, budget, depth, limit=1)
        if not found:
            return term, steps
        budget.spend()
        steps.append(found[0])
        term = found[0].result


def ref_step(system, term, strategy="innermost", bounds=Bounds()):
    _ref_check(term, strategy)
    return _ref_witnesses(system, term, strategy, _RefBudget(bounds), 1)


def ref_first_step(system, term, strategy="innermost", bounds=Bounds()):
    _ref_check(term, strategy)
    found = _ref_witnesses(system, term, strategy, _RefBudget(bounds), 1, limit=1)
    return found[0] if found else None


def ref_normalize_traced(system, term, strategy="innermost", bounds=Bounds()):
    _ref_check(term, strategy)
    return _ref_normalize(system, term, strategy, _RefBudget(bounds), 1)


def ref_forward_run(system, pair, strategy="innermost", steps=None, bounds=Bounds()):
    """forward_step iterated: one ref_first_step, with a fresh budget, per
    top-level step; at most bounds.max_steps of them when steps is None."""
    report = is_safe(system, pair.trace)
    if not report.ok:
        raise UnsafePair("; ".join(report.findings))
    n = 0
    while steps is None or n < steps:
        if steps is None and n >= bounds.max_steps:
            raise BoundExceeded("forward run exceeded the step bound")
        witness = ref_first_step(system, pair.term, strategy, bounds)
        if witness is None:
            return pair
        pair = Pair(witness.result, (witness_trace_term(system, witness), *pair.trace))
        n += 1
    return pair

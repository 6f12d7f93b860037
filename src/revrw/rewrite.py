"""Rewriting engines: unrestricted, innermost, constructor and top reduction.

Execution order is fixed: candidate positions are visited leftmost-innermost
(post-order), rules in textual order. Conditions of a rule are solved left to
right by normalizing the instantiated condition lhs under the same strategy
and matching the condition rhs against the normal form; under the constructor
strategy a rule application fails if that match would bind a variable to a
non-constructor term.

Reducibility of a subterm (used to decide innermost eligibility) follows the
same discipline as the strategy itself, so the engines are self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BoundExceeded, NotGround, PreconditionViolated
from .systems import RewriteSystem, Rule
from .terms import (
    App,
    DEFINED,
    Position,
    ROOT,
    Subst,
    Term,
    Var,
    format_term,
    is_ground,
    match,
    replace,
)

STRATEGIES = ("any", "innermost", "constructor", "top")


@dataclass(frozen=True, slots=True)
class Bounds:
    """max_steps caps the rewrite steps of one engine call: applied steps,
    condition steps included, plus the condition steps of failed rule
    attempts on unchanged subterms, counted again on every step as a search
    from the root would repeat them. max_depth caps the nesting of
    condition evaluations."""

    max_steps: int = 10000
    max_depth: int = 100

    def __post_init__(self) -> None:
        if self.max_steps < 1 or self.max_depth < 1:
            raise ValueError("bounds must be positive")


DEFAULT_BOUNDS = Bounds()


class _Budget:
    __slots__ = ("steps_left", "max_depth")

    def __init__(self, bounds: Bounds):
        self.steps_left = bounds.max_steps
        self.max_depth = bounds.max_depth

    def spend(self) -> None:
        if self.steps_left <= 0:
            raise BoundExceeded("step bound exceeded")
        self.steps_left -= 1

    def charge(self, steps: int) -> None:
        """Spend `steps` steps at once; raises exactly when spending them one
        by one would."""
        if steps > self.steps_left:
            raise BoundExceeded("step bound exceeded")
        self.steps_left -= steps

    def check_depth(self, depth: int) -> None:
        if depth > self.max_depth:
            raise BoundExceeded("condition evaluation depth bound exceeded")


@dataclass(frozen=True, slots=True)
class StepWitness:
    """One rewrite step: sigma(lhs) sits at `position` of the input and
    `result` is the input with sigma(rhs) planted there. One derivation
    (a step sequence) is recorded per condition of the applied rule."""

    position: Position
    rule_label: str
    sigma: Subst
    result: Term
    sub_witnesses: tuple[tuple["StepWitness", ...], ...] = ()


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _check_ground(term: Term) -> None:
    if not is_ground(term):
        raise NotGround(f"cannot rewrite non-ground term {format_term(term)}")


class _Engine:
    """What one top-level call shares with its nested condition evaluations:
    the system, the strategy, and the search cost of irreducible subterms.

    Step bounds count the condition steps of every rule attempt that a
    leftmost-innermost search from the root makes, on every step: attempts
    that fail on an unchanged subterm are made, and paid for, again. The
    resumable search does not repeat them; it charges their recorded cost
    instead, so BoundExceeded is raised exactly where a search from the root
    would raise it. `costs` maps id(subterm) to (subterm, cost) for every
    searched irreducible subterm whose cost is not zero.
    """

    __slots__ = ("system", "strategy", "costs")

    def __init__(self, system: RewriteSystem, strategy: str):
        self.system = system
        self.strategy = strategy
        self.costs: dict[int, tuple[Term, int]] = {}

    def attempt(
        self, node: App, budget: _Budget, depth: int, first: bool
    ) -> list[tuple[Rule, Subst, tuple[tuple[StepWitness, ...], ...]]]:
        """The rules (textual order) that rewrite `node` at its root, with
        their substitutions and condition derivations; at most one if first."""
        system = self.system
        rules = system.rules_by_root.get(node.symbol.name, ())
        if not node.ground and system.rules:
            # As matching any rule would, even one with another root symbol.
            raise NotGround(f"match subject must be ground: {format_term(node)}")
        found = []
        for rule in rules:
            sigma0 = match(rule.lhs, node)
            if sigma0 is None:
                continue
            if self.strategy == "constructor" and not sigma0.is_constructor:
                continue
            solved = self.solve(rule, sigma0, budget, depth)
            if solved is None:
                continue
            found.append((rule, *solved))
            if first:
                break
        return found

    def solve(
        self, rule: Rule, sigma0: Subst, budget: _Budget, depth: int
    ) -> tuple[Subst, tuple[tuple[StepWitness, ...], ...]] | None:
        budget.check_depth(depth)
        sigma = sigma0
        derivations: list[tuple[StepWitness, ...]] = []
        for c in rule.conditions:
            lhs = sigma.apply(c.lhs)
            if not is_ground(lhs):
                raise PreconditionViolated(
                    f"rule {rule.label}: condition lhs {format_term(lhs)} is not ground "
                    "under the accumulated substitution (system is not deterministic)"
                )
            value, steps = self.normalize(lhs, budget, depth + 1)
            theta = match(sigma.apply(c.rhs), value)
            if theta is None:
                return None
            if self.strategy == "constructor" and not theta.is_constructor:
                return None
            sigma = sigma.union(theta)
            derivations.append(tuple(steps))
        return sigma, tuple(derivations)

    def normalize(
        self, term: Term, budget: _Budget, depth: int
    ) -> tuple[Term, list[StepWitness]]:
        cursor = _Cursor(self, term, depth)
        steps: list[StepWitness] = []
        while True:
            found = cursor.search(budget, True)
            if not found:
                return cursor.term, steps
            budget.spend()
            steps.append(found[0])


class _Cursor:
    """A leftmost-innermost (post-order) search over one term that resumes
    where its last step happened.

    The zipper is a stack of frames [node, pattern, i, cost, below], one per
    ancestor of the subterm being searched: i children of node have been
    entered, cost sums the search cost of the completed ones, and below
    says whether a witness was found under node. After a step at position
    p, everything before p in post-order is unchanged and irreducible, and
    so is every variable binding of the applied rule: a binding is a
    subterm of the redex's arguments or of a condition's normal form. The
    next search therefore enters only the nodes of sigma(rhs) that come
    from rhs itself (pattern tracks them), then the nodes after p.
    """

    __slots__ = ("engine", "depth", "term", "stack", "node", "pattern", "left")

    def __init__(self, engine: _Engine, term: Term, depth: int):
        self.engine = engine
        self.depth = depth
        self.term = term
        self.stack: list[list] = []
        # The subterm to enter next (None: resume at the top frame) and the
        # rule rhs it instantiates (None: search all of it).
        self.node: Term | None = term
        self.pattern: Term | None = None
        # Summed cost of the frames' completed children.
        self.left = 0

    def search(self, budget: _Budget, first: bool) -> list[StepWitness]:
        """The witnesses from the current point on: the first one, planted
        so that the next search resumes after it, or all of them (term
        unchanged) with innermost eligibility as in `step`."""
        engine = self.engine
        if engine.strategy == "top":
            return self._search_root(budget, first)
        depth = self.depth
        costs = engine.costs
        any_node = engine.strategy == "any"
        stack = self.stack
        node, pattern, left = self.node, self.pattern, self.left
        if node is None and not stack:
            return []
        if left:
            budget.charge(left)
        out: list[StepWitness] = []
        while True:
            if node is not None:
                if pattern is None or pattern.__class__ is not Var:
                    stack.append([node, pattern, 0, 0, False])
                    node = None
                    continue
                # A variable binding: irreducible, its search cost known.
                entry = costs.get(id(node)) if costs else None
                cost = 0 if entry is None else entry[1]
                if cost:
                    budget.charge(cost)
                below = False
                node = None
            else:
                frame = stack[-1]
                t, t_pattern, i = frame[0], frame[1], frame[2]
                args = t.args
                if i < len(args):
                    frame[2] = i + 1
                    node = args[i]
                    pattern = None if t_pattern is None else t_pattern.args[i]
                    continue
                stack.pop()
                cost, below = frame[3], frame[4]
                left -= cost
                if (any_node or not below) and t.symbol.kind == DEFINED:
                    before = budget.steps_left
                    found = engine.attempt(t, budget, depth, first)
                    cost += before - budget.steps_left
                    if found:
                        position = tuple([f[2] for f in stack])
                        if first:
                            rule, sigma, derivations = found[0]
                            w = self._plant(position, rule, sigma, derivations, left)
                            return [w]
                        for rule, sigma, derivations in found:
                            result = replace(self.term, position, sigma.apply(rule.rhs))
                            out.append(
                                StepWitness(position, rule.label, sigma, result, derivations)
                            )
                        below = True
                if cost and not below:
                    costs[id(t)] = (t, cost)
            if not stack:
                self.node, self.left = None, 0
                return out
            frame = stack[-1]
            frame[3] += cost
            left += cost
            if below:
                frame[4] = True

    def _search_root(self, budget: _Budget, first: bool) -> list[StepWitness]:
        term = self.term
        if not (isinstance(term, App) and term.symbol.kind == DEFINED):
            return []
        out = [
            StepWitness(ROOT, rule.label, sigma, sigma.apply(rule.rhs), derivations)
            for rule, sigma, derivations in self.engine.attempt(
                term, budget, self.depth, first
            )
        ]
        if first and out:
            self.term = out[0].result
        return out

    def _plant(self, position, rule, sigma, derivations, left) -> StepWitness:
        """Put sigma(rhs) in place of the redex under the stack's frames,
        giving the frames the new path from the root, and resume there."""
        rhs = sigma.apply(rule.rhs)
        sub = rhs
        for frame in reversed(self.stack):
            t, i = frame[0], frame[2]
            sub = frame[0] = App(t.symbol, t.args[: i - 1] + (sub,) + t.args[i:])
        self.term = sub
        self.node, self.pattern, self.left = rhs, rule.rhs, left
        return StepWitness(position, rule.label, sigma, sub, derivations)


def step(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> list[StepWitness]:
    """All one-step successors of a ground term under the strategy, ordered by
    (leftmost-innermost position, rule textual order). Empty iff the term is a
    normal form under the strategy."""
    _check_strategy(strategy)
    _check_ground(term)
    return _Cursor(_Engine(system, strategy), term, 1).search(_Budget(bounds), False)


def first_step(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> StepWitness | None:
    _check_strategy(strategy)
    _check_ground(term)
    found = _Cursor(_Engine(system, strategy), term, 1).search(_Budget(bounds), True)
    return found[0] if found else None


def derivation(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Iterator[StepWitness]:
    """The successive first steps from term, each as `first_step` of the
    previous result would find it (with its own budget of `bounds`); ends at
    a normal form. Each search resumes where the previous step happened."""
    _check_strategy(strategy)
    cursor = _Cursor(_Engine(system, strategy), term, 1)
    while True:
        _check_ground(cursor.term)
        found = cursor.search(_Budget(bounds), True)
        if not found:
            return
        yield found[0]


def normalize(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Term:
    """Repeatedly apply the first witness until no rule applies."""
    term_, _ = normalize_traced(system, term, strategy, bounds)
    return term_


def normalize_traced(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> tuple[Term, list[StepWitness]]:
    _check_strategy(strategy)
    _check_ground(term)
    return _Engine(system, strategy).normalize(term, _Budget(bounds), 1)


def solve_conditions(
    system: RewriteSystem,
    rule: Rule,
    sigma0: Subst,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Subst | None:
    """Extend sigma0 with bindings satisfying the rule's conditions left to
    right, or None if some condition cannot be satisfied."""
    _check_strategy(strategy)
    solved = _Engine(system, strategy).solve(rule, sigma0, _Budget(bounds), 1)
    return None if solved is None else solved[0]

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
from .programs import RuleProgram, build, run
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
)

STRATEGIES = ("any", "innermost", "constructor", "top")


@dataclass(frozen=True, slots=True)
class Bounds:
    """max_steps caps the rewrite steps that one engine call performs:
    applied steps plus the steps of condition evaluations, those of failed
    rule attempts included. Each rule attempt is made, and counted, once.
    max_depth caps the nesting of condition evaluations."""

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

    def check_depth(self, depth: int) -> None:
        if depth > self.max_depth:
            raise BoundExceeded("condition evaluation depth bound exceeded")


class StepWitness:
    """One rewrite step: sigma(lhs) sits at `position` of the input and
    `result` is the input with sigma(rhs) planted there. One derivation
    (a step sequence) is recorded per condition of the applied rule.

    A witness that the engine records keeps its rule's `program` and the
    `slots` the attempt filled, instead of sigma, and sigma(rhs) and the
    context of its redex, which never changes afterwards, instead of its
    result; `sigma` and `result` are built from them when first read. A
    witness built from a sigma has no program (None)."""

    __slots__ = (
        "position", "rule_label", "sub_witnesses", "program", "slots", "_sigma", "_result", "_link"
    )

    def __init__(
        self,
        position: Position,
        rule_label: str,
        sigma: Subst,
        result: Term,
        sub_witnesses: tuple[tuple["StepWitness", ...], ...] = (),
    ):
        self.position = position
        self.rule_label = rule_label
        self.sub_witnesses = sub_witnesses
        self.program = self.slots = None
        self._sigma = sigma
        self._result = result
        # Not None while _result is the sigma(rhs) to plant in this context.
        self._link = None

    @classmethod
    def _in_context(cls, link, program, slots, rhs, sub_witnesses) -> "StepWitness":
        """The witness of planting rhs in the hole of the context `link`."""
        w = cls.__new__(cls)
        w.position = link[4] if link is not None else ROOT
        w.rule_label = program.rule.label
        w.sub_witnesses = sub_witnesses
        w.program = program
        w.slots = slots
        w._sigma = None
        w._result = rhs
        w._link = link
        return w

    @property
    def sigma(self) -> Subst:
        if self._sigma is None:
            self._sigma = self.program.subst(self.slots)
        return self._sigma

    @property
    def result(self) -> Term:
        if self._link is not None:
            self._result = _plug(self._link, self._result)
            self._link = None
        return self._result

    def _key(self) -> tuple:
        return (self.position, self.rule_label, self.sigma, self.result, self.sub_witnesses)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StepWitness) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"StepWitness(position={self.position!r}, rule_label={self.rule_label!r}, "
            f"sigma={self.sigma!r}, result={self.result!r}, "
            f"sub_witnesses={self.sub_witnesses!r})"
        )


def _plug(link, sub: Term) -> Term:
    """sub planted in the hole of a context: a chain of links (parent link,
    symbol, args, i, position of the hole), each standing for the node
    symbol(args) with its i-th argument replaced by the hole."""
    while link is not None:
        link, symbol, args, i, _ = link
        sub = App(symbol, args[: i - 1] + (sub,) + args[i:])
    return sub


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _check_ground(term: Term) -> None:
    if not is_ground(term):
        raise NotGround(f"cannot rewrite non-ground term {format_term(term)}")


class _Engine:
    """What one top-level call shares with its nested condition evaluations:
    the system, the strategy, and whether steps are recorded as witnesses.

    Rules run as the slot programs of `RewriteSystem.programs`: an attempt
    fills a list of slots, one per rule variable, and builds no dict, no
    Subst and no term but its condition lhs's. A recorded witness keeps the
    program and its slots."""

    __slots__ = ("system", "strategy", "record", "constructor")

    def __init__(self, system: RewriteSystem, strategy: str, record: bool = True):
        self.system = system
        self.strategy = strategy
        self.record = record
        # The constructor strategy binds variables to constructor terms only.
        self.constructor = strategy == "constructor"

    def attempt(
        self, node: App, budget: _Budget, depth: int, first: bool
    ) -> list[tuple[RuleProgram, list[Term], tuple[tuple[StepWitness, ...], ...]]]:
        """The rules (textual order) that rewrite `node` at its root, with
        their filled slots and condition derivations; at most one if first."""
        system = self.system
        if not node.ground and system.rules:
            # As matching any rule would, even one with another root symbol.
            raise NotGround(f"match subject must be ground: {format_term(node)}")
        programs = system.programs.get(node.symbol.name)
        if not programs or programs[0].arity != node.symbol.arity:
            return []
        constructor = self.constructor
        found = []
        for program in programs:
            slots = list(program.init)
            if not run(program.lhs, [node.args], slots, constructor):
                continue
            derivations = self.solve(program, slots, budget, depth)
            if derivations is None:
                continue
            found.append((program, slots, derivations))
            if first:
                break
        return found

    def solve(
        self, program: RuleProgram, slots: list[Term], budget: _Budget, depth: int
    ) -> tuple[tuple[StepWitness, ...], ...] | None:
        """Solve the conditions left to right, binding their slots; the
        derivation of each, or None if one fails."""
        budget.check_depth(depth)
        derivations: list[tuple[StepWitness, ...]] = []
        for lhs, ground, rhs in program.conditions:
            term = build(lhs, slots)
            if not ground:
                raise PreconditionViolated(
                    f"rule {program.rule.label}: condition lhs {format_term(term)} is not ground "
                    "under the accumulated substitution (system is not deterministic)"
                )
            value, steps = self.normalize(term, budget, depth + 1)
            if not is_ground(value):
                raise NotGround(f"match subject must be ground: {format_term(value)}")
            if not run(rhs, [(value,)], slots, self.constructor):
                return None
            derivations.append(tuple(steps))
        return tuple(derivations)

    def normalize(
        self, term: Term, budget: _Budget, depth: int
    ) -> tuple[Term, list[StepWitness]]:
        """The normal form of term and, if the engine records them, the
        witnesses of its steps."""
        cursor = _Cursor(self, term, depth)
        steps: list[StepWitness] = []
        while True:
            found = cursor.search(budget, True)
            if not found:
                return cursor.term, steps
            budget.spend()
            if self.record:
                steps.append(found[0])


class _Cursor:
    """A leftmost-innermost (post-order) search over one term that resumes
    where its last step happened, with the term kept open between steps.

    The zipper is a stack of frames [node, args, pattern, i, below, link],
    one per ancestor of the subterm being searched, root first: node as it
    was entered, its arguments as they are now, and the rule rhs it
    instantiates (None: search all of it); i arguments have been entered,
    below says whether a witness was found under node, and link caches the
    context of the hole at argument i (see `_link`). A step puts sigma(rhs)
    in place of the redex in its parent's args and nothing else: a node
    whose args changed is rebuilt once, when the search leaves it upward,
    and `term` is the whole term only after a search has run to its end.

    After a step at position p, everything before p in post-order is
    unchanged and irreducible, and so is every variable binding of the
    applied rule: a binding is a subterm of the redex's arguments or of a
    condition's normal form. The next search therefore enters only the
    nodes of sigma(rhs) that come from rhs itself (pattern tracks them),
    then the nodes after p. A subterm in which no defined symbol occurs (its
    `constructor` flag is set) holds no redex, so it is never entered.
    """

    __slots__ = ("engine", "depth", "term", "stack", "node", "pattern")

    def __init__(self, engine: _Engine, term: Term, depth: int):
        self.engine = engine
        self.depth = depth
        self.term = term
        self.stack: list[list] = []
        # The subterm to enter next (None: resume at the top frame) and the
        # rule rhs it instantiates (None: search all of it).
        self.node: Term | None = term
        self.pattern: Term | None = None

    def search(self, budget: _Budget, first: bool) -> list[StepWitness]:
        """The witnesses from the current point on: the first one, planted
        so that the next search resumes after it (None in place of the
        witness if the engine records none), or all of them (term
        unchanged) with innermost eligibility as in `step`."""
        engine = self.engine
        if engine.strategy == "top":
            return self._search_root(budget, first)
        depth = self.depth
        any_node = engine.strategy == "any"
        stack = self.stack
        node, pattern = self.node, self.pattern
        out: list[StepWitness] = []
        while stack or node is not None:
            if node is not None:
                # A variable binding is irreducible, and so is a subterm
                # without a defined symbol: neither is entered.
                if (pattern is None or pattern.__class__ is not Var) and not node.constructor:
                    stack.append([node, node.args, pattern, 0, False, None])
                node = None
                continue
            frame = stack[-1]
            args, i = frame[1], frame[3]
            if i < len(args):
                frame[3] = i + 1
                node = args[i]
                t_pattern = frame[2]
                pattern = None if t_pattern is None else t_pattern.args[i]
                continue
            stack.pop()
            t = frame[0]
            if args is not t.args:
                t = App(t.symbol, args)
                if stack:
                    self._put(t)
                else:
                    self.term = t
            below = frame[4]
            if (any_node or not below) and t.symbol.kind == DEFINED:
                found = engine.attempt(t, budget, depth, first)
                if found:
                    link = self._link() if stack and engine.record else None
                    if first:
                        program, slots, derivations = found[0]
                        rhs = build(program.rhs, slots)
                        if stack:
                            self._put(rhs)
                        else:
                            self.term = rhs
                        self.node, self.pattern = rhs, program.rule.rhs
                        if not engine.record:
                            return [None]
                        return [StepWitness._in_context(link, program, slots, rhs, derivations)]
                    for program, slots, derivations in found:
                        rhs = build(program.rhs, slots)
                        out.append(StepWitness._in_context(link, program, slots, rhs, derivations))
                    below = True
            if below and stack:
                stack[-1][4] = True
        self.node = None
        return out

    def _put(self, t: Term) -> None:
        """Put t in the hole under the top frame. The frame's cached link
        stays good: a link ignores what its hole holds."""
        frame = self.stack[-1]
        args, i = frame[1], frame[3]
        frame[1] = args[: i - 1] + (t,) + args[i:]

    def _link(self):
        """The context of the hole under the top frame: a chain of links
        (parent link, symbol, args, i, position of the hole), root last.
        A frame's cached link is good while the frame's i is the link's,
        and i changes only while the frame is the top one; so only the
        frames entered or moved on since the last call get a new link."""
        stack = self.stack
        k = len(stack)
        while k:
            frame = stack[k - 1]
            if frame[5] is not None and frame[5][3] == frame[3]:
                break
            k -= 1
        link = stack[k - 1][5] if k else None
        for frame in stack[k:]:
            i = frame[3]
            position = (link[4] if link is not None else ROOT) + (i,)
            link = frame[5] = (link, frame[0].symbol, frame[1], i, position)
        return link

    def _search_root(self, budget: _Budget, first: bool) -> list[StepWitness]:
        term = self.term
        if not (isinstance(term, App) and term.symbol.kind == DEFINED):
            return []
        engine = self.engine
        out = []
        for program, slots, derivations in engine.attempt(term, budget, self.depth, first):
            rhs = build(program.rhs, slots)
            if first:
                self.term = rhs
                if not engine.record:
                    return [None]
            out.append(StepWitness._in_context(None, program, slots, rhs, derivations))
        return out


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
    a normal form. Each search resumes where the previous step happened,
    and the term stays open in between: read a witness's result to see the
    term after its step."""
    _check_strategy(strategy)
    _check_ground(term)
    cursor = _Cursor(_Engine(system, strategy), term, 1)
    last = None
    while True:
        found = cursor.search(_Budget(bounds), True)
        if not found:
            if last is not None and last._link is not None:
                # The search that found nothing closed the term.
                last._result, last._link = cursor.term, None
            return
        last = found[0]
        yield last
        # The term was ground before this step, so it is now iff what the
        # step planted is: _result holds that, or the whole term once
        # result has been read.
        if not is_ground(last._result):
            _check_ground(last.result)


def normalize(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Term:
    """Repeatedly apply the first witness until no rule applies. No
    witness is recorded."""
    _check_strategy(strategy)
    _check_ground(term)
    engine = _Engine(system, strategy, record=False)
    return engine.normalize(term, _Budget(bounds), 1)[0]


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
    right, or None if some condition cannot be satisfied. The rule is
    compiled against sigma0's bindings to ground terms; a binding to a
    non-ground term counts as unbound, and shows in error messages."""
    _check_strategy(strategy)
    program = RuleProgram(rule, sigma0)
    slots = list(program.init)
    solved = _Engine(system, strategy, record=False).solve(program, slots, _Budget(bounds), 1)
    return None if solved is None else program.subst(slots)

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
from .programs import RuleProgram
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
    max_depth caps the nesting of condition evaluations: it counts the
    levels on the engine's own stack (see `_Engine`), the call's own
    included. Conditions take no Python recursion, so their nesting never
    meets Python's recursion limit."""

    max_steps: int = 10000
    max_depth: int = 100

    def __post_init__(self) -> None:
        if self.max_steps < 1 or self.max_depth < 1:
            raise ValueError("bounds must be positive")


DEFAULT_BOUNDS = Bounds()


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

    def _flat(self) -> list[tuple]:
        """The witness and its sub-witnesses in pre-order, each as its
        position, rule label, sigma, result and the lengths of its
        sub-derivations: two witnesses are equal iff these lists are. Built
        on a stack, so condition nesting takes no recursion."""
        out = []
        stack = [self]
        while stack:
            w = stack.pop()
            out.append((w.position, w.rule_label, w.sigma, w.result, tuple(map(len, w.sub_witnesses))))
            for steps in reversed(w.sub_witnesses):
                stack.extend(reversed(steps))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StepWitness) and (self is other or self._flat() == other._flat())

    def __hash__(self) -> int:
        return hash(tuple(self._flat()))

    def __repr__(self) -> str:
        # Text and witnesses still to print, top first: sub-witnesses go on
        # the stack, so condition nesting takes no recursion.
        out: list[str] = []
        stack: list = [self]
        while stack:
            w = stack.pop()
            if w.__class__ is str:
                out.append(w)
                continue
            out.append(
                f"StepWitness(position={w.position!r}, rule_label={w.rule_label!r}, "
                f"sigma={w.sigma!r}, result={w.result!r}, sub_witnesses="
            )
            stack.append(")")
            pieces = _tuple_pieces(w.sub_witnesses, lambda steps: _tuple_pieces(steps, lambda x: [x]))
            stack.extend(reversed(pieces))
        return "".join(out)


def _tuple_pieces(items: tuple, pieces) -> list:
    """repr(items) in pieces: its punctuation, and each element's pieces as
    `pieces` gives them."""
    out = ["("]
    for k, x in enumerate(items):
        if k:
            out.append(", ")
        out += pieces(x)
    if len(items) == 1:
        out.append(",")
    out.append(")")
    return out


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


# What the bottom level of an engine run does; every level above it
# normalizes a condition's left-hand side.
_NORMALIZE, _FIRST, _ALL, _SOLVE = range(4)


class _Engine:
    """One top-level call: the system, the strategy, and whether steps are
    recorded as witnesses.

    Rules run as the slot programs of `RewriteSystem.programs`: an attempt
    fills a list of slots, one per rule variable, and builds no dict, no
    Subst and no term but its condition lhs's. A recorded witness keeps the
    program and its slots.

    `run` is one loop over an explicit stack of levels (the recursive
    evaluator's continuation, defunctionalized: Ager, Biernacki, Danvy and
    Midtgaard, PPDP 2003). A level is one normalization in progress: its
    cursor, its recorded steps, and the pending rule attempt at the node
    where its search stopped (the node, its rule programs, the index of the
    program tried, its slots, the index of the condition to solve next and
    the derivations of those before it). Solving a condition pushes a level
    for the instantiated condition lhs; when that level reaches a normal
    form it pops, and its parent matches the condition rhs against the
    value. A closed lhs is first tried against its root's programs: if none
    matches, or the first that does has no conditions and builds a
    constructor term, that is the value, with no level pushed. A failed
    match moves the parent on to its next rule program; once the last
    condition holds, the parent plants the rhs and spends the step."""

    __slots__ = ("system", "record", "constructor", "top", "any_node")

    def __init__(self, system: RewriteSystem, strategy: str, record: bool = True):
        self.system = system
        self.record = record
        # The constructor strategy binds variables to constructor terms only.
        self.constructor = strategy == "constructor"
        self.top = strategy == "top"
        self.any_node = strategy == "any"

    def cursor(self, term: Term | None) -> "_Cursor":
        """A cursor over term (None: over nothing, so it has no candidate)."""
        return _Cursor(term, self.top, self.any_node)

    def run(
        self,
        cursor: "_Cursor",
        bounds: Bounds,
        mode: int,
        program: RuleProgram | None = None,
        slots: list[Term] | None = None,
    ):
        """Run the machine from a bottom level searching with `cursor`,
        under a budget of `bounds`. By mode, it returns:

        - _NORMALIZE: the normal form and the recorded witnesses;
        - _FIRST: the witness of the first step, planted so that the next
          run on the cursor resumes after it, or None at a normal form;
        - _ALL: every witness from the cursor on, nothing planted, with
          innermost eligibility as in `step`;
        - _SOLVE: the derivations of `program`'s conditions, solved from
          `slots` on, which they bind, or None if one fails."""
        record, constructor = self.record, self.constructor
        top, any_node = self.top, self.any_node
        table = self.system.programs
        check_ground = bool(self.system.rules)
        steps_left, max_depth = bounds.max_steps, bounds.max_depth
        # The levels below the current one, bottom first, each waiting for
        # the normal form of its pending condition's lhs: (cursor, steps,
        # node, programs, k, slots, c, derivations).
        parents: list[tuple] = []
        # The current level. program is None while no lhs match is pending:
        # then programs[k:] are the rule programs left to try at node.
        steps: list[StepWitness] = []
        node = None
        programs: tuple[RuleProgram, ...] = ()
        k = c = 0
        derivations: list[tuple[StepWitness, ...]] = []
        if program is not None:
            programs = (program,)
        # len(programs) and len(parents), kept as counts.
        n = len(programs)
        depth = 0
        found: list[StepWitness] = []
        # Once known, the value of program's condition c (its steps: sub).
        value = None
        while True:
            if program is None:
                # The rule programs left at node, tried in turn.
                while k < n:
                    slots = programs[k].lhs(node, constructor)
                    if slots is not None:
                        break
                    k += 1
                if k < n:
                    program = programs[k]
                    if depth >= max_depth:
                        raise BoundExceeded("condition evaluation depth bound exceeded")
                    c = 0
                    derivations = []
                else:
                    if cursor is None:
                        # A closed level: its term is node.
                        value = node
                    else:
                        node = cursor.next_candidate()
                        if node is not None:
                            if check_ground and not node.ground:
                                # As matching any rule would, even one with
                                # another root symbol.
                                raise NotGround(f"match subject must be ground: {format_term(node)}")
                            programs = table.get(node.symbol.name, ())
                            n = len(programs)
                            k = 0
                            continue
                        value = cursor.term
                    # The level has reached a normal form.
                    if not depth:
                        if mode == _NORMALIZE:
                            return value, steps
                        return found if mode == _ALL else None
                    sub = steps
                    cursor, steps, node, programs, k, slots, c, derivations = parents.pop()
                    depth -= 1
                    n = len(programs)
                    program = programs[k]
            if value is not None:
                if value.__class__ is not App or not value.ground:
                    raise NotGround(f"match subject must be ground: {format_term(value)}")
                if not program.conditions[c][2](value, slots, constructor):
                    value = program = None
                    k += 1
                    continue
                value = None
                if record:
                    derivations.append(tuple(sub))
                c += 1
            # The lhs of program matched and its conditions before c hold.
            conditions = program.conditions
            if c < len(conditions):
                lhs, ground, _ = conditions[c]
                term = lhs(slots)
                if not ground:
                    raise PreconditionViolated(
                        f"rule {program.rule.label}: condition lhs {format_term(term)} is not "
                        "ground under the accumulated substitution (system is not deterministic)"
                    )
                # A closed term (root defined; under top or its arguments
                # constructor terms) is its own first candidate: tried here.
                closed = term.symbol.kind == DEFINED
                if closed and not top:
                    for a in term.args:
                        if not a.constructor:
                            closed = False
                            break
                if closed:
                    leaf = table.get(term.symbol.name, ())
                    for p in leaf:
                        s = p.lhs(term, constructor)
                        if s is not None:
                            break
                    else:
                        value, sub = term, ()  # the call is its own value
                        continue
                    if depth >= max_depth - 1:
                        raise BoundExceeded("condition evaluation depth bound exceeded")
                    if p.conditions:
                        # p pending, and no cursor until a step changes term.
                        parents.append((cursor, steps, node, programs, k, slots, c, derivations))
                        depth += 1
                        steps, derivations, cursor, node = [], [], None, term
                        programs, n, k, program, slots, c = leaf, len(leaf), leaf.index(p), p, s, 0
                        continue
                    # p's step; a constructor term it leaves is the value.
                    term = p.rhs(s)
                    sub = [StepWitness._in_context(None, p, s, term, ())] if record else []
                    if steps_left <= 0:
                        raise BoundExceeded("step bound exceeded")
                    steps_left -= 1
                    if term.__class__ is App and term.constructor:
                        value = term
                        continue
                    pattern = p.rule.rhs
                else:
                    sub, pattern = [], None
                parents.append((cursor, steps, node, programs, k, slots, c, derivations))
                depth += 1
                steps = sub
                cursor = _Cursor(term, top, any_node)
                cursor.pattern = pattern
                programs, n, k, program = (), 0, 0, None
                continue
            # The rule applies at node.
            if depth or mode == _NORMALIZE:
                rhs = program.rhs(slots)
                if record:
                    steps.append(
                        StepWitness._in_context(
                            None if cursor is None else cursor.link(),
                            program, slots, rhs, tuple(derivations),
                        )
                    )
                if cursor is not None:
                    cursor.plant(rhs, program.rule.rhs)
                elif rhs.__class__ is App and rhs.constructor:
                    # The closed level's step leaves no candidate: its
                    # normal form is rhs.
                    node = rhs
                else:
                    cursor = _Cursor(rhs, top, any_node)
                    cursor.pattern = program.rule.rhs
                if steps_left <= 0:
                    raise BoundExceeded("step bound exceeded")
                steps_left -= 1
                programs, n, k, program = (), 0, 0, None
                continue
            if mode == _SOLVE:
                return derivations
            rhs = program.rhs(slots)
            witness = StepWitness._in_context(
                cursor.link(), program, slots, rhs, tuple(derivations)
            )
            if mode == _FIRST:
                cursor.plant(rhs, program.rule.rhs)
                return witness
            found.append(witness)
            cursor.mark()
            program = None
            k += 1


class _Cursor:
    """A leftmost-innermost (post-order) search over one term that resumes
    where its last step happened, with the term kept open between steps.
    `next_candidate` walks on to the next node at which a rule may apply;
    `plant` puts a step's rhs in its place.

    The zipper is a stack of frames [node, args, pattern, i, below, link],
    one per ancestor of the subterm being searched, root first: node as it
    was entered, its arguments as they are now, and the rule rhs it
    instantiates (None: search all of it); i arguments have been entered,
    below says whether a witness was found under node, and link caches the
    context of the hole at argument i (see `link`). A step puts sigma(rhs)
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

    Under the `top` strategy the only candidate is the root, once per step.
    """

    __slots__ = ("term", "stack", "node", "pattern", "top", "any_node")

    def __init__(self, term: Term | None, top: bool, any_node: bool):
        self.term = term
        self.stack: list[list] = []
        # The subterm to enter next (None: resume at the top frame) and the
        # rule rhs it instantiates (None: search all of it).
        self.node: Term | None = term
        self.pattern: Term | None = None
        self.top = top
        self.any_node = any_node

    def next_candidate(self) -> App | None:
        """The next node, closed, whose root is defined and at which a step
        is eligible (innermost: no witness was found below it), or None at
        the end of the term. Its frame is popped: the top frame is now its
        parent's."""
        node = self.node
        self.node = None
        if self.top:
            if node is not None and node.__class__ is App and node.symbol.kind == DEFINED:
                return node
            return None
        any_node = self.any_node
        stack = self.stack
        pattern = self.pattern
        while stack or node is not None:
            if node is not None:
                # A variable binding is irreducible, and so is a subterm
                # without a defined symbol: neither is entered.
                if (pattern is None or pattern.__class__ is not Var) and not node.constructor:
                    if node.ground:
                        for a in node.args:
                            if not a.constructor:
                                break
                        else:
                            # No argument is entered: the node is closed,
                            # nothing below it is a witness, and its root
                            # is defined.
                            return node
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
            if below and stack:
                stack[-1][4] = True
            if (any_node or not below) and t.symbol.kind == DEFINED:
                return t
        return None

    def plant(self, rhs: Term, pattern: Term) -> None:
        """Put rhs, an instance of the rule rhs pattern, in place of the
        last candidate; the next search enters it first."""
        if self.stack:
            self._put(rhs)
        else:
            self.term = rhs
        self.node, self.pattern = rhs, pattern

    def mark(self) -> None:
        """Record that a witness was found at the last candidate."""
        if self.stack:
            self.stack[-1][4] = True

    def _put(self, t: Term) -> None:
        """Put t in the hole under the top frame. The frame's cached link
        stays good: a link ignores what its hole holds."""
        frame = self.stack[-1]
        args, i = frame[1], frame[3]
        frame[1] = args[: i - 1] + (t,) + args[i:]

    def link(self):
        """The context of the last candidate, the hole under the top frame:
        a chain of links (parent link, symbol, args, i, position of the
        hole), root last; None at the root. A frame's cached link is good
        while the frame's i is the link's, and i changes only while the
        frame is the top one; so only the frames entered or moved on since
        the last call get a new link."""
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
    engine = _Engine(system, strategy)
    return engine.run(engine.cursor(term), bounds, _ALL)


def first_step(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> StepWitness | None:
    _check_strategy(strategy)
    _check_ground(term)
    engine = _Engine(system, strategy)
    return engine.run(engine.cursor(term), bounds, _FIRST)


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
    engine = _Engine(system, strategy)
    cursor = engine.cursor(term)
    last = None
    while True:
        found = engine.run(cursor, bounds, _FIRST)
        if found is None:
            if last is not None and last._link is not None:
                # The search that found nothing closed the term.
                last._result, last._link = cursor.term, None
            return
        last = found
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
    return engine.run(engine.cursor(term), bounds, _NORMALIZE)[0]


def normalize_traced(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> tuple[Term, list[StepWitness]]:
    _check_strategy(strategy)
    _check_ground(term)
    engine = _Engine(system, strategy)
    return engine.run(engine.cursor(term), bounds, _NORMALIZE)


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
    engine = _Engine(system, strategy, record=False)
    solved = engine.run(engine.cursor(None), bounds, _SOLVE, program, slots)
    return None if solved is None else program.subst(slots)

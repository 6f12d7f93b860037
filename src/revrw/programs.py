"""Rules compiled to flat programs over variable slots (Graf, Term Indexing,
LNCS 1053, 1996).

A rule's variables are numbered into slots in the order the compiler meets
them: the left-hand side as `terms.match` visits it, then each condition's
left- and right-hand side, then the right-hand side;
a rule attempt fills a list with one slot per variable, starting from
`Var(name)` in each, so a slot that was never bound instantiates to the
variable itself, as `Subst.apply` leaves a variable it does not bind.

A match program is a tuple of ops `(register, index, op, operand)`, run in
order: the op reads argument `index` of the argument tuple in `register`.
Register 0 holds the subject's arguments (a rule's left-hand side) or the
one-tuple of the subject itself (a condition's right-hand side); each
SYMBOL op that succeeds appends the arguments of the node it tested as the
next register. The ops are:

- SYMBOL: the node's symbol is the operand, by identity or else by name
  and arity, as `Symbol` equality has it;
- BIND: the slot numbered by the operand takes the node;
- SAME: the node equals what the slot numbered by the operand holds;
- EQUAL: the node equals the operand, a ground term.

A template is a tuple of ops `(op, operand)` in postfix order: SLOT pushes
a slot, CONST a ground term, BUILD applies a symbol to as many terms as it
has arguments, popped from the top of the stack.

A rule also compiles, for backward playback, to a `ReplayProgram`: its
right-hand side as a match program over the focus, its conditions last to
first, and its left-hand side as a template.

Compiled programs give the results of `terms.match` and `Subst.apply` on
the same inputs; the tests compare them.
"""

from __future__ import annotations

from .terms import App, EMPTY_SUBST, Subst, Term, Var

SYMBOL, BIND, SAME, EQUAL = range(4)
SLOT, CONST, BUILD = range(3)


class RuleProgram:
    """One rule compiled once.

    - `names`: the rule's variables, one per slot; `init`, the slots'
      contents before an attempt;
    - `lhs`: the match program over the subject's arguments, which binds
      the left-hand side's variables (empty when compiled against given
      bindings); `arity`, the arity of the left-hand side's root;
    - `conditions`: per condition, its left-hand side as a template,
      whether that template is ground given the slots bound before it (a
      deterministic system needs it to be), and its right-hand side as a
      match program over the normal form, where a variable already bound is
      a SAME op;
    - `rhs`: the right-hand side as a template;
    - `safe`: the safety domain it is given (the variables a trace term
      records), as (name, slot) pairs by name.
    """

    __slots__ = ("rule", "arity", "names", "init", "lhs", "conditions", "rhs", "safe")

    def __init__(self, rule, given: Subst | None = None, domain: frozenset[str] = frozenset()):
        self.rule = rule
        self.names: list[str] = []
        slot = _numbering(self.names)

        init: list[Term] = []
        if given is None:
            known: set[str] = set()
            self.lhs = _matcher(rule.lhs.args, known, slot)
        else:
            # Compiled against given bindings: those to ground terms are
            # bound; any other keeps its term, and reads as unbound.
            for name, t in given.items():
                slot(name)
                init.append(t)
            known = {name for name, t in given.items() if t.__class__ is App and t.ground}
            self.lhs = ()
        self.arity = rule.lhs.symbol.arity
        conditions = []
        for c in rule.conditions:
            lhs = _template(c.lhs, slot)
            ground = all(self.names[op[1]] in known for op in lhs if op[0] == SLOT)
            conditions.append((lhs, ground, _matcher((c.rhs,), known, slot)))
        self.conditions = tuple(conditions)
        self.rhs = _template(rule.rhs, slot)
        self.safe = tuple((name, slot(name)) for name in sorted(domain))
        init += (Var(name) for name in self.names[len(init):])
        self.init = tuple(init)

    def subst(self, slots: list[Term]) -> Subst:
        """The bindings of an attempt's slots (an unbound slot holds its own
        variable, an identity binding, which Subst drops)."""
        return Subst(zip(self.names, slots))

    def recorded(self, slots: list[Term]) -> Subst:
        """The bindings of the safety domain's slots: what a trace term
        records. Every empty one is the same Subst."""
        if not self.safe:
            return EMPTY_SUBST
        return Subst({name: slots[k] for name, k in self.safe})


class ReplayProgram:
    """One rule compiled once for backward playback, which undoes a step
    from its result: the rule's label picks it, matching the right-hand
    side against the focus binds the right-hand side's variables, the
    trace term's recorded bindings fill the safety domain, and each
    condition, last to first, replays its sub-trace from its right-hand
    side's instance and matches its left-hand side against the value.

    - `init`: as in `RuleProgram`;
    - `rhs`: the right-hand side as a match program over the one-tuple of
      the focus;
    - `safe`: the safety domain, whose bindings the trace term records, as
      (name, slot) pairs by name;
    - `conditions`: last to first, the condition's index, its right-hand
      side as a template, and its left-hand side as a match program over
      the one-tuple of the replayed value, where a variable bound by then
      is a SAME op;
    - `lhs`: the left-hand side as a template.
    """

    __slots__ = ("rule", "init", "rhs", "safe", "conditions", "lhs")

    def __init__(self, rule, domain: frozenset[str]):
        self.rule = rule
        names: list[str] = []
        slot = _numbering(names)
        known: set[str] = set()
        self.rhs = _matcher((rule.rhs,), known, slot)
        self.safe = tuple((name, slot(name)) for name in sorted(domain))
        known |= domain
        self.conditions = tuple(
            (i, _template(c.rhs, slot), _matcher((c.lhs,), known, slot))
            for i, c in reversed(tuple(enumerate(rule.conditions)))
        )
        self.lhs = _template(rule.lhs, slot)
        self.init = tuple(Var(name) for name in names)


def _numbering(names: list[str]):
    """The slot of a variable name: its index in names, where a name met
    for the first time is appended."""
    slot_of: dict[str, int] = {}

    def slot(name: str) -> int:
        k = slot_of.get(name)
        if k is None:
            k = slot_of[name] = len(names)
            names.append(name)
        return k

    return slot


def _matcher(patterns: tuple[Term, ...], known: set[str], slot) -> tuple:
    """The match program of patterns against the arguments in register 0.
    A variable in `known` is compared with its slot; any other is bound,
    and added to `known`."""
    program = []
    registers = 1
    # Arguments right to left, as terms.match visits them, so that a
    # repeated variable is bound at the occurrence where match binds it.
    stack = [(p, 0, i) for i, p in enumerate(patterns)]
    while stack:
        p, register, i = stack.pop()
        if p.__class__ is Var:
            if p.name in known:
                program.append((register, i, SAME, slot(p.name)))
            else:
                known.add(p.name)
                program.append((register, i, BIND, slot(p.name)))
        elif p.args and p.ground:
            program.append((register, i, EQUAL, p))
        else:
            program.append((register, i, SYMBOL, p.symbol))
            stack.extend((a, registers, j) for j, a in enumerate(p.args))
            registers += 1
    return tuple(program)


def _template(t: Term, slot) -> tuple:
    ops = []
    # Terms still to compile, and symbols whose arguments are compiled.
    stack: list = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            ops.append((SLOT, slot(u.name)))
        elif u.__class__ is App:
            if u.ground:
                ops.append((CONST, u))
            else:
                stack.append(u.symbol)
                stack.extend(reversed(u.args))
        else:
            ops.append((BUILD, u))
    return tuple(ops)


def run(program: tuple, registers: list, slots: list[Term], constructor: bool) -> bool:
    """Run a match program from the given registers, binding slots. With
    `constructor`, a slot may only be bound to a constructor term."""
    for register, i, op, operand in program:
        t = registers[register][i]
        if op == SYMBOL:
            s = t.symbol
            if s is not operand and (s.name != operand.name or s.arity != operand.arity):
                return False
            registers.append(t.args)
        elif op == BIND:
            if constructor and not t.constructor:
                return False
            slots[operand] = t
        elif op == SAME:
            bound = slots[operand]
            if t is not bound and t != bound:
                return False
        elif t != operand:
            return False
    return True


def build(template: tuple, slots: list[Term]) -> Term:
    """The template instantiated with the slots."""
    stack: list[Term] = []
    for op, operand in template:
        if op == SLOT:
            stack.append(slots[operand])
        elif op == CONST:
            stack.append(operand)
        else:
            n = operand.arity
            args = tuple(stack[-n:])
            del stack[-n:]
            stack.append(App(operand, args))
    return stack[0]

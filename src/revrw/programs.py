"""Rules compiled to Python functions over variable slots (Graf, Term
Indexing, LNCS 1053, 1996; Kamperman and Walters, ARM, 1993).

A rule's variables are numbered into slots in the order the compiler meets
them: the left-hand side as `terms.match` visits it, then each condition's
left- and right-hand side, then the right-hand side. A rule attempt fills a
list with one slot per variable; a slot that was never bound holds
`Var(name)`, so it instantiates to the variable itself, as `Subst.apply`
leaves a variable it does not bind.

Each side of a rule is first compiled to ops:

- a match program is a tuple of ops `(register, index, op, operand)`, run
  in order: the op reads argument `index` of the argument tuple in
  `register`. Register 0 holds the subject's arguments (a rule's left-hand
  side) or the one-tuple of the subject itself (a condition's right-hand
  side); each SYMBOL op that succeeds appends the arguments of the node it
  tested as the next register. SYMBOL tests the node's symbol, the operand,
  by identity or else by name and arity, as `Symbol` equality has it; BIND
  puts the node in the slot numbered by the operand; SAME tests that the
  node equals that slot's term; EQUAL that it equals the operand, a ground
  term;
- a template is a tuple of ops `(op, operand)` in postfix order: SLOT
  pushes a slot, CONST a ground term, BUILD applies a symbol to as many
  terms as it has arguments, popped from the top of the stack.

The ops are then turned into the source text of Python functions, compiled
with `compile` and `exec`, as `collections.namedtuple` builds its methods
(Moreau, Ringeissen and Vittek, A pattern matching compiler for multiple
target languages, CC 2003). A match program becomes straight-line tests
over locals, and a left-hand side's matcher builds its slot list only when
it succeeds. A template becomes one nested expression of `terms.assemble`
calls, whose flags are worked out when the code is generated, except for
the `constructor` flags of the slots' terms, which the expression reads: a
slot that a match bound holds a ground term, as the engine and backward
playback check their subjects. A node over a slot that may be unbound is
built by `App`, which works out both flags. The text is made only
of keywords and generated names: every symbol, constant and variable
reaches the code through its globals dict, so no name from a `.trs` file
is ever part of it.

A system compiles its rules to ops on its first rule attempt
(`RewriteSystem.programs`) or backward step (`RewriteSystem.replays`), and
each rule to code on its own first attempt or replay; nothing is generated
on import. `tests/oracles.py` interprets the ops as the reference, and the
tests compare the generated code with it, with `terms.match` and with
`Subst.apply`.
"""

from __future__ import annotations

from .terms import DEFINED, EMPTY_SUBST, App, Subst, Term, Var, assemble

SYMBOL, BIND, SAME, EQUAL = range(4)
SLOT, CONST, BUILD = range(3)


class _Generated:
    """A rule's `lhs`, `conditions` and `rhs` as generated code, made on
    first use by `_load` from the text `_code` writes; `source` is that
    text."""

    __slots__ = ()

    def _load(self) -> None:
        namespace = self._code().compile()
        self.lhs, self.conditions, self.rhs = namespace["lhs"], namespace["conditions"], namespace["rhs"]

    @property
    def source(self) -> str:
        return self._code().source()


class RuleProgram(_Generated):
    """One rule compiled once: to ops when it is built, to code on its
    first attempt.

    - `names`: the rule's variables, one per slot; `init`, the slots'
      contents before an attempt;
    - `lhs(args, constructor)`: the matcher of the left-hand side against
      the subject's arguments: a new list of slots, or None (None itself
      when compiled against given bindings); `arity`, the arity of the
      left-hand side's root;
    - `conditions`: per condition, the builder of its left-hand side from
      the slots, whether that is ground given the slots bound before it (a
      deterministic system needs it to be), and the matcher
      `(value, slots, constructor)` of its right-hand side against the
      normal form, which binds slots and tells whether it matched;
    - `rhs(slots)`: the builder of the right-hand side;
    - `safe`: the safety domain it is given (the variables a trace term
      records), as (name, slot) pairs by name;
    - `lhs_ops`, `condition_ops` and `rhs_ops`: the same as ops.

    With `constructor`, a matcher binds a slot only to a constructor term.
    Until the first attempt, `lhs` generates the code and `conditions` and
    `rhs` are None.
    """

    __slots__ = (
        "rule", "arity", "names", "init", "safe", "lhs", "conditions", "rhs",
        "lhs_ops", "condition_ops", "rhs_ops",
    )

    def __init__(self, rule, given: Subst | None = None, domain: frozenset[str] = frozenset()):
        self.rule = rule
        self.names: list[str] = []
        slot = _numbering(self.names)

        init: list[Term] = []
        if given is None:
            known: set[str] = set()
            self.lhs_ops = _matcher(rule.lhs.args, known, slot)
        else:
            # Compiled against given bindings: those to ground terms are
            # bound; any other keeps its term, and reads as unbound.
            for name, t in given.items():
                slot(name)
                init.append(t)
            known = {name for name, t in given.items() if t.__class__ is App and t.ground}
            self.lhs_ops = ()
        self.arity = rule.lhs.symbol.arity
        conditions = []
        for c in rule.conditions:
            lhs = _template(c.lhs, slot)
            ground = all(self.names[op[1]] in known for op in lhs if op[0] == SLOT)
            conditions.append((lhs, ground, _matcher((c.rhs,), known, slot)))
        self.condition_ops = tuple(conditions)
        self.rhs_ops = _template(rule.rhs, slot)
        self.safe = tuple((name, slot(name)) for name in sorted(domain))
        init += (Var(name) for name in self.names[len(init):])
        self.init = tuple(init)
        self.conditions = self.rhs = None
        if given is None:
            self.lhs = self._first_attempt
        else:
            self.lhs = None
            self._load()

    def _first_attempt(self, args: tuple[Term, ...], constructor: bool) -> list[Term] | None:
        self._load()
        return self.lhs(args, constructor)

    def _code(self) -> "_Code":
        code = _Code(self.init)
        # The slots bound to ground terms: given ones, then those each
        # match program binds.
        bound = {k for k, t in enumerate(self.init) if t.__class__ is App and t.ground}
        lhs = "None"
        if self.lhs is not None:
            lhs = code.matcher(self.lhs_ops, single=False, into=False, check=True)
            bound |= _binds(self.lhs_ops)
        conditions = []
        for template, ground, program in self.condition_ops:
            builder = code.builder(template, bound)
            matcher = code.matcher(program, single=True, into=True, check=True)
            conditions.append(f"({builder}, {ground}, {matcher})")
            bound |= _binds(program)
        return code.assign(lhs, conditions, code.builder(self.rhs_ops, bound))

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


class ReplayProgram(_Generated):
    """One rule compiled once for backward playback, which undoes a step
    from its result: the rule's label picks it, matching the right-hand
    side against the focus binds the right-hand side's variables, the
    trace term's recorded bindings fill the safety domain, and each
    condition, last to first, replays its sub-trace from its right-hand
    side's instance and matches its left-hand side against the value.

    - `init`: as in `RuleProgram`;
    - `rhs(focus)`: the matcher of the right-hand side against the focus:
      a new list of slots, or None;
    - `safe`: the safety domain, whose bindings the trace term records, as
      (name, slot) pairs by name;
    - `conditions`: last to first, the condition's index, the builder of
      its right-hand side from the slots, and the matcher `(value, slots)`
      of its left-hand side against the replayed value, which binds slots
      and tells whether it matched;
    - `lhs(slots)`: the builder of the left-hand side;
    - `rhs_ops`, `condition_ops` and `lhs_ops`: the same as ops.

    It is compiled to ops when it is built, to code when it first replays a
    step: until then, `rhs` generates the code and `conditions` and `lhs`
    are None.
    """

    __slots__ = (
        "rule", "init", "safe", "rhs", "conditions", "lhs",
        "rhs_ops", "condition_ops", "lhs_ops",
    )

    def __init__(self, rule, domain: frozenset[str]):
        self.rule = rule
        names: list[str] = []
        slot = _numbering(names)
        known: set[str] = set()
        self.rhs_ops = _matcher((rule.rhs,), known, slot)
        self.safe = tuple((name, slot(name)) for name in sorted(domain))
        known |= domain
        self.condition_ops = tuple(
            (i, _template(c.rhs, slot), _matcher((c.lhs,), known, slot))
            for i, c in reversed(tuple(enumerate(rule.conditions)))
        )
        self.lhs_ops = _template(rule.lhs, slot)
        self.init = tuple(Var(name) for name in names)
        self.rhs = self._first_replay
        self.conditions = self.lhs = None

    def _first_replay(self, focus: App) -> list[Term] | None:
        self._load()
        return self.rhs(focus)

    def _code(self) -> "_Code":
        code = _Code(self.init)
        rhs = code.matcher(self.rhs_ops, single=True, into=False, check=False)
        # The slots bound to ground terms: by the rhs, by the trace term,
        # then by each condition's lhs.
        bound = _binds(self.rhs_ops) | {k for _, k in self.safe}
        conditions = []
        for i, template, program in self.condition_ops:
            builder = code.builder(template, bound)
            matcher = code.matcher(program, single=True, into=True, check=False)
            conditions.append(f"({i}, {builder}, {matcher})")
            bound |= _binds(program)
        return code.assign(code.builder(self.lhs_ops, bound), conditions, rhs)


def _binds(program: tuple) -> set[int]:
    """The slots a match program binds."""
    return {operand for _, _, op, operand in program if op == BIND}


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


# A template node nests at most this many calls deep, and reads at most
# this many `constructor` flags, before it is built into a local of its
# own: Python's parser limits the nesting of brackets, and each flag a node
# reads is read again by every node above it in the same expression.
_MAX_NESTING = 16
_MAX_FLAGS = 8


class _Code:
    """The source text and globals of one rule's generated functions."""

    __slots__ = ("init", "lines", "env", "refs", "count")

    def __init__(self, init: tuple[Term, ...]):
        self.init = init
        self.lines: list[str] = []
        self.env: dict[str, object] = {"_assemble": assemble, "_App": App}
        self.refs: dict[int, str] = {}
        self.count = 0

    def ref(self, obj: object) -> str:
        """The global that holds obj: a symbol, a constant or a variable."""
        name = self.refs.get(id(obj))
        if name is None:
            name = self.refs[id(obj)] = f"g{len(self.refs)}"
            self.env[name] = obj
        return name

    def function(self, params: str, body: list[str]) -> str:
        name = f"f{self.count}"
        self.count += 1
        self.lines.append(f"def {name}({params}):")
        self.lines.extend("    " + line for line in body)
        return name

    def matcher(self, program: tuple, single: bool, into: bool, check: bool) -> str:
        """A function running the match program. With `single`, it takes the
        subject itself, else its argument tuple; with `into`, it also takes
        the slot list, binds slots in it and returns whether it matched,
        else it returns a new slot list or None; with `check`, it takes the
        constructor flag."""
        fail = "return False" if into else "return None"
        body: list[str] = []
        bound: list[int] = []
        registers = 1
        for register, i, op, operand in program:
            node = "r0" if single and register == 0 else f"r{register}[{i}]"
            if op == SYMBOL:
                k = self.ref(operand)
                if node != "r0":
                    body.append(f"t = {node}")
                    node = "t"
                body += (
                    f"y = {node}.symbol",
                    f"if y is not {k} and (y.name != {k}.name or y.arity != {k}.arity): {fail}",
                )
                if operand.arity:
                    body.append(f"r{registers} = {node}.args")
                registers += 1
            elif op == BIND:
                body.append(f"v{operand} = {node}")
                if check:
                    body.append(f"if c and not v{operand}.constructor: {fail}")
                bound.append(operand)
            elif op == SAME:
                other = f"v{operand}" if operand in bound else f"s[{operand}]"
                body += (f"t = {node}", f"if t is not {other} and t != {other}: {fail}")
            else:
                k = self.ref(operand)
                body += (f"t = {node}", f"if t is not {k} and t != {k}: {fail}")
        if into:
            body += (f"s[{k}] = v{k}" for k in bound)
            body.append("return True")
        else:
            items = (f"v{k}" if k in bound else self.ref(t) for k, t in enumerate(self.init))
            body.append("return [" + ", ".join(items) + "]")
        params = "r0" + (", s" if into else "") + (", c" if check else "")
        return self.function(params, body)

    def builder(self, template: tuple, bound: frozenset[int]) -> str:
        """A function of the slot list that instantiates the template.
        `bound`: the slots that hold ground terms when it runs."""
        body: list[str] = []
        read: set[int] = set()
        # Per term on the stack: its expression, its nesting, and the
        # names whose `constructor` flags make its own (None: its flags are
        # worked out at run time; False: it is not a constructor term).
        stack: list[tuple[str, int, list[str] | None | bool]] = []
        for op, operand in template:
            if op == SLOT:
                read.add(operand)
                name = f"x{operand}"
                stack.append((name, 0, [name] if operand in bound else None))
            elif op == CONST:
                stack.append((self.ref(operand), 0, [] if operand.constructor else False))
            else:
                n = operand.arity
                items = stack[-n:]
                del stack[-n:]
                args = "(" + ", ".join(e for e, _, _ in items) + ("," if n == 1 else "") + ")"
                nesting = 1 + max(d for _, d, _ in items)
                k = self.ref(operand)
                if any(f is None for _, _, f in items):
                    expr, flags = f"_App({k}, {args})", None
                elif operand.kind == DEFINED or any(f is False for _, _, f in items):
                    expr, flags = f"_assemble({k}, {args}, True, False)", False
                else:
                    flags = list(dict.fromkeys(name for _, _, f in items for name in f))
                    test = " and ".join(f"{name}.constructor" for name in flags) or "True"
                    expr = f"_assemble({k}, {args}, True, {test})"
                if nesting >= _MAX_NESTING or (flags and len(flags) >= _MAX_FLAGS):
                    name = f"n{len(body)}"
                    body.append(f"{name} = {expr}")
                    expr, nesting = name, 0
                    if flags:
                        flags = [name]
                stack.append((expr, nesting, flags))
        [(expr, _, _)] = stack
        reads = [f"x{k} = s[{k}]" for k in sorted(read)]
        return self.function("s", reads + body + [f"return {expr}"])

    def assign(self, lhs: str, conditions: list[str], rhs: str) -> "_Code":
        """The code, with `lhs`, `conditions` (a tuple of the given
        tuples) and `rhs` assigned at its end."""
        self.lines += (f"lhs = {lhs}", f"conditions = ({''.join(c + ', ' for c in conditions)})", f"rhs = {rhs}")
        return self

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def compile(self) -> dict[str, object]:
        """The generated names, as the code assigns them."""
        namespace = dict(self.env)
        exec(compile(self.source(), "<revrw.programs>", "exec"), namespace)
        return namespace

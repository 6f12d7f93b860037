"""Rules compiled to Python functions over variable slots (Graf, Term
Indexing, LNCS 1053, 1996; Kamperman and Walters, ARM, 1993).

When a program is built, its rule's variables are numbered into slots in
one walk over the rule's terms, in the order its code meets them: a
forward program's given bindings or left-hand side, then each condition's
left- and right-hand side, then the right-hand side and the safety
domain's names; a replay program's right-hand side and the safety domain's
names, then each condition, last to first, and the left-hand side. A
pattern is walked as `terms.match` visits it, arguments right to left; a
template left to right. A rule attempt fills a list with one slot per
variable; a slot that was never bound holds `Var(name)`, so it
instantiates to the variable itself, as `Subst.apply` leaves a variable it
does not bind.

The code is the source text of Python functions, generated from the rule's
terms and compiled with `compile` and `exec`, as `collections.namedtuple`
builds its methods (Moreau, Ringeissen and Vittek, A pattern matching
compiler for multiple target languages, CC 2003). One set holds the slots
bound to ground terms so far, as the code runs the rule: a program's given
bindings to ground terms, or a replay's safety domain, and each slot a
matcher binds.

- A pattern becomes a matcher of straight-line tests over locals, in the
  order `terms.match` visits it. A symbol is tested by identity or else by
  name and arity, as `Symbol` equality has it, and its arguments read into
  a local; a ground subterm with arguments is compared whole; a variable
  whose slot is bound is compared with it, and any other is bound. A
  left-hand side's matcher builds its slot list only when it succeeds.
- A template becomes one nested expression of `terms.assemble` calls, whose
  flags are worked out when the code is generated, except for the
  `constructor` flags of the bound slots' terms, which the expression
  reads: a slot that a match bound holds a ground term, as the engine and
  backward playback check their subjects. A node over a slot that may be
  unbound is built by `App`, which works out both flags. A condition's
  left-hand side is ground when its builder reads only bound slots.

The text is made only of keywords and generated names: every symbol,
constant and variable reaches the code through its globals dict, so no name
from a `.trs` file is ever part of it.

A system builds its rules' programs on its first rule attempt
(`RewriteSystem.programs`) or backward step (`RewriteSystem.replays`), and
each rule generates its code on its own first attempt or replay; nothing is
generated on import. The tests compare the generated code with
`terms.match` and `Subst.apply`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .terms import DEFINED, EMPTY_SUBST, App, Subst, Term, Var, assemble


class _Generated:
    """A rule's `lhs`, `conditions` and `rhs` as generated code, made on
    first use by `_load` from the text `_code` writes; `source` is that
    text."""

    __slots__ = ()

    def _number(self, given: Sequence[tuple[str, Term]], met: Iterable[str], domain: frozenset[str]) -> None:
        """Set `names`, `init` and `safe`: the names of the given bindings
        first, then the names met, then those of the safety domain not met."""
        self.names = list(dict.fromkeys([*(name for name, _ in given), *met, *sorted(domain)]))
        self.init = tuple(t for _, t in given) + tuple(map(Var, self.names[len(given):]))
        self.safe = tuple((name, self.names.index(name)) for name in sorted(domain))

    def _load(self) -> None:
        namespace = self._code().compile()
        self.lhs, self.conditions, self.rhs = namespace["lhs"], namespace["conditions"], namespace["rhs"]

    @property
    def source(self) -> str:
        return self._code().source()


def _walk(t: Term, pattern: bool) -> Iterator[str]:
    """The names of t's variables in preorder: arguments right to left in a
    pattern, as `terms.match` visits them, left to right in a template."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            yield u.name
        elif not u.ground:
            stack.extend(u.args if pattern else reversed(u.args))


class RuleProgram(_Generated):
    """One rule compiled once: its slots numbered when it is built, its code
    generated on its first attempt.

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
      records), as (name, slot) pairs by name.

    Compiled against given bindings, it binds those to ground terms; any
    other keeps its term, and reads as unbound. With `constructor`, a
    matcher binds a slot only to a constructor term. Until the first
    attempt, `lhs` generates the code and `conditions` and `rhs` are None.
    """

    __slots__ = ("rule", "arity", "names", "init", "safe", "lhs", "conditions", "rhs")

    def __init__(self, rule, given: Subst | None = None, domain: frozenset[str] = frozenset()):
        self.rule = rule
        self.arity = rule.lhs.symbol.arity
        met = [_walk(rule.lhs, True)] if given is None else []
        for c in rule.conditions:
            met += _walk(c.lhs, False), _walk(c.rhs, True)
        self._number(() if given is None else given.items(), chain(*met, _walk(rule.rhs, False)), domain)
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
        code = _Code(self.names, self.init)
        rule = self.rule
        # The slots bound to ground terms: given ones, then those each
        # matcher binds.
        bound = {k for k, t in enumerate(self.init) if t.__class__ is App and t.ground}
        lhs = "None"
        if self.lhs is not None:
            lhs = code.matcher(rule.lhs.args, bound, single=False, into=False, check=True)
        conditions = []
        for c in rule.conditions:
            builder, ground = code.builder(c.lhs, bound)
            matcher = code.matcher((c.rhs,), bound, single=True, into=True, check=True)
            conditions.append(f"({builder}, {ground}, {matcher})")
        return code.assign(lhs, conditions, code.builder(rule.rhs, bound)[0])

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

    - `names` and `init`: as in `RuleProgram`;
    - `rhs(focus)`: the matcher of the right-hand side against the focus:
      a new list of slots, or None;
    - `safe`: the safety domain, whose bindings the trace term records, as
      (name, slot) pairs by name;
    - `conditions`: last to first, the condition's index, the builder of
      its right-hand side from the slots, and the matcher `(value, slots)`
      of its left-hand side against the replayed value, which binds slots
      and tells whether it matched;
    - `lhs(slots)`: the builder of the left-hand side.

    Its slots are numbered when it is built, and its code generated when
    it first replays a step: until then, `rhs` generates the code and
    `conditions` and `lhs` are None.
    """

    __slots__ = ("rule", "names", "init", "safe", "rhs", "conditions", "lhs")

    def __init__(self, rule, domain: frozenset[str]):
        self.rule = rule
        met = [_walk(rule.rhs, True), sorted(domain)]
        for c in reversed(rule.conditions):
            met += _walk(c.rhs, False), _walk(c.lhs, True)
        self._number((), chain(*met, _walk(rule.lhs, False)), domain)
        self.rhs = self._first_replay
        self.conditions = self.lhs = None

    def _first_replay(self, focus: App) -> list[Term] | None:
        self._load()
        return self.rhs(focus)

    def _code(self) -> "_Code":
        code = _Code(self.names, self.init)
        rule = self.rule
        # The slots bound to ground terms: by the rhs, by the trace term,
        # then by each condition's lhs.
        bound: set[int] = set()
        rhs = code.matcher((rule.rhs,), bound, single=True, into=False, check=False)
        bound |= {k for _, k in self.safe}
        conditions = []
        for i, c in reversed(tuple(enumerate(rule.conditions))):
            builder, _ = code.builder(c.rhs, bound)
            matcher = code.matcher((c.lhs,), bound, single=True, into=True, check=False)
            conditions.append(f"({i}, {builder}, {matcher})")
        return code.assign(code.builder(rule.lhs, bound)[0], conditions, rhs)


# A template node nests at most this many calls deep, and reads at most
# this many `constructor` flags, before it is built into a local of its
# own: Python's parser limits the nesting of brackets, and each flag a node
# reads is read again by every node above it in the same expression.
_MAX_NESTING = 16
_MAX_FLAGS = 8


class _Code:
    """The source text and globals of one rule's generated functions."""

    __slots__ = ("init", "slots", "lines", "env", "refs", "count")

    def __init__(self, names: list[str], init: tuple[Term, ...]):
        self.init = init
        self.slots = {name: k for k, name in enumerate(names)}
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

    def matcher(self, patterns: tuple[Term, ...], bound: set[int], single: bool, into: bool, check: bool) -> str:
        """A function matching the patterns, which binds the slots not in
        `bound` and adds them to it. With `single`, it takes the subject
        itself (the one pattern's), else the argument tuple; with `into`, it
        also takes the slot list, binds slots in it and returns whether it
        matched, else it returns a new slot list or None; with `check`, it
        takes the constructor flag."""
        fail = "return False" if into else "return None"
        body: list[str] = []
        binds: list[int] = []
        registers = 1
        # Arguments right to left, as terms.match visits them, so that a
        # repeated variable is bound at the occurrence where match binds it.
        stack = [(p, "r0" if single else f"r0[{i}]") for i, p in enumerate(patterns)]
        while stack:
            p, node = stack.pop()
            if p.__class__ is Var:
                k = self.slots[p.name]
                if k in bound:
                    other = f"v{k}" if k in binds else f"s[{k}]"
                    body += (f"t = {node}", f"if t is not {other} and t != {other}: {fail}")
                else:
                    bound.add(k)
                    binds.append(k)
                    body.append(f"v{k} = {node}")
                    if check:
                        body.append(f"if c and not v{k}.constructor: {fail}")
            elif p.args and p.ground:
                g = self.ref(p)
                body += (f"t = {node}", f"if t is not {g} and t != {g}: {fail}")
            else:
                g = self.ref(p.symbol)
                if node != "r0":
                    body.append(f"t = {node}")
                    node = "t"
                body += (
                    f"y = {node}.symbol",
                    f"if y is not {g} and (y.name != {g}.name or y.arity != {g}.arity): {fail}",
                )
                if p.args:
                    body.append(f"r{registers} = {node}.args")
                    stack.extend((a, f"r{registers}[{j}]") for j, a in enumerate(p.args))
                registers += 1
        if into:
            body += (f"s[{k}] = v{k}" for k in binds)
            body.append("return True")
        else:
            items = (f"v{k}" if k in binds else self.ref(t) for k, t in enumerate(self.init))
            body.append("return [" + ", ".join(items) + "]")
        params = "r0" + (", s" if into else "") + (", c" if check else "")
        return self.function(params, body)

    def builder(self, template: Term, bound: set[int]) -> tuple[str, bool]:
        """A function of the slot list that instantiates the template, and
        whether it reads only slots in `bound`, which hold ground terms when
        it runs."""
        body: list[str] = []
        read: set[int] = set()
        # Per term built: its expression, its nesting, and the names whose
        # `constructor` flags make its own (None: its flags are worked out
        # at run time; False: it is not a constructor term).
        built: list[tuple[str, int, list[str] | None | bool]] = []
        # Terms still to build, and symbols whose arguments are built.
        stack: list = [template]
        while stack:
            u = stack.pop()
            if u.__class__ is Var:
                k = self.slots[u.name]
                read.add(k)
                built.append((f"x{k}", 0, [f"x{k}"] if k in bound else None))
            elif u.__class__ is App:
                if u.ground:
                    built.append((self.ref(u), 0, [] if u.constructor else False))
                else:
                    stack.append(u.symbol)
                    stack.extend(reversed(u.args))
            else:
                n = u.arity
                items = built[-n:]
                del built[-n:]
                args = "(" + ", ".join(e for e, _, _ in items) + ("," if n == 1 else "") + ")"
                nesting = 1 + max(d for _, d, _ in items)
                g = self.ref(u)
                if any(f is None for _, _, f in items):
                    expr, flags = f"_App({g}, {args})", None
                elif u.kind == DEFINED or any(f is False for _, _, f in items):
                    expr, flags = f"_assemble({g}, {args}, True, False)", False
                else:
                    flags = list(dict.fromkeys(name for _, _, f in items for name in f))
                    test = " and ".join(f"{name}.constructor" for name in flags)
                    expr = f"_assemble({g}, {args}, True, {test})"
                if nesting >= _MAX_NESTING or (flags and len(flags) >= _MAX_FLAGS):
                    name = f"n{len(body)}"
                    body.append(f"{name} = {expr}")
                    expr, nesting = name, 0
                    if flags:
                        flags = [name]
                built.append((expr, nesting, flags))
        [(expr, _, _)] = built
        reads = [f"x{k} = s[{k}]" for k in sorted(read)]
        return self.function("s", reads + body + [f"return {expr}"]), read <= bound

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

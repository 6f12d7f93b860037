"""Rules compiled to Python functions over variable slots (Graf, Term
Indexing, LNCS 1053, 1996; Kamperman and Walters, ARM, 1993).

One class, `RuleProgram`, compiles a rule l -> r <= s1 ->> t1, ..., sn ->>
tn read forwards, to rewrite, or read backwards, as the paper's inversion
reads it, to undo a step from its result: r -> l <= tn ->> sn, ..., t1 ->>
s1. Either reading is run the same way: match its left-hand side against
the subject, then for each condition build its left-hand side and match its
right-hand side against the value, then build its right-hand side. Read
backwards, a condition's value is its sub-trace played back, and the trace
term's recorded bindings fill the safety domain after the match.

When a program is built, its rule's variables are numbered into slots in
one walk over the terms it reads, in the order its code meets them: the
given bindings or the left-hand side, then each condition's left- and
right-hand side, then the right-hand side and the safety domain's names. A
pattern is walked as `terms.match` visits it, arguments right to left; a
template left to right. A rule attempt fills a list with one slot per
variable; a slot that was never bound holds `Var(name)`, so it
instantiates to the variable itself, as `Subst.apply` leaves a variable it
does not bind.

The code is the source text of Python functions, generated from the rule's
terms and compiled with `compile` and `exec`, as `collections.namedtuple`
builds its methods (Moreau, Ringeissen and Vittek, A pattern matching
compiler for multiple target languages, CC 2003). One set holds the slots
bound to ground terms so far, as the code runs the rule: the given bindings
to ground terms, each slot a matcher binds, and, read backwards, the safety
domain's once the left-hand side has matched.

- A pattern becomes a matcher of straight-line tests over locals, in the
  order `terms.match` visits it. A symbol is tested by identity or else by
  name and arity, as `Symbol` equality has it, and its arguments read into
  a local; a ground subterm with arguments is compared whole, except at the
  root of a left-hand side, whose symbol is tested; a variable whose slot
  is bound is compared with it, and any other is bound. A left-hand side's
  matcher builds its slot list only when it succeeds.
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
from typing import Iterator

from .terms import DEFINED, EMPTY_SUBST, App, Subst, Term, Var, assemble


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


class RuleProgram:
    """One rule compiled once, read forwards or (with `backward`) backwards:
    its slots numbered when it is built, its code generated on its first
    attempt. The sides named here are those of the rule as it is read.

    - `names`: the rule's variables, one per slot; `init`, the slots'
      contents before an attempt;
    - `lhs(subject, constructor)`: the matcher of the left-hand side against
      the whole subject: a new list of slots, or None (None itself when
      compiled against given bindings);
    - `conditions`: per condition, the builder of its left-hand side from
      the slots, whether that is ground given the slots bound before it (a
      deterministic system needs it to be), and the matcher
      `(value, slots, constructor)` of its right-hand side against the
      value, which binds slots and tells whether it matched;
    - `rhs(slots)`: the builder of the right-hand side;
    - `safe`: the safety domain it is given (the variables a trace term
      records), as (name, slot) pairs by name. Read backwards, the caller
      fills these slots after the match.

    Compiled against given bindings, it binds those to ground terms; any
    other keeps its term, and reads as unbound. With `constructor`, a
    matcher binds a slot only to a constructor term. Until the first
    attempt, `lhs` generates the code and `conditions` and `rhs` are None.
    """

    __slots__ = ("rule", "backward", "names", "init", "safe", "lhs", "conditions", "rhs")

    def __init__(
        self, rule, given: Subst | None = None, domain: frozenset[str] = frozenset(), backward: bool = False
    ):
        self.rule = rule
        self.backward = backward
        lhs, conditions, rhs = self._read()
        given_items = () if given is None else given.items()
        met = [_walk(lhs, True)] if given is None else [(name for name, _ in given_items)]
        for s, t in conditions:
            met += _walk(s, False), _walk(t, True)
        self.names = list(dict.fromkeys(chain(*met, _walk(rhs, False), sorted(domain))))
        self.init = tuple(t for _, t in given_items) + tuple(map(Var, self.names[len(given_items):]))
        self.safe = tuple((name, self.names.index(name)) for name in sorted(domain))
        self.conditions = self.rhs = None
        if given is None:
            self.lhs = self._first_attempt
        else:
            self.lhs = None
            self._load()

    def _read(self) -> tuple[Term, list[tuple[Term, Term]], Term]:
        """The rule as read: its lhs, its conditions' sides, its rhs."""
        rule = self.rule
        if self.backward:
            return rule.rhs, [(c.rhs, c.lhs) for c in reversed(rule.conditions)], rule.lhs
        return rule.lhs, [(c.lhs, c.rhs) for c in rule.conditions], rule.rhs

    def _first_attempt(self, subject: Term, constructor: bool) -> list[Term] | None:
        self._load()
        return self.lhs(subject, constructor)

    def _load(self) -> None:
        namespace = self._code().compile()
        self.lhs, self.conditions, self.rhs = namespace["lhs"], namespace["conditions"], namespace["rhs"]

    @property
    def source(self) -> str:
        return self._code().source()

    def _code(self) -> "_Code":
        code = _Code(self.names, self.init)
        lhs, conditions, rhs = self._read()
        # The slots bound to ground terms: given ones, then those each
        # matcher binds, and read backwards, the safety domain's once the
        # lhs has matched.
        bound = {k for k, t in enumerate(self.init) if t.__class__ is App and t.ground}
        matcher = "None" if self.lhs is None else code.matcher(lhs, bound, into=False)
        if self.backward:
            bound.update(k for _, k in self.safe)
        built = []
        for s, t in conditions:
            builder, ground = code.builder(s, bound)
            built.append(f"({builder}, {ground}, {code.matcher(t, bound, into=True)})")
        return code.assign(matcher, built, code.builder(rhs, bound)[0])

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

    def matcher(self, pattern: Term, bound: set[int], into: bool) -> str:
        """A function matching the pattern against a subject, which binds the
        slots not in `bound` and adds them to it. It takes the subject, then,
        with `into`, the slot list, which it binds slots in, returning
        whether it matched (else it returns a new slot list or None), and
        last the constructor flag."""
        fail = "return False" if into else "return None"
        body: list[str] = []
        binds: list[int] = []
        registers = 1
        # Arguments right to left, as terms.match visits them, so that a
        # repeated variable is bound at the occurrence where match binds it.
        stack = [(pattern, "r0")]
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
                    body += (f"v{k} = {node}", f"if c and not v{k}.constructor: {fail}")
            elif p.args and p.ground and (into or node != "r0"):
                # Not at an lhs's root: its subject is built anew, never
                # the rule's own term, and comparing it whole walks it.
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
        return self.function("r0, s, c" if into else "r0, c", body)

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

"""First-order terms, positions, substitutions, matching and unification.

Terms are immutable values; sharing subterms is allowed and never observable.
Positions are 1-based index paths; the empty path addresses the root.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import InvalidPosition, NotGround, OverlappingDomains

CONSTRUCTOR = "constructor"
DEFINED = "defined"


@dataclass(frozen=True, slots=True)
class Symbol:
    """A ranked function symbol. Identity is (name, arity); kind (defined or
    constructor) is metadata that only a RewriteSystem assigns."""

    name: str
    arity: int
    kind: str = field(default=CONSTRUCTOR, compare=False)

    def __call__(self, *args: "Term") -> "App":
        return App(self, tuple(args))

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


class App:
    """A function symbol applied to its arguments. Two flags are cached at
    construction, so that neither question walks the term: `ground` (no
    variable occurs in it) and `constructor` (every symbol in it is a
    constructor; variables may occur).

    Instances are immutable: `__init__` writes the slots through their own
    descriptors, and assigning or deleting an attribute raises, as on a
    frozen dataclass. Equality and hashing walk the term with an explicit
    stack, so terms of any depth compare and hash; shared subterms compare
    by identity."""

    __slots__ = ("symbol", "args", "ground", "constructor")
    __match_args__ = ("symbol", "args")

    def __init__(self, symbol: Symbol, args: tuple["Term", ...] = ()):
        if args.__class__ is not tuple:
            args = tuple(args)
        if len(args) != symbol.arity:
            raise ValueError(f"symbol {symbol!r} applied to {len(args)} arguments")
        ground = True
        constructor = symbol.kind != DEFINED
        for a in args:
            if a.__class__ is App:
                if not a.ground:
                    ground = False
                if not a.constructor:
                    constructor = False
            else:
                ground = False
        _set_symbol(self, symbol)
        _set_args(self, args)
        _set_ground(self, ground)
        _set_constructor(self, constructor)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            sa, sb = a.symbol, b.symbol
            if sa is not sb and (sa.name != sb.name or sa.arity != sb.arity):
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is App and y.__class__ is App:
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        hashes: list[int] = []
        # Terms still to hash, and symbols whose arguments' hashes are the
        # last in `hashes`.
        stack: list = [self]
        while stack:
            u = stack.pop()
            if u.__class__ is App:
                if u.args:
                    stack.append(u.symbol)
                    stack.extend(u.args)
                else:
                    hashes.append(hash(u.symbol))
            elif u.__class__ is Var:
                hashes.append(hash(u))
            else:
                k = len(hashes) - u.arity
                h = hash((u, *hashes[k:]))
                del hashes[k:]
                hashes.append(h)
        return hashes[0]

    def __repr__(self) -> str:
        return format_term(self)


# The slots' own setters, which skip App.__setattr__.
_set_symbol = App.symbol.__set__
_set_args = App.args.__set__
_set_ground = App.ground.__set__
_set_constructor = App.constructor.__set__
_new = object.__new__


def assemble(symbol: Symbol, args: tuple["Term", ...], ground: bool, constructor: bool) -> App:
    """The App of symbol over args with the given flags, unchecked: args is
    a tuple of the symbol's arity, and the flags are those App would work
    out. Generated builders (`revrw.programs`) call it with flags they
    derive from their rule."""
    t = _new(App)
    _set_symbol(t, symbol)
    _set_args(t, args)
    _set_ground(t, ground)
    _set_constructor(t, constructor)
    return t


Term = Union[Var, App]

Position = tuple[int, ...]
ROOT: Position = ()


def is_ground(t: Term) -> bool:
    return t.ground if isinstance(t, App) else False


def term_vars(t: Term) -> set[str]:
    """Set of variable names occurring in t."""
    out: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.add(u.name)
        elif not u.ground:
            stack.extend(u.args)
    return out


def vars_of(*terms: Term) -> set[str]:
    out: set[str] = set()
    for t in terms:
        out |= term_vars(t)
    return out


def is_constructor_term(t: Term) -> bool:
    """True iff every symbol in t is a constructor; variables are allowed."""
    return t.constructor if t.__class__ is App else True


def is_basic_term(t: Term) -> bool:
    """Defined root symbol applied to constructor terms."""
    return (
        isinstance(t, App)
        and t.symbol.kind == DEFINED
        and all(is_constructor_term(a) for a in t.args)
    )


def positions(t: Term) -> Iterator[Position]:
    """All positions of t in post-order (leftmost-innermost first, root last)."""
    # The path from the root: each node, its position, and how many of its
    # arguments have been entered.
    stack = [(t, ROOT, 0)]
    while stack:
        u, p, i = stack.pop()
        if isinstance(u, App) and i < len(u.args):
            stack.append((u, p, i + 1))
            stack.append((u.args[i], p + (i + 1,), 0))
        else:
            yield p


def rebuild(t: Term, visit: Callable[[Term], tuple[Term, bool]]) -> Term:
    """t rebuilt bottom-up on an explicit stack. `visit(u)` gives the term
    that takes node u's place, and whether that term's arguments are
    visited and rebuilt in turn; it sees the nodes in preorder, arguments
    left to right, and none below a node whose term it keeps whole."""
    done: list[Term] = []
    # Terms still to visit, and symbols whose arguments are the last in
    # `done`.
    stack: list = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Symbol:
            k = len(done) - u.arity
            args = tuple(done[k:])
            del done[k:]
            done.append(App(u, args))
            continue
        u, descend = visit(u)
        if descend:
            stack.append(u.symbol)
            stack.extend(reversed(u.args))
        else:
            done.append(u)
    return done[0]


def subterm(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise InvalidPosition(f"position {format_position(p)} not in {format_term(t)}")
        t = t.args[i - 1]
    return t


def replace(t: Term, p: Position, u: Term) -> Term:
    """t with u planted at p: a copy of the path from the root to p."""
    if not p:
        return u
    path: list[App] = []
    for i in p:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            rest = p[len(path):]
            raise InvalidPosition(f"position {format_position(rest)} not in {format_term(t)}")
        path.append(t)
        t = t.args[i - 1]
    for node, i in zip(reversed(path), reversed(p)):
        u = App(node.symbol, node.args[: i - 1] + (u,) + node.args[i:])
    return u


def parse_position(text: str) -> Position:
    text = text.strip()
    if text in ("e", "ε", ""):
        return ROOT
    try:
        path = tuple(int(part) for part in text.split("."))
    except ValueError:
        raise InvalidPosition(f"bad position syntax: {text!r}") from None
    if any(i < 1 for i in path):
        raise InvalidPosition(f"position indices are 1-based: {text!r}")
    return path


def format_position(p: Position) -> str:
    return ".".join(map(str, p)) if p else "e"


class Subst:
    """A finite map from variable names to terms.

    Identity bindings are dropped on construction, so the domain is exactly
    the set of variables the substitution moves. Instances are immutable.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Mapping[str, Term] | Iterable[tuple[str, Term]] = ()):
        m = dict(bindings)
        drop = [x for x, t in m.items() if isinstance(t, Var) and t.name == x]
        for x in drop:
            del m[x]
        object.__setattr__(self, "_map", m)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def has_domain(self, names: frozenset[str]) -> bool:
        """domain == names, without building the domain."""
        return self._map.keys() == names

    def get(self, name: str) -> Term | None:
        return self._map.get(name)

    def items(self) -> list[tuple[str, Term]]:
        """Bindings in lexicographic (code-point) order of variable names."""
        return sorted(self._map.items())

    def apply(self, t: Term) -> Term:
        m = self._map
        if not m:
            return t

        def visit(u: Term) -> tuple[Term, bool]:
            if u.__class__ is Var:
                return m.get(u.name, u), False
            return u, not u.ground

        return rebuild(t, visit)

    def restrict(self, names: Iterable[str]) -> "Subst":
        keep = set(names)
        return Subst({x: t for x, t in self._map.items() if x in keep})

    def union(self, other: "Subst") -> "Subst":
        overlap = self.domain & other.domain
        if overlap:
            raise OverlappingDomains(f"domains overlap on {sorted(overlap)}")
        merged = dict(self._map)
        merged.update(other._map)
        return Subst(merged)

    @property
    def is_ground(self) -> bool:
        return all(is_ground(t) for t in self._map.values())

    @property
    def is_constructor(self) -> bool:
        return all(is_constructor_term(t) for t in self._map.values())

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subst) and self._map == other._map

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return format_subst(self)


EMPTY_SUBST = Subst()


def format_subst(s: Subst) -> str:
    inner = ", ".join(f"{x} -> {format_term(t)}" for x, t in s.items())
    return "{" + inner + "}"


def match(pattern: Term, subject: Term, extend: Subst | None = None) -> Subst | None:
    """Match pattern against a ground subject.

    Returns the (at most one) substitution sigma with sigma(pattern) = subject
    extending `extend`, or None. Non-ground subjects are rejected.
    """
    if not is_ground(subject):
        raise NotGround(f"match subject must be ground: {format_term(subject)}")
    out: dict[str, Term] = dict(extend._map) if extend is not None else {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = out.get(p.name)
            if bound is None:
                out[p.name] = s
            elif bound != s:
                return None
        elif isinstance(s, App) and p.symbol == s.symbol:
            stack.extend(zip(p.args, s.args))
        else:
            return None
    return Subst(out)


def _occurs(name: str, t: Term, subst: dict[str, Term]) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        while isinstance(u, Var) and u.name in subst:
            u = subst[u.name]
        if isinstance(u, Var):
            if u.name == name:
                return True
        else:
            stack.extend(u.args)
    return False


def unify(s: Term, t: Term) -> Subst | None:
    """Most general unifier of s and t (idempotent), or None.

    The occurs check is enforced.
    """
    triangular: dict[str, Term] = {}

    def resolve(u: Term) -> Term:
        while isinstance(u, Var) and u.name in triangular:
            u = triangular[u.name]
        return u

    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = resolve(a), resolve(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                continue
            if _occurs(a.name, b, triangular):
                return None
            triangular[a.name] = b
        elif isinstance(b, Var):
            if _occurs(b.name, a, triangular):
                return None
            triangular[b.name] = a
        elif a.symbol == b.symbol:
            stack.extend(zip(a.args, b.args))
        else:
            return None

    def visit(u: Term) -> tuple[Term, bool]:
        u = resolve(u)
        return u, u.__class__ is App and not u.ground

    return Subst({x: rebuild(v, visit) for x, v in triangular.items()})


def _cons_spine(t: Term) -> tuple[list[Term], Term]:
    """The heads along t's cons spine, and the term that ends the spine."""
    items: list[Term] = []
    while t.__class__ is App and t.symbol.name == "cons" and t.symbol.arity == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def format_term(t: Term, sugar: bool = False) -> str:
    """t as text: f(a,b). With sugar, tuple#n(a,b) prints as (a, b) and a
    cons/nil list as [a, b]."""
    out: list[str] = []
    # Terms still to print, and the separators and closing brackets between
    # them, in reverse order.
    stack: list[Term | str] = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is str:
            out.append(u)
        elif u.__class__ is Var:
            out.append(u.name)
        else:
            items, end = _cons_spine(u) if sugar else ((), u)
            if sugar and u.symbol.name.startswith("tuple#"):
                items, open_, sep, close = u.args, "(", ", ", ")"
            elif sugar and end.__class__ is App and end.symbol.name == "nil" and not end.args:
                open_, sep, close = "[", ", ", "]"
            elif items:
                # A chain that does not end in nil prints as nested cons
                # cells, from this one walk of its spine.
                stack.append(")" * len(items))
                stack.append(end)
                for a in reversed(items):
                    stack += (",", a, "cons(")
                continue
            elif u.args:
                items, open_, sep, close = u.args, u.symbol.name + "(", ",", ")"
            else:
                out.append(u.symbol.name)
                continue
            out.append(open_)
            stack.append(close)
            for i, a in enumerate(reversed(items)):
                if i:
                    stack.append(sep)
                stack.append(a)
    return "".join(out)

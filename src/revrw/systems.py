"""Rewrite systems: representation, classification, and the .trs file format.

The file format is COPS/termcomp-style parenthesized sections:

    (VAR x y)
    (CONDITIONTYPE ORIENTED)
    (RULES
      add(0,y) -> y
      double(x) -> add(x,x) | even(x) == true [d1]
    )
    (COMMENT free text)

`==` in conditions is read as the oriented reachability arrow. Rule labels
are optional bracket suffixes; unlabeled rules get b1..bn in textual order.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityConflict,
    DuplicateLabel,
    ParseError,
    ReservedName,
)
from .terms import (
    App,
    CONSTRUCTOR,
    DEFINED,
    TRACE,
    TUPLE,
    Symbol,
    Term,
    Var,
    format_term,
    is_basic_term,
    is_constructor_term,
    term_vars,
    vars_of,
)


@dataclass(frozen=True, slots=True)
class Condition:
    """One oriented equation lhs ->> rhs, interpreted as reachability."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class Rule:
    label: str
    lhs: Term
    rhs: Term
    conditions: tuple[Condition, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ParseError(f"rule {self.label}: left-hand side is a variable")
        if not isinstance(self.conditions, tuple):
            object.__setattr__(self, "conditions", tuple(self.conditions))

    def __repr__(self) -> str:
        return format_rule(self)


@dataclass(frozen=True, slots=True)
class Finding:
    rule_label: str
    property_name: str
    ok: bool
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    property_name: str
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"{self.property_name}: ok"
        lines = [f"{self.property_name}: {len(self.findings)} violation(s)"]
        lines += [f"  [{f.rule_label}] {f.message}" for f in self.findings]
        return "\n".join(lines)


class RewriteSystem:
    """An ordered rule sequence with a classified signature.

    Construction classifies every symbol (defined = root of some lhs) and
    rebuilds the rule terms so each node carries its final symbol kind.
    """

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        seen: set[str] = set()
        for r in rules:
            if r.label in seen:
                raise DuplicateLabel(f"duplicate rule label {r.label!r}")
            seen.add(r.label)

        arities: dict[str, int] = {}
        defined: set[str] = set()
        trace_names: set[str] = set()
        for r in rules:
            assert isinstance(r.lhs, App)
            defined.add(r.lhs.symbol.name)
            for t in _rule_terms(r):
                _collect_arities(t, arities, trace_names)

        signature: dict[str, Symbol] = {}
        for name, arity in arities.items():
            if name in defined:
                kind = DEFINED
            elif re.fullmatch(r"tuple#\d+", name):
                kind = TUPLE
            elif name in trace_names:
                kind = TRACE
            else:
                kind = CONSTRUCTOR
            signature[name] = Symbol(name, arity, kind)

        self.rules: tuple[Rule, ...] = tuple(
            Rule(
                r.label,
                _rebind(r.lhs, signature),
                _rebind(r.rhs, signature),
                tuple(
                    Condition(_rebind(c.lhs, signature), _rebind(c.rhs, signature))
                    for c in r.conditions
                ),
            )
            for r in rules
        )
        self.signature: dict[str, Symbol] = signature
        self.defined_symbols: frozenset[str] = frozenset(defined)
        self._by_label = {r.label: r for r in self.rules}
        by_root: dict[str, list[Rule]] = {}
        for r in self.rules:
            by_root.setdefault(r.lhs.symbol.name, []).append(r)
        # Root-symbol index (Graf, Term Indexing, 1996): the rules whose lhs
        # root is the given symbol, in textual order.
        self.rules_by_root: dict[str, tuple[Rule, ...]] = {
            name: tuple(rs) for name, rs in by_root.items()
        }

    def rule_by_label(self, label: str) -> Rule | None:
        return self._by_label.get(label)

    def symbol(self, name: str) -> Symbol | None:
        return self.signature.get(name)

    @property
    def constructor_symbols(self) -> list[Symbol]:
        return [s for s in self.signature.values() if s.kind != DEFINED]

    @cached_property
    def is_trs(self) -> bool:
        return all(
            not r.conditions and term_vars(r.rhs) <= term_vars(r.lhs)
            for r in self.rules
        )

    @cached_property
    def is_3ctrs(self) -> bool:
        return validate(self, "3ctrs").ok

    @cached_property
    def is_dctrs(self) -> bool:
        return validate(self, "dctrs").ok

    @cached_property
    def is_constructor_system(self) -> bool:
        return validate(self, "constructor").ok

    @cached_property
    def is_pcdctrs(self) -> bool:
        return validate(self, "pcdctrs").ok

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RewriteSystem) and self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"<RewriteSystem of {len(self.rules)} rules>"


def _rule_terms(r: Rule) -> Iterator[Term]:
    yield r.lhs
    yield r.rhs
    for c in r.conditions:
        yield c.lhs
        yield c.rhs


def _collect_arities(
    t: Term, arities: dict[str, int], trace_names: set[str] | None = None
) -> None:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            known = arities.setdefault(u.symbol.name, u.symbol.arity)
            if known != u.symbol.arity:
                raise ArityConflict(
                    f"symbol {u.symbol.name!r} used with arities {known} and {u.symbol.arity}"
                )
            if trace_names is not None and u.symbol.kind == TRACE:
                trace_names.add(u.symbol.name)
            stack.extend(u.args)


def _rebind(t: Term, signature: dict[str, Symbol]) -> Term:
    if isinstance(t, Var):
        return t
    return App(signature[t.symbol.name], tuple(_rebind(a, signature) for a in t.args))


# ---------------------------------------------------------------------------
# Validation


def validate(system: RewriteSystem, property_name: str) -> ValidationReport:
    """Check every rule against one of {3ctrs, dctrs, constructor, pcdctrs}.

    The report lists violations only; an empty findings list means the
    property holds. The classes are cumulative: dctrs includes the 3ctrs
    clauses and pcdctrs includes the dctrs clauses.
    """
    checks = {
        "3ctrs": (_check_3ctrs,),
        "dctrs": (_check_3ctrs, _check_deterministic),
        "constructor": (_check_constructor,),
        "pcdctrs": (_check_3ctrs, _check_deterministic, _check_pure_constructor),
    }
    if property_name not in checks:
        raise ValueError(f"unknown property {property_name!r}")
    findings = []
    for rule in system.rules:
        for check in checks[property_name]:
            for message in check(rule):
                findings.append(Finding(rule.label, property_name, False, message))
    return ValidationReport(property_name, tuple(findings))


def _check_3ctrs(rule: Rule) -> Iterator[str]:
    housed = term_vars(rule.lhs)
    for c in rule.conditions:
        housed |= vars_of(c.lhs, c.rhs)
    extra = term_vars(rule.rhs) - housed
    if extra:
        yield f"right-hand side variables {sorted(extra)} occur neither in the left-hand side nor in the conditions"


def _check_deterministic(rule: Rule) -> Iterator[str]:
    known = term_vars(rule.lhs)
    for i, c in enumerate(rule.conditions, 1):
        extra = term_vars(c.lhs) - known
        if extra:
            yield (
                f"condition {i} left-hand side variables {sorted(extra)} are not bound "
                f"by the rule left-hand side or earlier condition right-hand sides"
            )
        known |= term_vars(c.rhs)


def _check_constructor(rule: Rule) -> Iterator[str]:
    if not is_basic_term(rule.lhs):
        yield "left-hand side is not a basic term"


def _check_pure_constructor(rule: Rule) -> Iterator[str]:
    if not is_basic_term(rule.lhs):
        yield "left-hand side is not a basic term"
    if not is_constructor_term(rule.rhs):
        yield "right-hand side is not a constructor term"
    for i, c in enumerate(rule.conditions, 1):
        if not is_basic_term(c.lhs):
            yield f"condition {i} left-hand side is not a basic term"
        if not is_constructor_term(c.rhs):
            yield f"condition {i} right-hand side is not a constructor term"


# ---------------------------------------------------------------------------
# Lexing (shared with the trace syntax in the reversible module)


class _Lines:
    """Line and column of an offset into a text, from the text's newline
    offsets, which are found on first use."""

    __slots__ = ("text", "_breaks")

    def __init__(self, text: str):
        self.text = text
        self._breaks: list[int] | None = None

    def locate(self, offset: int) -> tuple[int, int]:
        if self._breaks is None:
            self._breaks = [m.start() for m in re.finditer("\n", self.text)]
        k = bisect_left(self._breaks, offset)
        start = self._breaks[k - 1] + 1 if k else 0
        return k + 1, offset - start + 1


class Token:
    """A lexeme and its offset in the source; line and column (1-based) are
    worked out only when asked for. A token the parser makes itself (no
    source) reports line 0, column 0."""

    __slots__ = ("kind", "text", "offset", "lines")

    def __init__(self, kind: str, text: str, offset: int, lines: _Lines | None):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.lines = lines

    @property
    def line(self) -> int:
        return self.lines.locate(self.offset)[0] if self.lines else 0

    @property
    def column(self) -> int:
        return self.lines.locate(self.offset)[1] if self.lines else 0


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<IDENT>[A-Za-z0-9_][A-Za-z0-9_']*(?:\^(?:i|-1))?(?:\#\d+)?)
    | (?P<ARROW>->|↦)
    | (?P<EQEQ>==)
    | (?P<PIPE>\|)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<LBRACK>\[)
    | (?P<RBRACK>\])
    | (?P<LBRACE>\{)
    | (?P<RBRACE>\})
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    lines = _Lines(text)
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", *lines.locate(m.start()))
        append(Token(kind, m.group(), m.start(), lines))
    return tokens


class TokenStream:
    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens
        self._i = 0

    def peek(self) -> Token | None:
        return self._tokens[self._i] if self._i < len(self._tokens) else None

    def next(self) -> Token:
        i = self._i
        if i >= len(self._tokens):
            last = self._tokens[-1] if self._tokens else None
            raise ParseError(
                "unexpected end of input",
                last.line if last else 1,
                last.column if last else 1,
            )
        self._i = i + 1
        return self._tokens[i]

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def at(self, kind: str) -> bool:
        i = self._i
        return i < len(self._tokens) and self._tokens[i].kind == kind


RESERVED_VARIABLE_PREFIX = "_"


def is_reserved_symbol_name(name: str) -> bool:
    return "^" in name or "#" in name


def _check_reserved(tok: Token, is_variable: bool) -> None:
    if is_variable and tok.text.startswith(RESERVED_VARIABLE_PREFIX):
        raise ReservedName(
            f"variable name {tok.text!r} uses the reserved '_' prefix",
            tok.line,
            tok.column,
        )
    if not is_variable and is_reserved_symbol_name(tok.text):
        raise ReservedName(
            f"symbol name {tok.text!r} is reserved for generated symbols",
            tok.line,
            tok.column,
        )


class _TermParser:
    """Term syntax: f(t1,...,tn), bare nullary symbols, [..] list sugar."""

    def __init__(
        self,
        stream: TokenStream,
        variables: set[str],
        arities: dict[str, int],
        allow_reserved: bool,
    ):
        self.stream = stream
        self.variables = variables
        self.arities = arities
        self.allow_reserved = allow_reserved

    def _symbol(self, tok: Token, arity: int) -> Symbol:
        known = self.arities.setdefault(tok.text, arity)
        if known != arity:
            raise ArityConflict(
                f"symbol {tok.text!r} used with arities {known} and {arity}",
                tok.line,
                tok.column,
            )
        return Symbol(tok.text, arity)

    def parse(self) -> Term:
        if self.stream.at("LBRACK"):
            return self._parse_list()
        tok = self.stream.expect("IDENT")
        if self.stream.at("LPAREN"):
            if tok.text in self.variables:
                raise ParseError(
                    f"variable {tok.text!r} applied to arguments", tok.line, tok.column
                )
            self.stream.next()
            args = [self.parse()]
            while self.stream.at("COMMA"):
                self.stream.next()
                args.append(self.parse())
            self.stream.expect("RPAREN")
            if not self.allow_reserved:
                _check_reserved(tok, is_variable=False)
            return App(self._symbol(tok, len(args)), tuple(args))
        if tok.text in self.variables:
            if not self.allow_reserved:
                _check_reserved(tok, is_variable=True)
            return Var(tok.text)
        if not self.allow_reserved:
            _check_reserved(tok, is_variable=False)
        return App(self._symbol(tok, 0), ())

    def _parse_list(self) -> Term:
        self.stream.expect("LBRACK")
        items: list[Term] = []
        if not self.stream.at("RBRACK"):
            items.append(self.parse())
            while self.stream.at("COMMA"):
                self.stream.next()
                items.append(self.parse())
        self.stream.expect("RBRACK")
        nil = App(self._symbol(Token("IDENT", "nil", 0, None), 0), ())
        out: Term = nil
        cons = self._symbol(Token("IDENT", "cons", 0, None), 2)
        for item in reversed(items):
            out = App(cons, (item, out))
        return out


def _strip_comments(text: str) -> str:
    """Blank out (COMMENT ...) sections, preserving offsets for line/column."""
    out = list(text)
    for m in re.finditer(r"\(\s*COMMENT\b", text):
        depth = 0
        i = m.start()
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            raise ParseError("unterminated (COMMENT section")
        for j in range(m.start(), i + 1):
            if out[j] != "\n":
                out[j] = " "
    return "".join(out)


def parse_system(text: str, allow_reserved: bool = False) -> RewriteSystem:
    """Parse a .trs file into a structurally valid, classified system.

    allow_reserved lifts the reserved-name checks so that systems printed by
    format_system (fresh `_wN` variables, `f^i`/`f^-1`/`tuple#k` symbols) can
    be read back.
    """
    stream = TokenStream(tokenize(_strip_comments(text)))
    variables: set[str] = set()
    arities: dict[str, int] = {}
    raw_rules: list[tuple[Term, Term, tuple[Condition, ...], str | None, Token]] = []
    seen_rules = False

    while stream.peek() is not None:
        open_tok = stream.expect("LPAREN")
        section = stream.expect("IDENT")
        name = section.text.upper()
        if name == "VAR":
            while stream.at("IDENT"):
                tok = stream.next()
                if not allow_reserved:
                    _check_reserved(tok, is_variable=True)
                variables.add(tok.text)
            stream.expect("RPAREN")
        elif name == "CONDITIONTYPE":
            kind = stream.expect("IDENT")
            if kind.text.upper() != "ORIENTED":
                raise ParseError(
                    f"unsupported condition type {kind.text!r}", kind.line, kind.column
                )
            stream.expect("RPAREN")
        elif name == "RULES":
            if seen_rules:
                raise ParseError("duplicate (RULES section", open_tok.line, open_tok.column)
            seen_rules = True
            term_parser = _TermParser(stream, variables, arities, allow_reserved)
            while not stream.at("RPAREN"):
                raw_rules.append(_parse_rule(stream, term_parser))
            stream.expect("RPAREN")
        else:
            raise ParseError(
                f"unknown section {section.text!r}", section.line, section.column
            )

    rules = []
    labels_seen: dict[str, Token] = {}
    for i, (lhs, rhs, conditions, label, where) in enumerate(raw_rules, 1):
        if label is None:
            label = f"b{i}"
        if label in labels_seen:
            raise DuplicateLabel(f"duplicate rule label {label!r}", where.line, where.column)
        labels_seen[label] = where
        if isinstance(lhs, Var):
            raise ParseError("rule left-hand side is a variable", where.line, where.column)
        rules.append(Rule(label, lhs, rhs, conditions))
    return RewriteSystem(rules)


def _parse_rule(
    stream: TokenStream, term_parser: _TermParser
) -> tuple[Term, Term, tuple[Condition, ...], str | None, Token]:
    where = stream.peek()
    assert where is not None
    lhs = term_parser.parse()
    stream.expect("ARROW", "->")
    rhs = term_parser.parse()
    conditions: list[Condition] = []
    if stream.at("PIPE"):
        stream.next()
        while True:
            clhs = term_parser.parse()
            stream.expect("EQEQ")
            crhs = term_parser.parse()
            conditions.append(Condition(clhs, crhs))
            if stream.at("COMMA"):
                stream.next()
            else:
                break
    label = None
    if stream.at("LBRACK"):
        stream.next()
        label = stream.expect("IDENT").text
        stream.expect("RBRACK")
    return lhs, rhs, tuple(conditions), label, where


def parse_term(
    text: str,
    system: RewriteSystem | None = None,
    variables: Iterable[str] = (),
    allow_reserved: bool = True,
) -> Term:
    """Parse one term. Unknown symbols become fresh constructors; symbols known
    to `system` keep their kind (and are arity-checked)."""
    terms = parse_terms(text, system, variables, allow_reserved)
    if len(terms) != 1:
        raise ParseError(f"expected one term, found {len(terms)}")
    return terms[0]


def parse_terms(
    text: str,
    system: RewriteSystem | None = None,
    variables: Iterable[str] = (),
    allow_reserved: bool = True,
) -> list[Term]:
    """Parse a comma-separated term list (used for CLI argument vectors)."""
    stream = TokenStream(tokenize(text))
    arities = (
        {name: sym.arity for name, sym in system.signature.items()} if system else {}
    )
    parser = _TermParser(stream, set(variables), arities, allow_reserved)
    terms = [parser.parse()]
    while stream.at("COMMA"):
        stream.next()
        terms.append(parser.parse())
    tok = stream.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    if system is not None:
        return [_rebind_with_default(t, system.signature) for t in terms]
    return terms


def _rebind_with_default(t: Term, signature: dict[str, Symbol]) -> Term:
    if isinstance(t, Var):
        return t
    sym = signature.get(t.symbol.name)
    if sym is None:
        sym = Symbol(t.symbol.name, t.symbol.arity, CONSTRUCTOR)
    return App(sym, tuple(_rebind_with_default(a, signature) for a in t.args))


# ---------------------------------------------------------------------------
# Printing


def format_rule(rule: Rule) -> str:
    parts = [format_term(rule.lhs), "->", format_term(rule.rhs)]
    if rule.conditions:
        conds = ", ".join(
            f"{format_term(c.lhs)} == {format_term(c.rhs)}" for c in rule.conditions
        )
        parts += ["|", conds]
    parts.append(f"[{rule.label}]")
    return " ".join(parts)


def format_system(system: RewriteSystem) -> str:
    """Inverse of parse_system up to structural identity (labels, rule order
    and conditions are preserved)."""
    names: set[str] = set()
    for r in system.rules:
        for t in _rule_terms(r):
            names |= term_vars(t)
    lines = []
    if names:
        lines.append("(VAR " + " ".join(sorted(names)) + ")")
    if any(r.conditions for r in system.rules):
        lines.append("(CONDITIONTYPE ORIENTED)")
    lines.append("(RULES")
    for r in system.rules:
        lines.append("  " + format_rule(r))
    lines.append(")")
    return "\n".join(lines) + "\n"

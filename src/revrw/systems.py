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
from typing import Iterable, Iterator

from .errors import (
    ArityConflict,
    DuplicateLabel,
    ParseError,
    ReservedName,
)
from .programs import RuleProgram
from .terms import (
    App,
    CONSTRUCTOR,
    DEFINED,
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

    Construction classifies every symbol (defined = root of some lhs, else a
    constructor) and rebuilds the rule terms so each node carries its final
    symbol kind. No other code assigns a kind.
    """

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        seen: set[str] = set()
        for r in rules:
            if r.label in seen:
                raise DuplicateLabel(f"duplicate rule label {r.label!r}")
            seen.add(r.label)

        defined = {r.lhs.symbol.name for r in rules}
        signature: dict[str, Symbol] = {}
        self.rules: tuple[Rule, ...] = tuple(
            Rule(
                r.label,
                _rebind(r.lhs, signature, defined),
                _rebind(r.rhs, signature, defined),
                tuple(
                    Condition(
                        _rebind(c.lhs, signature, defined),
                        _rebind(c.rhs, signature, defined),
                    )
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

    @cached_property
    def safety_domains(self) -> dict[str, frozenset[str]]:
        """`safety_domain` of every rule, by label, worked out once per
        system on first use."""
        return {r.label: safety_domain(r) for r in self.rules}

    @cached_property
    def programs(self) -> dict[str, tuple[RuleProgram, ...]]:
        """Every rule compiled to its slot programs (see `revrw.programs`),
        indexed like `rules_by_root`. Compiled once per system, on the first
        rule attempt, and each rule to code on its own first attempt: most
        systems a transformation builds never rewrite."""
        domains = self.safety_domains
        return {
            name: tuple(RuleProgram(r, domain=domains[r.label]) for r in rules)
            for name, rules in self.rules_by_root.items()
        }

    @cached_property
    def replays(self) -> dict[str, RuleProgram]:
        """Every rule compiled read backwards, to undo its steps (see
        `revrw.programs`), by label. Compiled once per system, on its first
        backward step."""
        domains = self.safety_domains
        return {r.label: RuleProgram(r, domain=domains[r.label], backward=True) for r in self.rules}

    @cached_property
    def views(self) -> dict:
        """Per-system store of `transform.view_update`'s (forward, backward)
        systems, filled on first use."""
        return {}

    def symbol(self, name: str) -> Symbol | None:
        return self.signature.get(name)

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


def safety_domain(rule: Rule) -> frozenset[str]:
    """Variables a trace term for this rule must record: erased left-hand
    side variables plus condition-rhs variables not readable from the result
    and the later condition lhs's."""
    s_terms = [c.lhs for c in rule.conditions]
    t_terms = [c.rhs for c in rule.conditions]
    dom = term_vars(rule.lhs) - vars_of(rule.rhs, *s_terms, *t_terms)
    for i, t_i in enumerate(t_terms):
        dom |= term_vars(t_i) - vars_of(rule.rhs, *s_terms[i + 1 :])
    return frozenset(dom)


def _rule_terms(r: Rule) -> Iterator[Term]:
    yield r.lhs
    yield r.rhs
    for c in r.conditions:
        yield c.lhs
        yield c.rhs


def _rebind(t: Term, signature: dict[str, Symbol], defined: set[str]) -> Term:
    """t with each symbol replaced by its classified one: defined if its name
    is in `defined`, else a constructor. A name met for the first time enters
    the signature, so the signature lists names in the order this walk meets
    them: root first, arguments right to left."""
    done: list[Term] = []
    # Terms to rebuild, and symbols whose arguments are the last in `done`,
    # rightmost argument first.
    stack: list[Term | Symbol] = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            done.append(u)
        elif u.__class__ is App:
            sym = u.symbol
            bound = signature.get(sym.name)
            if bound is None:
                kind = DEFINED if sym.name in defined else CONSTRUCTOR
                bound = signature[sym.name] = Symbol(sym.name, sym.arity, kind)
            elif bound.arity != sym.arity:
                raise ArityConflict(
                    f"symbol {sym.name!r} used with arities {bound.arity} and {sym.arity}"
                )
            if u.args:
                stack.append(bound)
                stack.extend(u.args)
            else:
                done.append(App(bound, ()))
        else:
            k = len(done) - u.arity
            args = tuple(reversed(done[k:]))
            del done[k:]
            done.append(App(u, args))
    return done[0]


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
                findings.append(Finding(rule.label, message))
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


# An identifier: a name, then the suffixes of generated symbols (f^i, f^-1,
# tuple#2).
IDENT_PATTERN = r"[A-Za-z0-9_][A-Za-z0-9_']*(?:\^(?:i|-1))?(?:\#\d+)?"
_TOKENS = r"""
      (?P<WS>\s+)
    | (?P<IDENT>""" + IDENT_PATTERN + r""")
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
    """
_TOKEN_RE = re.compile(_TOKENS, re.VERBOSE)


def tokenize(text: str, start: int = 0, end: int | None = None) -> list[Token]:
    """The tokens of text[start:end], at their offsets in text."""
    lines = _Lines(text)
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text, start, len(text) if end is None else end):
        kind = m.lastgroup
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", *lines.locate(m.start()))
        append(Token(kind, m.group(), m.start(), lines))
    return tokens


class TokenStream:
    """Tokens read front to back."""

    def __init__(self, tokens: list[Token]):
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

    def finish(self) -> None:
        """Fail unless every token has been read."""
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)


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


class TermParser:
    """Term syntax: f(t1,...,tn), bare nullary symbols, [..] list sugar.

    `symbols` maps each name met so far to its symbol; a name it lacks enters
    it as a constructor of the arity it is first used with."""

    def __init__(
        self,
        stream: TokenStream,
        variables: set[str],
        symbols: dict[str, Symbol],
        allow_reserved: bool,
    ):
        self.stream = stream
        self.variables = variables
        self.symbols = symbols
        self.allow_reserved = allow_reserved

    def _symbol(self, tok: Token, arity: int) -> Symbol:
        sym = self.symbols.get(tok.text)
        if sym is None:
            sym = self.symbols[tok.text] = Symbol(tok.text, arity)
        elif sym.arity != arity:
            raise ArityConflict(
                f"symbol {tok.text!r} used with arities {sym.arity} and {arity}",
                tok.line,
                tok.column,
            )
        return sym

    def parse(self) -> Term:
        stream = self.stream
        # The open applications and lists, innermost last: the head token
        # (None for a list) and the arguments read so far.
        frames: list[tuple[Token | None, list[Term]]] = []
        while True:
            if stream.at("LBRACK"):
                stream.next()
                if not stream.at("RBRACK"):
                    frames.append((None, []))
                    continue
                stream.next()
                t = self._list([])
            else:
                tok = stream.expect("IDENT")
                if stream.at("LPAREN"):
                    if tok.text in self.variables:
                        raise ParseError(
                            f"variable {tok.text!r} applied to arguments", tok.line, tok.column
                        )
                    stream.next()
                    frames.append((tok, []))
                    continue
                is_variable = tok.text in self.variables
                if not self.allow_reserved:
                    _check_reserved(tok, is_variable)
                t = Var(tok.text) if is_variable else App(self._symbol(tok, 0), ())
            # t is complete: the next argument of the innermost open frame.
            while frames:
                head, args = frames[-1]
                args.append(t)
                if stream.at("COMMA"):
                    stream.next()
                    break
                frames.pop()
                if head is None:
                    stream.expect("RBRACK")
                    t = self._list(args)
                else:
                    stream.expect("RPAREN")
                    if not self.allow_reserved:
                        _check_reserved(head, is_variable=False)
                    t = App(self._symbol(head, len(args)), tuple(args))
            else:
                return t

    def _list(self, items: list[Term]) -> Term:
        out: Term = App(self._symbol(_NIL, 0), ())
        cons = self._symbol(_CONS, 2)
        for item in reversed(items):
            out = App(cons, (item, out))
        return out


_NIL = Token("IDENT", "nil", 0, None)
_CONS = Token("IDENT", "cons", 0, None)


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
    symbols: dict[str, Symbol] = {}
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
            term_parser = TermParser(stream, variables, symbols, allow_reserved)
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
    stream: TokenStream, term_parser: TermParser
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
    symbols = dict(system.signature) if system else {}
    parser = TermParser(stream, set(variables), symbols, allow_reserved)
    terms = [parser.parse()]
    while stream.at("COMMA"):
        stream.next()
        terms.append(parser.parse())
    stream.finish()
    return terms


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

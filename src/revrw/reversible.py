"""Reversible rewriting: the forward relation records trace terms, the
backward relation consumes them deterministically.

A trace term label(p, sigma', [pi1], ..., [pin]) stores the applied rule's
label, the position, the recorded bindings needed for deterministic playback
(erased variables plus condition-output variables not recoverable from the
result), and one sub-trace per condition. A trace lists trace terms most
recent first; a pair couples a ground term with a trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    EmptyTrace,
    InvalidPosition,
    NoStep,
    ParseError,
    TraceMismatch,
    UnknownLabel,
    UnsafePair,
)
from .rewrite import Bounds, DEFAULT_BOUNDS, StepWitness, derivation, first_step, step
from .systems import RewriteSystem, Rule, TermParser, TokenStream, tokenize
from .terms import (
    Position,
    Subst,
    Term,
    format_position,
    format_subst,
    format_term,
    is_ground,
    match,
    parse_position,
    replace,
    subterm,
    term_vars,
    vars_of,
)


@dataclass(frozen=True, slots=True)
class TraceTerm:
    label: str
    position: Position
    recorded: Subst
    sub_traces: tuple["Trace", ...] = ()

    def __repr__(self) -> str:
        return format_trace_term(self)


Trace = tuple[TraceTerm, ...]

EMPTY_TRACE: Trace = ()


@dataclass(frozen=True, slots=True)
class Pair:
    term: Term
    trace: Trace = EMPTY_TRACE

    def __repr__(self) -> str:
        return f"<{format_term(self.term)}, {format_trace(self.trace)}>"


@dataclass(frozen=True, slots=True)
class SafetyReport:
    ok: bool
    findings: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


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


def is_safe(system: RewriteSystem, trace: Trace) -> SafetyReport:
    """Check the safety domain equation for every trace term, recursively."""
    findings: list[str] = []

    def walk(tr: Trace) -> None:
        for tt in tr:
            rule = system.rule_by_label(tt.label)
            if rule is None:
                raise UnknownLabel(f"trace references unknown rule label {tt.label!r}")
            if not tt.recorded.is_ground:
                findings.append(f"{tt.label}: recorded substitution is not ground")
            need = safety_domain(rule)
            if tt.recorded.domain != need:
                findings.append(
                    f"{tt.label}: recorded domain {sorted(tt.recorded.domain)} "
                    f"differs from required {sorted(need)}"
                )
            if len(tt.sub_traces) != len(rule.conditions):
                findings.append(
                    f"{tt.label}: {len(tt.sub_traces)} sub-traces for "
                    f"{len(rule.conditions)} conditions"
                )
            else:
                for sub in tt.sub_traces:
                    walk(sub)

    walk(trace)
    return SafetyReport(not findings, tuple(findings))


def _require_safe(system: RewriteSystem, pair: Pair) -> None:
    report = is_safe(system, pair.trace)
    if not report.ok:
        raise UnsafePair("; ".join(report.findings))


def witness_trace_term(system: RewriteSystem, witness: StepWitness) -> TraceTerm:
    """The trace term recording one step witness (sub-derivations included)."""
    rule = system.rule_by_label(witness.rule_label)
    assert rule is not None
    recorded = witness.sigma.restrict(safety_domain(rule))
    subs = tuple(
        derivation_trace(system, steps) for steps in witness.sub_witnesses
    )
    return TraceTerm(witness.rule_label, witness.position, recorded, subs)


def derivation_trace(system: RewriteSystem, steps: tuple[StepWitness, ...]) -> Trace:
    """Trace of a recorded derivation, most recent step first."""
    return tuple(witness_trace_term(system, w) for w in reversed(steps))


def forward_step(
    system: RewriteSystem,
    pair: Pair,
    strategy: str = "innermost",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Pair:
    """One forward step (first witness under the strategy), prepending the
    recorded trace term."""
    _require_safe(system, pair)
    return _forward(system, pair, strategy, bounds)


def _forward(system: RewriteSystem, pair: Pair, strategy: str, bounds: Bounds) -> Pair:
    witness = first_step(system, pair.term, strategy, bounds)
    if witness is None:
        raise NoStep(f"{format_term(pair.term)} is a normal form under {strategy}")
    return Pair(witness.result, (witness_trace_term(system, witness), *pair.trace))


def forward_successors(
    system: RewriteSystem,
    pair: Pair,
    strategy: str = "any",
    bounds: Bounds = DEFAULT_BOUNDS,
) -> list[Pair]:
    """All one-step forward successors with their traces (enumeration entry
    point for the nondeterministic forward relation)."""
    _require_safe(system, pair)
    return [
        Pair(w.result, (witness_trace_term(system, w), *pair.trace))
        for w in step(system, pair.term, strategy, bounds)
    ]


def forward_run(
    system: RewriteSystem,
    pair: Pair,
    strategy: str = "innermost",
    steps: int | None = None,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Pair:
    """Iterate forward_step. steps=None runs to a normal form (at most
    bounds.max_steps top-level steps)."""
    _require_safe(system, pair)
    if steps is not None and steps <= 0:
        return pair
    term = pair.term
    recorded: list[TraceTerm] = []
    for witness in derivation(system, term, strategy, bounds):
        term = witness.result
        recorded.append(witness_trace_term(system, witness))
        if len(recorded) == steps:
            break
        if steps is None and len(recorded) >= bounds.max_steps:
            raise BoundExceeded("forward run exceeded the step bound")
    if not recorded:
        return pair
    recorded.reverse()
    return Pair(term, (*recorded, *pair.trace))


def backward_step(system: RewriteSystem, pair: Pair) -> Pair:
    """Undo the most recent trace term. Deterministic: the label pins the
    rule, matching the rule rhs against the focus pins theta, and the
    condition sub-traces are played back in reverse order."""
    _require_safe(system, pair)
    return _backward(system, pair)


def _backward(system: RewriteSystem, pair: Pair) -> Pair:
    if not pair.trace:
        raise EmptyTrace("backward step on an empty trace")
    tt, rest = pair.trace[0], pair.trace[1:]
    rule = system.rule_by_label(tt.label)
    if rule is None:
        raise UnknownLabel(f"trace references unknown rule label {tt.label!r}")
    return Pair(_undo(system, pair.term, tt, rule), rest)


def _undo(
    system: RewriteSystem,
    term: Term,
    tt: TraceTerm,
    rule: Rule,
    theta: Subst | None = None,
) -> Term:
    try:
        focus = subterm(term, tt.position)
    except InvalidPosition:
        raise TraceMismatch(
            f"{tt.label}: position {format_position(tt.position)} not in "
            f"{format_term(term)}"
        ) from None
    if theta is None:
        theta = match(rule.rhs, focus)
    if theta is None:
        raise TraceMismatch(
            f"{tt.label}: right-hand side {format_term(rule.rhs)} does not match "
            f"{format_term(focus)}"
        )
    sigma = theta.union(tt.recorded)
    for i in range(len(rule.conditions) - 1, -1, -1):
        c = rule.conditions[i]
        start = sigma.apply(c.rhs)
        if not is_ground(start):
            raise TraceMismatch(
                f"{tt.label}: condition {i + 1} right-hand side is not ground "
                "during backward playback"
            )
        sub = _backward_to_empty(system, Pair(start, tt.sub_traces[i]))
        extension = match(sigma.apply(c.lhs), sub.term)
        if extension is None:
            raise TraceMismatch(
                f"{tt.label}: condition {i + 1} left-hand side does not match the "
                f"replayed value {format_term(sub.term)}"
            )
        sigma = sigma.union(extension)
    rebuilt = sigma.apply(rule.lhs)
    if not is_ground(rebuilt):
        raise TraceMismatch(
            f"{tt.label}: left-hand side variables remain unbound after playback"
        )
    return replace(term, tt.position, rebuilt)


def _backward_to_empty(system: RewriteSystem, pair: Pair) -> Pair:
    while pair.trace:
        pair = _backward(system, pair)
    return pair


def backward_run(system: RewriteSystem, pair: Pair) -> Pair:
    """Apply backward_step until the trace is empty: exactly len(trace)
    top-level steps."""
    _require_safe(system, pair)
    return _backward_to_empty(system, pair)


# ---------------------------------------------------------------------------
# Trace serialization: label(pos, {x -> t, ...}, [trace], ...)


def format_trace_term(tt: TraceTerm) -> str:
    parts = [format_position(tt.position), format_subst(tt.recorded)]
    parts += [format_trace(sub) for sub in tt.sub_traces]
    return f"{tt.label}(" + ", ".join(parts) + ")"


def format_trace(trace: Trace) -> str:
    return "[" + ", ".join(format_trace_term(tt) for tt in trace) + "]"


def parse_trace(text: str) -> Trace:
    """Inverse of format_trace. The substitution arrow may be written `->`
    or the mapsto glyph."""
    stream = TokenStream(tokenize(text))
    trace = _parse_trace(stream)
    tok = stream.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return trace


def _parse_trace(stream: TokenStream) -> Trace:
    stream.expect("LBRACK")
    items: list[TraceTerm] = []
    if not stream.at("RBRACK"):
        items.append(_parse_trace_term(stream))
        while stream.at("COMMA"):
            stream.next()
            items.append(_parse_trace_term(stream))
    stream.expect("RBRACK")
    return tuple(items)


def _parse_trace_term(stream: TokenStream) -> TraceTerm:
    label = stream.expect("IDENT").text
    stream.expect("LPAREN")
    position = _parse_pos(stream)
    stream.expect("COMMA")
    recorded = _parse_subst(stream)
    subs: list[Trace] = []
    while stream.at("COMMA"):
        stream.next()
        subs.append(_parse_trace(stream))
    stream.expect("RPAREN")
    return TraceTerm(label, position, recorded, tuple(subs))


def _parse_pos(stream: TokenStream) -> Position:
    parts = [stream.expect("IDENT").text]
    while stream.at("DOT"):
        stream.next()
        parts.append(stream.expect("IDENT").text)
    return parse_position(".".join(parts))


def _parse_subst(stream: TokenStream) -> Subst:
    stream.expect("LBRACE")
    bindings: dict[str, Term] = {}
    if not stream.at("RBRACE"):
        while True:
            name = stream.expect("IDENT").text
            stream.expect("ARROW")
            parser = TermParser(stream, set(), {}, allow_reserved=True)
            bindings[name] = parser.parse()
            if stream.at("COMMA"):
                stream.next()
            else:
                break
    stream.expect("RBRACE")
    return Subst(bindings)

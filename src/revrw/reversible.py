"""Reversible rewriting: the forward relation records trace terms, the
backward relation consumes them deterministically.

A trace term label(p, sigma', [pi1], ..., [pin]) stores the applied rule's
label, the position, the recorded bindings needed for deterministic playback
(erased variables plus condition-output variables not recoverable from the
result), and one sub-trace per condition. A trace lists trace terms most
recent first; a pair couples a ground term with a trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from itertools import chain

from .errors import (
    BoundExceeded,
    EmptyTrace,
    InvalidPosition,
    NoStep,
    NotGround,
    ParseError,
    TraceMismatch,
    UnknownLabel,
    UnsafePair,
)
from .rewrite import Bounds, DEFAULT_BOUNDS, StepWitness, derivation, first_step, step
from .systems import IDENT_PATTERN, RewriteSystem, TermParser, TokenStream, safety_domain, tokenize
from .terms import (
    App,
    EMPTY_SUBST,
    Position,
    ROOT,
    Subst,
    Term,
    format_position,
    format_subst,
    format_term,
    parse_position,
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
    # The system under which the functions below built this pair from a
    # safe one, so that it is safe by construction; None for a pair built
    # by hand, which is checked in full.
    _safe_for: RewriteSystem | None = field(default=None, init=False, compare=False, repr=False)

    def __repr__(self) -> str:
        return f"<{format_term(self.term)}, {format_trace(self.trace)}>"


@dataclass(frozen=True, slots=True)
class SafetyReport:
    ok: bool
    findings: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_safe(system: RewriteSystem, trace: Trace) -> SafetyReport:
    """Check the safety domain equation for every trace term, sub-traces
    included, in the order they are printed."""
    findings: list[str] = []
    # The trace terms still to check, innermost sub-traces last.
    pending = [iter(trace)]
    while pending:
        tt = next(pending[-1], None)
        if tt is None:
            pending.pop()
            continue
        rule = system.rule_by_label(tt.label)
        if rule is None:
            raise UnknownLabel(f"trace references unknown rule label {tt.label!r}")
        recorded = tt.recorded
        if recorded and not recorded.is_ground:
            findings.append(f"{tt.label}: recorded substitution is not ground")
        need = safety_domain(rule)
        if not recorded.has_domain(need):
            findings.append(
                f"{tt.label}: recorded domain {sorted(recorded.domain)} "
                f"differs from required {sorted(need)}"
            )
        if len(tt.sub_traces) != len(rule.conditions):
            findings.append(
                f"{tt.label}: {len(tt.sub_traces)} sub-traces for "
                f"{len(rule.conditions)} conditions"
            )
        elif tt.sub_traces:
            pending.append(chain.from_iterable(tt.sub_traces))
    return SafetyReport(not findings, tuple(findings))


def _require_safe(system: RewriteSystem, pair: Pair) -> None:
    if pair._safe_for is system:
        return
    report = is_safe(system, pair.trace)
    if not report.ok:
        raise UnsafePair("; ".join(report.findings))


def _safe_pair(system: RewriteSystem, term: Term, trace: Trace) -> Pair:
    """A pair built from a safe pair under system, marked as safe under it."""
    pair = Pair(term, trace)
    object.__setattr__(pair, "_safe_for", system)
    return pair


def witness_trace_term(system: RewriteSystem, witness: StepWitness) -> TraceTerm:
    """The trace term recording one step witness (sub-derivations included):
    its bindings of the rule's safety domain."""
    if not witness.sub_witnesses:
        return TraceTerm(witness.rule_label, witness.position, _recorded(system, witness))
    return derivation_trace(system, (witness,))[0]


def _recorded(system: RewriteSystem, witness: StepWitness) -> Subst:
    program, rule = witness.program, system.rule_by_label(witness.rule_label)
    if program is not None and program.rule is rule:
        return program.recorded(witness.slots)
    if rule is None:
        raise UnknownLabel(f"step witness references unknown rule label {witness.rule_label!r}")
    return witness.sigma.restrict(safety_domain(rule))


def derivation_trace(system: RewriteSystem, steps: tuple[StepWitness, ...]) -> Trace:
    """Trace of a recorded derivation, most recent step first. The trace
    terms are built bottom-up: those whose sub-derivations are being
    recorded wait on a stack, so nesting takes no recursion."""
    # Open trace terms, innermost last: the trace they go in and the
    # witnesses left for it, their witness and recorded bindings, their
    # sub-traces so far and the sub-derivations left.
    open_terms: list[tuple] = []
    items: list[TraceTerm] = []
    todo = reversed(steps)
    while True:
        w = next(todo, None)
        if w is not None:
            recorded = _recorded(system, w)
            if not w.sub_witnesses:
                items.append(TraceTerm(w.rule_label, w.position, recorded))
                continue
            derivations = iter(w.sub_witnesses)
            open_terms.append((items, todo, w, recorded, [], derivations))
            items, todo = [], reversed(next(derivations))
            continue
        trace = tuple(items)
        if not open_terms:
            return trace
        # The innermost open trace term goes on with a sub-trace or ends.
        subs = open_terms[-1][4]
        subs.append(trace)
        sub = next(open_terms[-1][5], None)
        if sub is not None:
            items, todo = [], reversed(sub)
            continue
        items, todo, w, recorded, _, _ = open_terms.pop()
        items.append(TraceTerm(w.rule_label, w.position, recorded, tuple(subs)))


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
        raise NoStep(pair.term, strategy)
    return _safe_pair(system, witness.result, (witness_trace_term(system, witness), *pair.trace))


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
        _safe_pair(system, w.result, (witness_trace_term(system, w), *pair.trace))
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
    recorded: list[TraceTerm] = []
    witness = None
    for witness in derivation(system, pair.term, strategy, bounds):
        recorded.append(witness_trace_term(system, witness))
        if len(recorded) == steps:
            break
        if steps is None and len(recorded) >= bounds.max_steps:
            raise BoundExceeded("forward run exceeded the step bound")
    if witness is None:
        return pair
    recorded.reverse()
    return _safe_pair(system, witness.result, (*recorded, *pair.trace))


def backward_step(system: RewriteSystem, pair: Pair) -> Pair:
    """Undo the most recent trace term. Deterministic: the label pins the
    rule, matching the rule rhs against the focus pins theta, and the
    condition sub-traces are played back in reverse order."""
    _require_safe(system, pair)
    if not pair.trace:
        raise EmptyTrace("backward step on an empty trace")
    term = _backward_to_empty(system, pair.term, pair.trace[:1])
    return _safe_pair(system, term, pair.trace[1:])


def _common_prefix(a, b) -> int:
    """The length of the longest common prefix of two tuples or strings,
    found by halving: a few slice comparisons, however long they are."""
    lo, hi = 0, min(len(a), len(b))
    if a[:hi] == b[:hi]:
        return hi
    while hi - lo > 1:  # a[:lo] matches b[:lo], a[:hi] does not match b[:hi]
        mid = (lo + hi) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid
    return lo


class _Zipper:
    """A term opened at one position: the ancestors of the focus, root
    first, each with the index of the child on the path. Moving to another
    position goes up to the common prefix and down from there; a node is
    rebuilt when the search goes up through it and only if the focus below
    it is no longer its child."""

    __slots__ = ("path", "position", "focus")

    def __init__(self, term: Term):
        self.path: list[tuple[App, int]] = []
        self.position: Position = ()
        self.focus = term

    def _up(self) -> None:
        node, i = self.path.pop()
        args = node.args
        if args[i - 1] is self.focus:
            self.focus = node
        else:
            self.focus = App(node.symbol, args[: i - 1] + (self.focus,) + args[i:])

    def move(self, position: Position) -> bool:
        """Focus the subterm at position; False if the term has none, and
        then the zipper is only good for `close`."""
        here = self.position
        k = min(len(here), len(position))
        if here[:k] != position[:k]:
            k = _common_prefix(here, position)
        path = self.path
        while len(path) > k:
            self._up()
        for i in position[k:]:
            t = self.focus
            if t.__class__ is not App or not 1 <= i <= len(t.args):
                return False
            path.append((t, i))
            self.focus = t.args[i - 1]
        self.position = position
        return True

    def close(self) -> Term:
        while self.path:
            self._up()
        self.position = ()
        return self.focus


def _backward_to_empty(system: RewriteSystem, term: Term, trace: Trace) -> Term:
    """term with every trace term undone, most recent first, each by its
    rule's program read backwards (`RewriteSystem.replays`). A condition's
    sub-trace is played back in a frame pushed on a stack, not by a
    recursive call. The pair is safe, so every slot the program reads as
    bound is bound to a ground term when it is read."""
    replays = system.replays
    # The playbacks waiting for a sub-trace's value, innermost last: the
    # trace and the index of the trace term after the pending one, the
    # pending trace term, its program, slots and index into the program's
    # conditions (the rule's, last to first), and the zipper.
    frames: list[tuple] = []
    zipper, n = _Zipper(term), 0
    while True:
        if n < len(trace):
            tt = trace[n]
            n += 1
            program = replays.get(tt.label)
            if program is None:
                raise UnknownLabel(f"trace references unknown rule label {tt.label!r}")
            if not zipper.move(tt.position):
                raise TraceMismatch(
                    f"{tt.label}: position {format_position(tt.position)} not in "
                    f"{format_term(zipper.close())}"
                )
            focus = zipper.focus
            if focus.__class__ is not App or not focus.ground:
                raise NotGround(f"match subject must be ground: {format_term(focus)}")
            slots = program.lhs(focus, False)
            if slots is None:
                raise TraceMismatch(
                    f"{tt.label}: right-hand side {format_term(program.rule.rhs)} does not "
                    f"match {format_term(focus)}"
                )
            recorded = tt.recorded
            for name, k in program.safe:
                slots[k] = recorded.get(name)
            j = 0
        else:
            value = zipper.close()
            if not frames:
                return value
            trace, n, tt, program, slots, j, zipper = frames.pop()
            if not program.conditions[j][2](value, slots, False):
                raise TraceMismatch(
                    f"{tt.label}: condition {len(program.conditions) - j} left-hand side does "
                    f"not match the replayed value {format_term(value)}"
                )
            j += 1
        # The pending trace term replays its next condition, or is undone.
        if j < len(program.conditions):
            i = len(program.conditions) - 1 - j
            start = program.conditions[j][0](slots)
            if start.__class__ is not App or not start.ground:
                raise TraceMismatch(
                    f"{tt.label}: condition {i + 1} right-hand side is not ground "
                    "during backward playback"
                )
            frames.append((trace, n, tt, program, slots, j, zipper))
            zipper, trace, n = _Zipper(start), tt.sub_traces[i], 0
            continue
        rebuilt = program.rhs(slots)
        if not rebuilt.ground:
            raise TraceMismatch(
                f"{tt.label}: left-hand side variables remain unbound after playback"
            )
        zipper.focus = rebuilt


def backward_run(system: RewriteSystem, pair: Pair) -> Pair:
    """Apply backward_step until the trace is empty: exactly len(trace)
    top-level steps."""
    _require_safe(system, pair)
    return _safe_pair(system, _backward_to_empty(system, pair.term, pair.trace), EMPTY_TRACE)


# ---------------------------------------------------------------------------
# Trace serialization: label(pos, {x -> t, ...}, [trace], ...)


def format_trace_term(tt: TraceTerm) -> str:
    return _format([tt])


def format_trace(trace: Trace) -> str:
    return _format(_bracketed(trace, []))


def _bracketed(trace: Trace, stack: list) -> list:
    """stack with the pieces of trace pushed so that they pop in order."""
    stack.append("]")
    for k in range(len(trace) - 1, 0, -1):
        stack += (trace[k], ", ")
    if trace:
        stack.append(trace[0])
    stack.append("[")
    return stack


def _format(stack: list) -> str:
    """The text of the trace terms and strings on stack, top first. A trace
    term's sub-traces go on the stack, so nesting takes no recursion."""
    out: list[str] = []
    # Each position's text, printed once: the steps of a run revisit few
    # positions, and deep ones are long. A new position's text is the last
    # one's, each index after a dot, cut after their common prefix and
    # followed by the new position's indices past it.
    texts: dict[Position, str] = {}
    last, dotted = ROOT, ""
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        where = texts.get(item.position)
        if where is None:
            p = item.position
            k = _common_prefix(last, p)
            cut = len(dotted) - len("".join(map(".{}".format, last[k:])))
            dotted = dotted[:cut] + "".join(map(".{}".format, p[k:]))
            last, where = p, dotted[1:] or "e"
            texts[p] = where
        out.append(f"{item.label}({where}, {format_subst(item.recorded)}")
        stack.append(")")
        for sub in reversed(item.sub_traces):
            _bracketed(sub, stack).append(", ")
    return "".join(out)


def parse_trace(text: str) -> Trace:
    """Inverse of format_trace. Whitespace may stand between any two lexemes,
    and the substitution arrow may be written `->` or the mapsto glyph.

    Every well-formed text is read by `_read_printed`. The token reader reads
    only the text it declines, to raise the `ParseError` with its location."""
    trace = _read_printed(text)
    if trace is None:
        stream = TokenStream(tokenize(text))
        trace = _parse_trace(stream)
        stream.finish()
    return trace


# What follows a trace term's bindings or one of its sub-traces: `)` and then
# `,` (another trace term) or `]` (the end of the trace, a group), or `, [`
# (another sub-trace, a group) and `]` if that is empty (a group).
_TAIL = r"\s*(?:\)\s*(?:,|(\]))|,\s*(\[)\s*(\])?)"
# A trace term's head: the label, the position (digits, dots, and the
# underscores and whitespace that `int` takes, checked when read), the brace
# that opens the recorded bindings and, if they are empty, `}` and what
# follows it (see _TAIL). The position's whitespace is matched possessively:
# given back to the `\s*` after it, a long run of it would cost quadratic time.
_HEAD = (
    r"\s*(" + IDENT_PATTERN + r")\s*\(\s*(e|[0-9][0-9.]*(?:[\s_][\s0-9_.]*+)?)\s*,\s*"
    r"\{(?:\s*(\})" + _TAIL + ")?"
)


@cache
def _trace_regexes():
    """The matchers of a trace's opening bracket, heads and tails, compiled
    on first use: compiling them takes longer than importing the module."""
    return re.compile(r"\s*\[\s*(\])?").match, re.compile(_HEAD).match, re.compile(_TAIL).match


def _read_printed(text: str) -> Trace | None:
    """The trace in text, or None if text is malformed. Each trace term's
    head, and its tail when its bindings are empty, is one regex match;
    non-empty bindings go to `_parse_subst` over their span's tokens. The
    trace terms whose sub-traces are being read wait on a stack, as in
    `_parse_trace`."""
    start, head, tail = _trace_regexes()
    m = start(text)
    if m is None:
        return None
    end = len(text.rstrip())
    positions: dict[str, Position] = {"e": ROOT}
    # The last new position read, and its text.
    last, last_text = ROOT, ""
    open_terms: list[tuple[list[TraceTerm], str, Position, Subst, list[Trace]]] = []
    items: list[TraceTerm] = []
    closed = m.group(1)
    while True:
        if not closed:
            m = head(text, m.end())
            if m is None:
                return None
            label, where, empty, closed, sub, sub_closed = m.groups()
            position = positions.get(where)
            if position is None:
                # The indices of last_text before the longest common prefix
                # of the two texts, cut back to a dot or end in both, and
                # those of where after it.
                k = _common_prefix(last_text, where)
                if where[k : k + 1] not in "." or last_text[k : k + 1] not in ".":
                    k = where.rfind(".", 0, k)
                try:
                    read = tuple(map(int, where[k + 1 :].split("."))) if k < len(where) else ()
                except ValueError:  # an index int does not take: empty, 1 2, 1_, too long
                    return None
                if 0 in read:
                    return None
                kept = last[: len(last) - last_text.count(".", k)] if k >= 0 else ROOT
                last = positions[where] = position = kept + read
                last_text = where
            if empty:
                recorded = EMPTY_SUBST
            else:
                j = text.find("}", m.end()) + 1
                if not j:
                    return None
                try:
                    recorded = _parse_subst(TokenStream(tokenize(text, m.end() - 1, j)))
                except ParseError:
                    return None
                m = tail(text, j)
                if m is None:
                    return None
                closed, sub, sub_closed = m.groups()
            open_terms.append((items, label, position, recorded, []))
        else:
            trace = tuple(items)
            if not open_terms:
                return trace if m.end() == end else None
            open_terms[-1][4].append(trace)
            m = tail(text, m.end())
            if m is None:
                return None
            closed, sub, sub_closed = m.groups()
        # The innermost open trace term goes on with a sub-trace or ends.
        if sub:
            items = []
            closed = sub_closed
            continue
        items, label, position, recorded, subs = open_terms.pop()
        items.append(TraceTerm(label, position, recorded, tuple(subs)))


def _parse_trace(stream: TokenStream) -> Trace:
    """One bracketed trace, read token by token, where `_read_printed`
    declined the text: for the `ParseError` and its line and column. The
    trace terms whose sub-traces are being read wait on a stack, so nesting
    takes no recursion."""
    # Open trace terms, innermost last: the trace they sit in, their label,
    # position and recorded bindings, and their sub-traces read so far.
    open_terms: list[tuple[list[TraceTerm], str, Position, Subst, list[Trace]]] = []
    stream.expect("LBRACK")
    items: list[TraceTerm] = []
    more = not stream.at("RBRACK")
    while True:
        if more:
            label = stream.expect("IDENT").text
            stream.expect("LPAREN")
            position = _parse_pos(stream)
            stream.expect("COMMA")
            open_terms.append((items, label, position, _parse_subst(stream), []))
        else:
            stream.expect("RBRACK")
            trace = tuple(items)
            if not open_terms:
                return trace
            open_terms[-1][4].append(trace)
        # The innermost open trace term goes on with a sub-trace or ends.
        if stream.at("COMMA"):
            stream.next()
            stream.expect("LBRACK")
            items = []
            more = not stream.at("RBRACK")
            continue
        stream.expect("RPAREN")
        items, label, position, recorded, subs = open_terms.pop()
        items.append(TraceTerm(label, position, recorded, tuple(subs)))
        more = stream.at("COMMA")
        if more:
            stream.next()


def _parse_pos(stream: TokenStream) -> Position:
    """A position: IDENT tokens joined by dots (e, indices, or text that is
    no position at all)."""
    first = stream.expect("IDENT")
    parts = [first.text]
    while stream.at("DOT"):
        stream.next()
        parts.append(stream.expect("IDENT").text)
    try:
        return parse_position(".".join(parts))
    except InvalidPosition as exc:
        raise ParseError(str(exc), first.line, first.column) from None


def _parse_subst(stream: TokenStream) -> Subst:
    stream.expect("LBRACE")
    bindings: dict[str, Term] = {}
    if not stream.at("RBRACE"):
        while True:
            tok = stream.expect("IDENT")
            if tok.text in bindings:
                raise ParseError(
                    f"variable {tok.text!r} is bound twice in a recorded substitution",
                    tok.line,
                    tok.column,
                )
            stream.expect("ARROW")
            parser = TermParser(stream, set(), {}, allow_reserved=True)
            bindings[tok.text] = parser.parse()
            if stream.at("COMMA"):
                stream.next()
            else:
                break
    stream.expect("RBRACE")
    return Subst(bindings)

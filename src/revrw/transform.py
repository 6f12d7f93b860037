"""System-to-system transformations: flattening to pure-constructor form,
constructor-condition simplification, injectivization, inversion, the
improved injectivization for injective rules, trace encoding, and the
view-update construction built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator

from .errors import (
    NotApplicable,
    PreconditionViolated,
    RevrwError,
    ShapeViolated,
    UnsafeTrace,
    UpdateFailed,
    ViewFailed,
)
from .reversible import Trace, TraceTerm, is_safe
from .rewrite import Bounds, DEFAULT_BOUNDS, normalize
from .systems import Condition, RewriteSystem, Rule, format_system, safety_domain, validate
from .terms import (
    App,
    DEFINED,
    ROOT,
    Symbol,
    Term,
    Var,
    format_term,
    is_basic_term,
    is_constructor_term,
    is_ground,
    rebuild,
    term_vars,
    unify,
    vars_of,
)

FRESH_PREFIX = "_w"


class FreshNames:
    """Fresh-variable source for one transformation session. Names use the
    reserved `_w` prefix and skip anything already taken."""

    def __init__(self, taken: set[str] | frozenset[str] = frozenset()):
        self._n = 0
        self._taken = set(taken)

    def next(self) -> str:
        while True:
            self._n += 1
            name = f"{FRESH_PREFIX}{self._n}"
            if name not in self._taken:
                self._taken.add(name)
                return name


def _rule_vars(rule: Rule) -> set[str]:
    out = term_vars(rule.lhs) | term_vars(rule.rhs)
    for c in rule.conditions:
        out |= vars_of(c.lhs, c.rhs)
    return out


def tuple_symbol(k: int) -> Symbol:
    return Symbol(f"tuple#{k}", k)


def injective_name(name: str) -> str:
    return name + "^i"


def inverse_name(name: str) -> str:
    return name + "^-1"


# ---------------------------------------------------------------------------
# The four pcDCTRS-producing rewrites on rules


def _split_basic(t: Term, w: Var) -> tuple[Term, Term]:
    """The innermost-leftmost basic subterm of t, which is not a constructor
    term, and t with w in its place, a copy of the path to it. Basic
    subterms never nest, so one descent finds it: at each level, the first
    argument that is not a constructor term holds it."""
    path: list[tuple[App, int]] = []
    while not is_basic_term(t):
        i = next(i for i, a in enumerate(t.args) if not is_constructor_term(a))
        path.append((t, i))
        t = t.args[i]
    u: Term = w
    for node, i in reversed(path):
        u = App(node.symbol, node.args[:i] + (u,) + node.args[i + 1 :])
    return t, u


def flatten_rhs(rule: Rule, fresh: FreshNames | None = None) -> Rule:
    """Replace the innermost-leftmost basic subterm of the rhs by a fresh
    variable bound through a new last condition."""
    if is_constructor_term(rule.rhs):
        raise NotApplicable(f"rule {rule.label}: right-hand side is a constructor term")
    fresh = fresh or FreshNames(_rule_vars(rule))
    w = Var(fresh.next())
    basic, rhs = _split_basic(rule.rhs, w)
    return Rule(rule.label, rule.lhs, rhs, (*rule.conditions, Condition(basic, w)))


def flatten_condition(rule: Rule, fresh: FreshNames | None = None) -> Rule:
    """Split the first condition whose lhs is neither constructor nor basic
    at its innermost-leftmost basic subterm."""
    for i, c in enumerate(rule.conditions):
        if is_constructor_term(c.lhs) or is_basic_term(c.lhs):
            continue
        fresh = fresh or FreshNames(_rule_vars(rule))
        w = Var(fresh.next())
        basic, lhs = _split_basic(c.lhs, w)
        new_conditions = (
            *rule.conditions[:i],
            Condition(basic, w),
            Condition(lhs, c.rhs),
            *rule.conditions[i + 1 :],
        )
        return Rule(rule.label, rule.lhs, rule.rhs, new_conditions)
    raise NotApplicable(
        f"rule {rule.label}: every condition lhs is constructor or basic"
    )


def remove_unify(rule: Rule) -> Rule:
    """Drop the first unifiable constructor condition, applying its mgu to
    the whole rule."""
    for i, c in enumerate(rule.conditions):
        if not (is_constructor_term(c.lhs) and is_constructor_term(c.rhs)):
            continue
        theta = unify(c.lhs, c.rhs)
        if theta is None:
            continue
        rest = rule.conditions[:i] + rule.conditions[i + 1 :]
        return Rule(
            rule.label,
            theta.apply(rule.lhs),
            theta.apply(rule.rhs),
            tuple(Condition(theta.apply(x.lhs), theta.apply(x.rhs)) for x in rest),
        )
    raise NotApplicable(f"rule {rule.label}: no unifiable constructor condition")


def remove_fail(rule: Rule) -> None:
    """Signal that the rule is infeasible (some constructor condition has no
    unifier) and must be deleted from the system."""
    for c in rule.conditions:
        if (
            is_constructor_term(c.lhs)
            and is_constructor_term(c.rhs)
            and unify(c.lhs, c.rhs) is None
        ):
            return None
    raise NotApplicable(f"rule {rule.label}: no infeasible constructor condition")


# ---------------------------------------------------------------------------
# The pipeline to pcDCTRS


@dataclass(frozen=True, slots=True)
class Stage:
    name: str
    rules: tuple[Rule, ...]
    changes: tuple[str, ...]

    @property
    def output_system(self) -> RewriteSystem:
        """The system after this stage, built from its rules on each access."""
        return RewriteSystem(self.rules)


@dataclass(frozen=True, slots=True)
class PipelineReport:
    stages: tuple[Stage, ...]

    def __str__(self) -> str:
        if not self.stages:
            return "(no transformation steps)\n"
        blocks = []
        for i, stage in enumerate(self.stages, 1):
            header = f"-- stage {i}: {stage.name} --"
            body = "\n".join(stage.changes)
            blocks.append(f"{header}\n{body}\n{format_system(stage.output_system)}")
        return "\n".join(blocks)


_MAX_PIPELINE_STEPS = 10000


def to_pcdctrs(system: RewriteSystem) -> tuple[RewriteSystem, PipelineReport]:
    """Exhaustively apply flattening-rhs, flattening-condition, removal-unify
    and removal-fail until the system is a pcDCTRS: each rule, in textual
    order, is rewritten with the first applicable operation (in that
    priority) until none applies. An operation reads only its rule and the
    symbol kinds, so earlier rules stay inapplicable, except after a
    removal-fail that deletes a symbol's last rule: the symbol becomes a
    constructor, so the rules are rebound and the scan restarts at the first
    rule. The system is built once, at the end.

    Input must be a constructor DCTRS whose condition rhs's are constructor
    terms. Terminates: every step removes one defined-symbol occurrence from
    a non-head position or one constructor-lhs condition or one rule, and
    only a step that removes a rule restarts the scan.
    """
    if not system.is_dctrs:
        raise PreconditionViolated("input is not a DCTRS")
    if not system.is_constructor_system:
        raise PreconditionViolated("input is not a constructor system")
    for r in system.rules:
        for c in r.conditions:
            if not is_constructor_term(c.rhs):
                raise PreconditionViolated(
                    f"rule {r.label}: condition rhs {format_term(c.rhs)} is not a "
                    "constructor term"
                )

    fresh = FreshNames(set().union(*map(_rule_vars, system.rules)))
    ops = (
        ("flattening-rhs", lambda r: flatten_rhs(r, fresh)),
        ("flattening-condition", lambda r: flatten_condition(r, fresh)),
        ("removal-unify", remove_unify),
        ("removal-fail", remove_fail),
    )
    rules = list(system.rules)
    stages: list[Stage] = []
    i = 0
    while i < len(rules):
        rule = rules[i]
        for name, op in ops:
            try:
                new_rule = op(rule)
                break
            except NotApplicable:
                pass
        else:
            i += 1
            continue
        if new_rule is not None:
            rules[i] = new_rule
            change = f"{name} on {rule.label}: {new_rule!r}"
        else:
            del rules[i]
            change = f"{name} deleted {rule.label}"
            if all(r.lhs.symbol.name != rule.lhs.symbol.name for r in rules):
                rules = list(RewriteSystem(rules).rules)
                i = 0
        stages.append(Stage(name, tuple(rules), (change,)))
        if len(stages) == _MAX_PIPELINE_STEPS:
            raise RevrwError("pcDCTRS pipeline did not terminate")

    current = RewriteSystem(rules) if stages else system
    # Validated once: is_pcdctrs is cached on the system, so injectivize
    # and view_update read it without validating again.
    if not current.is_pcdctrs:
        raise RevrwError(f"pipeline output is not a pcDCTRS:\n{validate(current, 'pcdctrs')}")
    return current, PipelineReport(tuple(stages))


# ---------------------------------------------------------------------------
# Injectivization and inversion


def _rename_root(t: Term, name: str) -> App:
    assert isinstance(t, App)
    return App(Symbol(name, t.symbol.arity), t.args)


def _pair_term(a: Term, b: Term) -> App:
    return App(tuple_symbol(2), (a, b))


def injectivize(system: RewriteSystem) -> RewriteSystem:
    """Add a trace output to every rule: each function f becomes f^i
    returning a pair of the original result and a trace constructor holding
    the safety-domain bindings (lexicographic order) and the condition trace
    variables."""
    _require_pcdctrs(system)
    return RewriteSystem(_injectivize_rule(r, improved=False) for r in system.rules)


def _injectivize_rule(rule: Rule, improved: bool) -> Rule:
    fresh = FreshNames(_rule_vars(rule))
    ws = [Var(fresh.next()) for _ in rule.conditions]
    ys = sorted(safety_domain(rule))
    conditions = tuple(
        Condition(
            _rename_root(c.lhs, injective_name(c.lhs.symbol.name)),
            _pair_term(c.rhs, w),
        )
        for c, w in zip(rule.conditions, ws)
    )
    if improved:
        assert len(ws) == 1 and not ys
        trace_out: Term = ws[0]
    else:
        trace_sym = Symbol(rule.label, len(ys) + len(ws))
        trace_out = App(trace_sym, (*(Var(y) for y in ys), *ws))
    return Rule(
        rule.label,
        _rename_root(rule.lhs, injective_name(rule.lhs.symbol.name)),
        _pair_term(rule.rhs, trace_out),
        conditions,
    )


def _require_pcdctrs(system: RewriteSystem) -> None:
    if not system.is_pcdctrs:
        raise PreconditionViolated("input is not a pcDCTRS")


def _count_defined(t: Term) -> int:
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            if u.symbol.kind == DEFINED:
                n += 1
            stack.extend(u.args)
    return n


def range_disjoint(r1: Term, r2: Term) -> bool:
    """Sound syntactic approximation of constructor-range disjointness: each
    maximal defined-rooted subterm is abstracted to a distinct fresh variable
    (the two terms are renamed apart) and the abstractions must fail to
    unify. True implies the ranges are disjoint; False is inconclusive."""
    holes = count(1)

    def abstract(t: Term, side: str) -> tuple[Term, bool]:
        if isinstance(t, Var):
            return Var(f"{side}#{t.name}"), False
        if t.symbol.kind == DEFINED:
            return Var(f"hole#{next(holes)}"), False
        return t, True

    left = rebuild(r1, lambda t: abstract(t, "l"))
    return unify(left, rebuild(r2, lambda t: abstract(t, "r"))) is None


def injectivize_improved(system: RewriteSystem, origin: RewriteSystem) -> RewriteSystem:
    """As injectivize, but rules whose originating TRS rule is provably
    injective (pairwise range-disjoint rhs, non-erasing, single defined call
    in the rhs) emit the bare condition trace variable instead of a trace
    constructor."""
    _require_pcdctrs(system)
    if not (origin.is_trs and origin.is_constructor_system):
        raise PreconditionViolated("origin is not a constructor TRS")
    return RewriteSystem(
        _injectivize_rule(r, improved=_qualifies(r, origin)) for r in system.rules
    )


def _qualifies(rule: Rule, origin: RewriteSystem) -> bool:
    source = origin.rule_by_label(rule.label)
    if source is None:
        raise PreconditionViolated(f"origin has no rule labelled {rule.label!r}")
    siblings = [
        r for r in origin.rules_by_root[source.lhs.symbol.name] if r.label != source.label
    ]
    if not all(range_disjoint(source.rhs, r.rhs) for r in siblings):
        return False
    if term_vars(source.lhs) != term_vars(source.rhs):
        return False
    if _count_defined(source.rhs) != 1:
        return False
    # A qualifying TRS rule flattens to one condition with an empty safety
    # domain; anything else means the mapping assumption broke.
    return len(rule.conditions) == 1 and not safety_domain(rule)


def invert(system: RewriteSystem) -> RewriteSystem:
    """Swap rule sides and reverse conditions of an injectivized system:
    f^-1 maps (result, trace) back to the argument tuple."""
    return RewriteSystem(_invert_rule(r) for r in system.rules)


def is_injectivized(system: RewriteSystem) -> bool:
    """True iff the system has rules and every rule has the shape that
    injectivize produces, so that invert accepts it."""
    return bool(system.rules) and all(
        _injective_shape(r) is not None for r in system.rules
    )


def _invert_rule(rule: Rule) -> Rule:
    shape = _injective_shape(rule)
    if shape is None:
        raise ShapeViolated(
            f"rule {rule.label} is not injectivization-shaped: {rule!r}"
        )
    base, result, trace_out, cond_parts = shape
    inv_lhs = App(Symbol(inverse_name(base), 2), (result, trace_out))
    inv_rhs = App(tuple_symbol(len(rule.lhs.args)), rule.lhs.args)
    inv_conditions = tuple(
        Condition(
            App(Symbol(inverse_name(cbase), 2), (t_i, w_i)),
            App(tuple_symbol(len(args)), args),
        )
        for cbase, args, t_i, w_i in reversed(cond_parts)
    )
    return Rule(rule.label, inv_lhs, inv_rhs, inv_conditions)


def _injective_shape(rule: Rule):
    """Decompose an injectivized rule into (base name, result term, trace
    output, per-condition parts), or None if it does not fit."""
    lhs = rule.lhs
    if not lhs.symbol.name.endswith("^i"):
        return None
    base = lhs.symbol.name[: -len("^i")]
    rhs = rule.rhs
    if not (isinstance(rhs, App) and rhs.symbol == tuple_symbol(2)):
        return None
    result, trace_out = rhs.args
    cond_parts = []
    trace_vars = []
    for c in rule.conditions:
        if not (isinstance(c.lhs, App) and c.lhs.symbol.name.endswith("^i")):
            return None
        if not (isinstance(c.rhs, App) and c.rhs.symbol == tuple_symbol(2)):
            return None
        t_i, w_i = c.rhs.args
        if not isinstance(w_i, Var):
            return None
        trace_vars.append(w_i)
        cond_parts.append(
            (c.lhs.symbol.name[: -len("^i")], c.lhs.args, t_i, w_i)
        )
    if isinstance(trace_out, Var):
        # Improved shape: the bare trace variable of the single condition.
        if len(trace_vars) != 1 or trace_out != trace_vars[0]:
            return None
    else:
        # Trace constructor beta(ys..., ws...): recognized by its shape, as
        # trace symbols are plain constructors.
        if not isinstance(trace_out, App) or _mangled(trace_out.symbol.name):
            return None
        if not all(isinstance(a, Var) for a in trace_out.args):
            return None
        tail = trace_out.args[len(trace_out.args) - len(trace_vars) :]
        if list(tail) != trace_vars:
            return None
    return base, result, trace_out, cond_parts


def _mangled(name: str) -> bool:
    return name.endswith("^i") or name.endswith("^-1") or name.startswith("tuple#")


# ---------------------------------------------------------------------------
# Trace encoding


def encode_trace(system: RewriteSystem, trace: Trace | TraceTerm) -> Term:
    """Encode a safe single-step trace as the ground term the injectivized
    system would compute: label(recorded values in lexicographic variable
    order, encoded sub-traces).

    Only traces that can arise from top reduction of a pcDCTRS are encodable:
    root positions and exactly one trace term per (sub-)trace.
    """
    if isinstance(trace, TraceTerm):
        tt = trace
    else:
        if len(trace) != 1:
            raise UnsafeTrace(
                f"only singleton traces are encodable, got length {len(trace)}"
            )
        tt = trace[0]
    report = is_safe(system, (tt,))
    if not report.ok:
        raise UnsafeTrace("; ".join(report.findings))
    return _encode(system, tt)


def _encode(system: RewriteSystem, tt: TraceTerm) -> Term:
    """tt encoded bottom-up: the trace terms whose sub-traces are being
    encoded wait on a stack, as in `derivation_trace`, and each is checked
    as it is entered, in preorder."""
    # Open trace terms, innermost last: each with its recorded values and
    # encoded sub-traces so far, and its sub-traces left.
    open_terms: list[tuple[TraceTerm, list[Term], Iterator[Trace]]] = []
    while True:
        if tt.position != ROOT:
            raise UnsafeTrace(
                f"{tt.label}: non-root position {tt.position} cannot arise under top reduction"
            )
        assert system.rule_by_label(tt.label) is not None
        open_terms.append((tt, [t for _, t in tt.recorded.items()], iter(tt.sub_traces)))
        while True:
            tt, items, subs = open_terms[-1]
            sub = next(subs, None)
            if sub is not None:
                if len(sub) != 1:
                    raise UnsafeTrace(
                        f"{tt.label}: sub-trace of length {len(sub)} cannot arise under top reduction"
                    )
                tt = sub[0]
                break
            open_terms.pop()
            encoded = App(Symbol(tt.label, len(items)), tuple(items))
            if not open_terms:
                return encoded
            open_terms[-1][1].append(encoded)


# ---------------------------------------------------------------------------
# View update


def view_update(
    system: RewriteSystem,
    view_args: tuple[Term, ...] | list[Term],
    new_view: Term,
    bounds: Bounds = DEFAULT_BOUNDS,
    function: str | None = None,
    improved_origin: RewriteSystem | None = None,
) -> tuple[Term, ...]:
    """Propagate an updated view back to the source: run the injectivized
    view function forward to obtain the trace, then the inverted one on the
    new view and that trace.

    `function` names the view function (default: root of the first rule).
    With improved_origin the improved injectivization is used. The
    injectivized and inverted systems are built on the first call for a
    (function, improved_origin) pair and kept in `system.views`, so later
    calls on the same system reuse them and the rule programs compiled for
    them; systems are treated as immutable.
    """
    _require_pcdctrs(system)
    if not system.rules:
        raise PreconditionViolated("empty system")
    name = function or system.rules[0].lhs.symbol.name
    sym = system.symbol(name)
    if sym is None or sym.kind != DEFINED:
        raise ViewFailed(f"{name!r} is not a defined function of the system")
    view_args = tuple(view_args)
    if len(view_args) != sym.arity:
        raise ViewFailed(
            f"{name} takes {sym.arity} arguments, got {len(view_args)}"
        )
    for t in view_args:
        if not (is_ground(t) and is_constructor_term(t)):
            raise ViewFailed(f"argument {format_term(t)} is not a ground constructor term")
    if not (is_ground(new_view) and is_constructor_term(new_view)):
        raise ViewFailed(f"new view {format_term(new_view)} is not a ground constructor term")

    forward, backward = _view_pair(system, name, improved_origin)

    fi = forward.signature[injective_name(name)]
    reduced = normalize(forward, App(fi, view_args), "constructor", bounds)
    if not (
        isinstance(reduced, App)
        and reduced.symbol == tuple_symbol(2)
        and is_constructor_term(reduced)
    ):
        raise ViewFailed(
            f"{name}^i({', '.join(format_term(t) for t in view_args)}) reduced to "
            f"{format_term(reduced)}, not a (view, trace) pair"
        )
    _, trace_term = reduced.args

    inv = backward.signature[inverse_name(name)]
    rebuilt = normalize(backward, App(inv, (new_view, trace_term)), "constructor", bounds)
    if not (
        isinstance(rebuilt, App)
        and rebuilt.symbol == tuple_symbol(sym.arity)
        and is_constructor_term(rebuilt)
    ):
        raise UpdateFailed(
            f"{name}^-1 did not rebuild a source for view {format_term(new_view)}: "
            f"stuck at {format_term(rebuilt)}"
        )
    return rebuilt.args


def _view_pair(
    system: RewriteSystem, name: str, improved_origin: RewriteSystem | None
) -> tuple[RewriteSystem, RewriteSystem]:
    """The (forward, backward) systems of the view function `name`, built
    once per system. The origin is keyed by identity; the entry keeps it
    alive, so its id is not reused while the entry exists."""
    key = (name, id(improved_origin))
    entry = system.views.get(key)
    if entry is None:
        if improved_origin is not None:
            forward = injectivize_improved(system, improved_origin)
        else:
            forward = injectivize(system)
        entry = system.views[key] = (improved_origin, forward, invert(forward))
    return entry[1], entry[2]

"""Independent oracles and enumerations used by the test suite.

Everything here is deliberately brute force: exhaustive enumeration of
candidate substitutions, breadth-first search over all one-step successors,
and structural comparison modulo variable renaming. These stay independent of
the code paths they are used to check.
"""

from __future__ import annotations

import itertools

from revrw import (
    App,
    BoundExceeded,
    Bounds,
    Condition,
    FreshNames,
    InvalidPosition,
    NotApplicable,
    NotGround,
    Pair,
    ParseError,
    PreconditionViolated,
    RevrwError,
    RewriteSystem,
    Rule,
    StepWitness,
    Subst,
    Symbol,
    Term,
    TraceMismatch,
    UnknownLabel,
    UnsafePair,
    UnsafeTrace,
    UpdateFailed,
    ValidationReport,
    Var,
    ViewFailed,
    flatten_condition,
    flatten_rhs,
    format_position,
    forward_successors,
    is_basic_term,
    is_safe,
    format_term,
    injectivize,
    injectivize_improved,
    invert,
    is_ground,
    match,
    normalize,
    parse_position,
    parse_term,
    positions,
    remove_fail,
    remove_unify,
    replace,
    step,
    subterm,
    term_vars,
)
from revrw.reversible import TraceTerm, witness_trace_term
from revrw.rewrite import STRATEGIES
from revrw.systems import Finding, TermParser, TokenStream, tokenize
from revrw.terms import (
    CONSTRUCTOR,
    DEFINED,
    ROOT,
    Position,
    format_subst,
    is_constructor_term,
    vars_of,
)
from revrw.transform import injective_name, inverse_name, tuple_symbol

SEARCH_BOUNDS = Bounds(max_steps=200000, max_depth=100)


def constructor_universe(system: RewriteSystem, max_depth: int) -> list[Term]:
    """All ground terms of depth <= max_depth over the system's plain
    constructors, ordered by (size, printed form)."""
    symbols = sorted(
        (s for s in system.signature.values() if s.kind == CONSTRUCTOR),
        key=lambda s: (s.arity, s.name),
    )
    layers: list[Term] = [App(s) for s in symbols if s.arity == 0]
    current = list(layers)
    for _ in range(max_depth - 1):
        new: list[Term] = []
        for s in symbols:
            if s.arity == 0:
                continue
            for args in itertools.product(current, repeat=s.arity):
                new.append(App(s, args))
        current = current + new
        current = list(dict.fromkeys(current))
    current.sort(key=lambda t: (_size(t), repr(t)))
    return current


def _size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(_size(a) for a in t.args)


def basic_terms(
    system: RewriteSystem, max_depth: int = 4, cap_per_function: int | None = None
) -> list[Term]:
    """Basic ground terms f(constructor args) of depth <= max_depth, each
    function contributing at most cap_per_function argument tuples (taken in
    the deterministic product order of the size-sorted universe)."""
    universe = constructor_universe(system, max_depth - 1)
    out: list[Term] = []
    for name in sorted(system.defined_symbols):
        sym = system.signature[name]
        tuples = itertools.product(universe, repeat=sym.arity)
        if cap_per_function is not None:
            tuples = itertools.islice(tuples, cap_per_function)
        out.extend(App(sym, args) for args in tuples)
    return out


def all_normal_forms(
    system: RewriteSystem,
    term: Term,
    strategy: str = "innermost",
    cache: dict[Term, frozenset[Term]] | None = None,
) -> frozenset[Term]:
    """Exhaustive search over every one-step successor down to normal forms."""
    if cache is None:
        cache = {}
    found = cache.get(term)
    if found is not None:
        return found
    successors = step(system, term, strategy, SEARCH_BOUNDS)
    if not successors:
        result = frozenset([term])
    else:
        result = frozenset().union(
            *(all_normal_forms(system, w.result, strategy, cache) for w in successors)
        )
    cache[term] = result
    return result


def reachable_terms(
    system: RewriteSystem, term: Term, max_steps: int, strategy: str = "innermost"
) -> set[Term]:
    """All terms reachable in at most max_steps one-step reductions."""
    frontier = {term}
    seen = {term}
    for _ in range(max_steps):
        frontier = {
            w.result
            for t in frontier
            for w in step(system, t, strategy, SEARCH_BOUNDS)
        } - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def reversibly_reachable_terms(
    system: RewriteSystem, term: Term, max_steps: int, strategy: str = "innermost"
) -> set[Term]:
    """Terms reachable through the traced forward relation."""
    frontier = [Pair(term)]
    seen = {term}
    for _ in range(max_steps):
        nxt = []
        for pair in frontier:
            for succ in forward_successors(system, pair, strategy, SEARCH_BOUNDS):
                if succ.term not in seen:
                    seen.add(succ.term)
                    nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return seen


def ground_unifiers(s: Term, t: Term, universe: list[Term]) -> list[Subst]:
    """Every substitution over the universe that makes s and t equal."""
    names = sorted(term_vars(s) | term_vars(t))
    out = []
    for values in itertools.product(universe, repeat=len(names)):
        sigma = Subst(dict(zip(names, values)))
        if sigma.apply(s) == sigma.apply(t):
            out.append(sigma)
    return out


def same_term(a: Term, b: Term) -> bool:
    """Structural equality without recursion, for terms too deep for ==."""
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        if isinstance(u, Var) or isinstance(v, Var):
            if u != v:
                return False
        elif u.symbol != v.symbol:
            return False
        else:
            stack.extend(zip(u.args, v.args))
    return True


# ---------------------------------------------------------------------------
# Structural comparison modulo per-rule variable renaming


def _terms_isomorphic(a: Term, b: Term, fwd: dict[str, str], bwd: dict[str, str]) -> bool:
    if isinstance(a, Var) != isinstance(b, Var):
        return False
    if isinstance(a, Var):
        if fwd.setdefault(a.name, b.name) != b.name:
            return False
        return bwd.setdefault(b.name, a.name) == a.name
    if a.symbol != b.symbol or len(a.args) != len(b.args):
        return False
    return all(_terms_isomorphic(x, y, fwd, bwd) for x, y in zip(a.args, b.args))


def rules_isomorphic(a: Rule, b: Rule) -> bool:
    """Same label, same structure up to a variable bijection."""
    if a.label != b.label or len(a.conditions) != len(b.conditions):
        return False
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    sides = [(a.lhs, b.lhs), (a.rhs, b.rhs)]
    for ca, cb in zip(a.conditions, b.conditions):
        sides += [(ca.lhs, cb.lhs), (ca.rhs, cb.rhs)]
    return all(_terms_isomorphic(x, y, fwd, bwd) for x, y in sides)


def systems_isomorphic(a: RewriteSystem, b: RewriteSystem) -> bool:
    return len(a.rules) == len(b.rules) and all(
        rules_isomorphic(x, y) for x, y in zip(a.rules, b.rules)
    )


def ref_signature(rules) -> list[tuple[str, int, str]]:
    """(name, arity, kind) of every symbol of the rules, classified in two
    passes: first the arity of each name in the order a walk meets it (rules
    in textual order; lhs, rhs, then each condition's lhs and rhs; each term
    root first, arguments right to left), then its kind: defined iff it is
    the root of some lhs."""
    arities: dict[str, int] = {}
    for r in rules:
        sides = [r.lhs, r.rhs]
        for c in r.conditions:
            sides += [c.lhs, c.rhs]
        for t in sides:
            stack = [t]
            while stack:
                u = stack.pop()
                if isinstance(u, App):
                    arities.setdefault(u.symbol.name, u.symbol.arity)
                    stack.extend(u.args)
    defined = {r.lhs.symbol.name for r in rules}
    return [
        (name, arity, DEFINED if name in defined else CONSTRUCTOR)
        for name, arity in arities.items()
    ]


def ref_system(rules) -> tuple[tuple[Rule, ...], dict[str, Symbol]]:
    """The rules and signature of `RewriteSystem(rules)`, rebinding as it
    once did: every node of every rule term is built again, and each name's
    symbol is made anew, of its kind, where a walk first meets it (rules in
    textual order; lhs, rhs, then each condition's lhs and rhs; each term
    root first, arguments right to left)."""
    defined = {r.lhs.symbol.name for r in rules}
    signature: dict[str, Symbol] = {}

    def rebind(t: Term) -> Term:
        done: list[Term] = []
        stack: list = [t]
        while stack:
            u = stack.pop()
            if isinstance(u, Var):
                done.append(u)
            elif isinstance(u, App):
                sym = u.symbol
                if sym.name not in signature:
                    kind = DEFINED if sym.name in defined else CONSTRUCTOR
                    signature[sym.name] = Symbol(sym.name, sym.arity, kind)
                stack.append(signature[sym.name])
                stack.extend(u.args)
            else:
                k = len(done) - u.arity
                args = tuple(reversed(done[k:]))
                del done[k:]
                done.append(App(u, args))
        return done[0]

    out = tuple(
        Rule(
            r.label,
            rebind(r.lhs),
            rebind(r.rhs),
            tuple(Condition(rebind(c.lhs), rebind(c.rhs)) for c in r.conditions),
        )
        for r in rules
    )
    return out, signature


# ---------------------------------------------------------------------------
# Rule facts and classification, each property checked on its own


def ref_safety_domain(rule: Rule) -> frozenset[str]:
    """The safety domain as the definition reads: the erased lhs variables,
    and for each condition the rhs variables that neither the rule's rhs
    nor a later condition lhs holds, each walked again."""
    s_terms = [c.lhs for c in rule.conditions]
    t_terms = [c.rhs for c in rule.conditions]
    dom = term_vars(rule.lhs) - vars_of(rule.rhs, *s_terms, *t_terms)
    for i, t_i in enumerate(t_terms):
        dom |= term_vars(t_i) - vars_of(rule.rhs, *s_terms[i + 1 :])
    return frozenset(dom)


def ref_validate(system: RewriteSystem, property_name: str) -> ValidationReport:
    """`validate`, with each property's clauses checked in turn on every
    rule, walking the rule's terms again for each."""
    checks = {
        "3ctrs": (_ref_check_3ctrs,),
        "dctrs": (_ref_check_3ctrs, _ref_check_deterministic),
        "constructor": (_ref_check_constructor,),
        "pcdctrs": (_ref_check_3ctrs, _ref_check_deterministic, _ref_check_pure_constructor),
    }
    if property_name not in checks:
        raise ValueError(f"unknown property {property_name!r}")
    findings = []
    for rule in system.rules:
        for check in checks[property_name]:
            for message in check(rule):
                findings.append(Finding(rule.label, message))
    return ValidationReport(property_name, tuple(findings))


def _ref_check_3ctrs(rule: Rule):
    housed = term_vars(rule.lhs)
    for c in rule.conditions:
        housed |= vars_of(c.lhs, c.rhs)
    extra = term_vars(rule.rhs) - housed
    if extra:
        yield f"right-hand side variables {sorted(extra)} occur neither in the left-hand side nor in the conditions"


def _ref_check_deterministic(rule: Rule):
    known = term_vars(rule.lhs)
    for i, c in enumerate(rule.conditions, 1):
        extra = term_vars(c.lhs) - known
        if extra:
            yield (
                f"condition {i} left-hand side variables {sorted(extra)} are not bound "
                f"by the rule left-hand side or earlier condition right-hand sides"
            )
        known |= term_vars(c.rhs)


def _ref_check_constructor(rule: Rule):
    if not is_basic_term(rule.lhs):
        yield "left-hand side is not a basic term"


def _ref_check_pure_constructor(rule: Rule):
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
# Backward completions, enumerated without the matching algorithm


def enumerate_backward_steps(system: RewriteSystem, pair: Pair) -> list[tuple[Rule, Subst, Pair]]:
    """Brute-force cross-check of backward determinism: enumerate every rule
    carrying the popped label together with every candidate substitution
    theta (built by assigning subterms of the focus to the rule's rhs
    variables, independently of the matching algorithm) and play each
    through the full backward procedure. On safe pairs produced by forward
    runs exactly one completion exists."""
    if not pair.trace:
        return []
    tt, rest = pair.trace[0], pair.trace[1:]
    try:
        focus = subterm(pair.term, tt.position)
    except InvalidPosition:
        return []
    completions = []
    for rule in system.rules:
        if rule.label != tt.label:
            continue
        if len(rule.conditions) != len(tt.sub_traces):
            continue
        if ref_safety_domain(rule) != tt.recorded.domain:
            continue
        for theta in _candidate_thetas(rule.rhs, focus):
            try:
                completions.append(
                    (rule, theta, Pair(_ref_undo(system, pair.term, tt, rule, theta), rest))
                )
            except (TraceMismatch, UnknownLabel):
                continue
    return completions


def _candidate_thetas(rhs: Term, focus: Term) -> list[Subst]:
    """All ground substitutions with domain Var(rhs) mapping variables to
    subterms of the focus such that rhs instantiates to the focus. Any theta
    with rhs*theta == focus only binds subterms of the focus, so this
    enumeration is exhaustive."""
    names = sorted(term_vars(rhs))
    pool = list(dict.fromkeys(subterm(focus, p) for p in positions(focus)))
    out = []
    for values in _assignments(pool, len(names)):
        theta = Subst(dict(zip(names, values)))
        if theta.apply(rhs) == focus:
            out.append(theta)
    return out


def _assignments(pool: list[Term], k: int):
    if k == 0:
        yield ()
        return
    for rest in _assignments(pool, k - 1):
        for value in pool:
            yield (*rest, value)



# ---------------------------------------------------------------------------
# Reference rewriting engine: a recursive walk from the root on every step
#
# This is the engine the library's resumable search replaced. It tries every
# rule at every defined node, rebuilds the whole term with `replace`, and
# calls `ref_first_step` once per step of a forward run. Its step order,
# witnesses, bound checks and error messages are the specification the
# library engine is tested against.


class _RefBudget:
    def __init__(self, bounds: Bounds):
        self.steps_left = bounds.max_steps
        self.max_depth = bounds.max_depth

    def spend(self) -> None:
        if self.steps_left <= 0:
            raise BoundExceeded("step bound exceeded")
        self.steps_left -= 1

    def check_depth(self, depth: int) -> None:
        if depth > self.max_depth:
            raise BoundExceeded("condition evaluation depth bound exceeded")


def ref_is_constructor_term(t: Term) -> bool:
    """True iff every symbol in t is a constructor: a walk that reads the
    kind of every node and no cached flag."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            if u.symbol.kind == DEFINED:
                return False
            stack.extend(u.args)
    return True


def ref_flags(t: Term) -> tuple[bool, bool]:
    """The `ground` and `constructor` flags of t, worked out from its
    symbols' kinds and its variables, recursively, reading no cached flag
    (a variable is a constructor term, and not ground)."""
    if isinstance(t, Var):
        return False, True
    flags = [ref_flags(a) for a in t.args]
    ground = all(g for g, _ in flags)
    return ground, t.symbol.kind != DEFINED and all(c for _, c in flags)


def _ref_is_constructor_subst(sigma: Subst) -> bool:
    return all(ref_is_constructor_term(t) for _, t in sigma.items())


def _ref_check(term: Term, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not is_ground(term):
        raise NotGround(f"cannot rewrite non-ground term {format_term(term)}")


def _ref_solve(system, rule, sigma0, strategy, budget, depth):
    budget.check_depth(depth)
    sigma = sigma0
    derivations = []
    for c in rule.conditions:
        lhs = sigma.apply(c.lhs)
        if not is_ground(lhs):
            raise PreconditionViolated(
                f"rule {rule.label}: condition lhs {format_term(lhs)} is not ground "
                "under the accumulated substitution (system is not deterministic)"
            )
        value, steps = _ref_normalize(system, lhs, strategy, budget, depth + 1)
        theta = match(sigma.apply(c.rhs), value)
        if theta is None:
            return None
        if strategy == "constructor" and not _ref_is_constructor_subst(theta):
            return None
        sigma = sigma.union(theta)
        derivations.append(tuple(steps))
    return sigma, tuple(derivations)


def _ref_witnesses_at(system, whole, pos, sub, strategy, budget, depth, out, limit):
    if not (isinstance(sub, App) and sub.symbol.kind == DEFINED):
        return False
    found = False
    for rule in system.rules:
        sigma0 = match(rule.lhs, sub)
        if sigma0 is None:
            continue
        if strategy == "constructor" and not _ref_is_constructor_subst(sigma0):
            continue
        solved = _ref_solve(system, rule, sigma0, strategy, budget, depth)
        if solved is None:
            continue
        sigma, derivations = solved
        result = replace(whole, pos, sigma.apply(rule.rhs))
        out.append(StepWitness(pos, rule.label, sigma, result, derivations))
        found = True
        if limit is not None and len(out) >= limit:
            break
    return found


def _ref_witnesses(system, term, strategy, budget, depth, limit=None):
    out: list[StepWitness] = []
    if strategy == "top":
        _ref_witnesses_at(system, term, ROOT, term, strategy, budget, depth, out, limit)
        return out

    def walk(sub: Term, pos: Position) -> bool:
        below = False
        if isinstance(sub, App):
            for i, arg in enumerate(sub.args, 1):
                below = walk(arg, (*pos, i)) or below
                if limit is not None and len(out) >= limit:
                    return True
        if strategy == "any" or not below:
            here = _ref_witnesses_at(
                system, term, pos, sub, strategy, budget, depth, out, limit
            )
            return below or here
        return below

    walk(term, ROOT)
    return out


def _ref_normalize(system, term, strategy, budget, depth):
    steps: list[StepWitness] = []
    while True:
        found = _ref_witnesses(system, term, strategy, budget, depth, limit=1)
        if not found:
            return term, steps
        budget.spend()
        steps.append(found[0])
        term = found[0].result


def ref_step(system, term, strategy="innermost", bounds=Bounds()):
    _ref_check(term, strategy)
    return _ref_witnesses(system, term, strategy, _RefBudget(bounds), 1)


def ref_first_step(system, term, strategy="innermost", bounds=Bounds()):
    _ref_check(term, strategy)
    found = _ref_witnesses(system, term, strategy, _RefBudget(bounds), 1, limit=1)
    return found[0] if found else None


def ref_normalize_traced(system, term, strategy="innermost", bounds=Bounds()):
    _ref_check(term, strategy)
    return _ref_normalize(system, term, strategy, _RefBudget(bounds), 1)


def ref_forward_run(
    system, pair, strategy="innermost", steps=None, bounds=Bounds(), step_bounds=None
):
    """forward_step iterated: one ref_first_step, with a fresh budget of
    step_bounds (default: bounds), per top-level step; at most
    bounds.max_steps of them when steps is None."""
    report = is_safe(system, pair.trace)
    if not report.ok:
        raise UnsafePair("; ".join(report.findings))
    n = 0
    while steps is None or n < steps:
        if steps is None and n >= bounds.max_steps:
            raise BoundExceeded("forward run exceeded the step bound")
        witness = ref_first_step(system, pair.term, strategy, step_bounds or bounds)
        if witness is None:
            return pair
        pair = Pair(witness.result, (witness_trace_term(system, witness), *pair.trace))
        n += 1
    return pair


# ---------------------------------------------------------------------------
# Reference pcDCTRS pipeline: rebuild the system and rescan from the first
# rule after every stage
#
# This is the loop the library's single pass replaced. Each stage rewrites the
# first rule, in textual order, that one of the four operations applies to
# (in priority order), and builds a whole system from the result. Its stage
# names, changes and stage systems are the specification `to_pcdctrs` is
# tested against. Input preconditions are not checked here.


def ref_basic_position(t: Term) -> Position:
    """The innermost-leftmost basic position of t: the first in post-order
    whose subterm, read from the root, is basic."""
    return next(p for p in positions(t) if is_basic_term(subterm(t, p)))


def ref_to_pcdctrs(system: RewriteSystem):
    """(pcDCTRS, [(stage name, stage system, changes), ...])."""
    taken: set[str] = set()
    for r in system.rules:
        taken |= term_vars(r.lhs) | term_vars(r.rhs)
        for c in r.conditions:
            taken |= vars_of(c.lhs, c.rhs)
    fresh = FreshNames(taken)
    ops = (
        ("flattening-rhs", lambda r: flatten_rhs(r, fresh)),
        ("flattening-condition", lambda r: flatten_condition(r, fresh)),
        ("removal-unify", remove_unify),
        ("removal-fail", remove_fail),
    )
    stages = []
    current = system
    for _ in range(ref_pipeline_measure(system) + 1):
        applied = _ref_pipeline_step(current, ops)
        if applied is None:
            break
        name, new_rules, change = applied
        current = RewriteSystem(new_rules)
        stages.append((name, current, (change,)))
    else:
        raise RevrwError("pcDCTRS pipeline did not terminate")
    report = ref_validate(current, "pcdctrs")
    if not report.ok:
        raise RevrwError(f"pipeline output is not a pcDCTRS:\n{report}")
    return current, stages


def ref_pipeline_measure(system: RewriteSystem) -> int:
    """2D + C + R, the bound on the pipeline's stages that `to_pcdctrs`
    states: D defined symbols in the rhs's and condition lhs's, C
    conditions, R rules."""
    def defined(t: Term) -> int:
        return 0 if isinstance(t, Var) else (t.symbol.kind == DEFINED) + sum(map(defined, t.args))

    return sum(
        2 * defined(r.rhs) + sum(2 * defined(c.lhs) + 1 for c in r.conditions) + 1
        for r in system.rules
    )


def _ref_pipeline_step(system: RewriteSystem, ops):
    for rule in system.rules:
        for name, op in ops:
            try:
                new_rule = op(rule)
            except NotApplicable:
                continue
            if new_rule is None:
                rules = [r for r in system.rules if r.label != rule.label]
                return name, rules, f"{name} deleted {rule.label}"
            rules = [new_rule if r.label == rule.label else r for r in system.rules]
            return name, rules, f"{name} on {rule.label}: {new_rule!r}"
    return None


# ---------------------------------------------------------------------------
# Reference backward run: undo each trace term from the root, and slice the
# trace
#
# This is the loop the library's zipper replaced. Every step finds its focus
# with `subterm` and plants the rebuilt left-hand side with `replace`, both
# from the root, and goes on with `trace[1:]`. Its results and error messages
# are the specification `backward_run` is tested against.


def ref_backward_run(system: RewriteSystem, pair: Pair) -> Pair:
    report = is_safe(system, pair.trace)
    if not report.ok:
        raise UnsafePair("; ".join(report.findings))
    return _ref_backward_to_empty(system, pair)


def _ref_backward_to_empty(system: RewriteSystem, pair: Pair) -> Pair:
    while pair.trace:
        tt, rest = pair.trace[0], pair.trace[1:]
        rule = system.rule_by_label(tt.label)
        if rule is None:
            raise UnknownLabel(f"trace references unknown rule label {tt.label!r}")
        pair = Pair(_ref_undo(system, pair.term, tt, rule), rest)
    return pair


def _ref_undo(system, term, tt, rule, theta=None):
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
        sub = _ref_backward_to_empty(system, Pair(start, tt.sub_traces[i]))
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


# ---------------------------------------------------------------------------
# Reference trace parser: one token per identifier and per dot, recursive
# descent
#
# This is the parser the library's regex reader and explicit stack
# replaced, with one fix: a malformed position is a ParseError located at
# its first token. Its values and errors (type, text, line and column) are
# the specification `parse_trace` is tested against.


def ref_parse_trace(text: str):
    stream = TokenStream(tokenize(text))
    trace = _ref_parse_trace(stream)
    tok = stream.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return trace


def _ref_parse_trace(stream):
    stream.expect("LBRACK")
    items = []
    if not stream.at("RBRACK"):
        items.append(_ref_parse_trace_term(stream))
        while stream.at("COMMA"):
            stream.next()
            items.append(_ref_parse_trace_term(stream))
    stream.expect("RBRACK")
    return tuple(items)


def _ref_parse_trace_term(stream):
    label = stream.expect("IDENT").text
    stream.expect("LPAREN")
    position = _ref_parse_pos(stream)
    stream.expect("COMMA")
    recorded = _ref_parse_subst(stream)
    subs = []
    while stream.at("COMMA"):
        stream.next()
        subs.append(_ref_parse_trace(stream))
    stream.expect("RPAREN")
    return TraceTerm(label, position, recorded, tuple(subs))


def _ref_parse_pos(stream):
    first = stream.expect("IDENT")
    parts = [first.text]
    while stream.at("DOT"):
        stream.next()
        parts.append(stream.expect("IDENT").text)
    try:
        return parse_position(".".join(parts))
    except InvalidPosition as exc:
        raise ParseError(str(exc), first.line, first.column) from None


def _ref_parse_subst(stream):
    stream.expect("LBRACE")
    bindings = {}
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


# ---------------------------------------------------------------------------
# Reference trace printer: each position printed whole, recursive descent
#
# The library prints each new position from the last one's text. This prints
# every position by itself with `format_position`; its text is the
# specification `format_trace` is tested against.


def ref_format_trace(trace) -> str:
    return "[" + ", ".join(map(_ref_format_trace_term, trace)) + "]"


def _ref_format_trace_term(tt) -> str:
    subs = "".join(", " + ref_format_trace(sub) for sub in tt.sub_traces)
    return f"{tt.label}({format_position(tt.position)}, {format_subst(tt.recorded)}{subs})"


def view_sources(pc: RewriteSystem) -> tuple[list[Term], list[Term]]:
    """The record kinds of view.trs and every record list of up to three
    records over four prices: the inputs of acceptance criterion 7."""
    prices = [parse_term(p, pc) for p in ("0", "1", "2", "3")]
    kinds = [parse_term(k, pc) for k in ("book", "dvd")]
    rec = pc.signature["r"]
    cons, nil = pc.signature["cons"], pc.signature["nil"]
    records = [rec(k, p) for k in kinds for p in prices]

    def lists(depth):
        if depth == 0:
            yield nil()
            return
        for tail in lists(depth - 1):
            yield tail
            for record in records:
                yield cons(record, tail)

    unique = list(dict.fromkeys(lists(3)))
    return kinds, unique


def ref_view_update(system, view_args, new_view, bounds=Bounds(), function=None,
                    improved_origin=None):
    """view_update as it was before its forward and backward systems were
    kept per system: both are built again on every call."""
    if not system.is_pcdctrs:
        raise PreconditionViolated("input is not a pcDCTRS")
    if not system.rules:
        raise PreconditionViolated("empty system")
    name = function or system.rules[0].lhs.symbol.name
    sym = system.symbol(name)
    if sym is None or sym.kind != DEFINED:
        raise ViewFailed(f"{name!r} is not a defined function of the system")
    view_args = tuple(view_args)
    if len(view_args) != sym.arity:
        raise ViewFailed(f"{name} takes {sym.arity} arguments, got {len(view_args)}")
    for t in view_args:
        if not (is_ground(t) and is_constructor_term(t)):
            raise ViewFailed(f"argument {format_term(t)} is not a ground constructor term")
    if not (is_ground(new_view) and is_constructor_term(new_view)):
        raise ViewFailed(f"new view {format_term(new_view)} is not a ground constructor term")
    if improved_origin is not None:
        forward = injectivize_improved(system, improved_origin)
    else:
        forward = injectivize(system)
    backward = invert(forward)
    fi = forward.signature[injective_name(name)]
    reduced = normalize(forward, App(fi, view_args), "constructor", bounds)
    if not (isinstance(reduced, App) and reduced.symbol == tuple_symbol(2)
            and is_constructor_term(reduced)):
        raise ViewFailed(
            f"{name}^i({', '.join(format_term(t) for t in view_args)}) reduced to "
            f"{format_term(reduced)}, not a (view, trace) pair"
        )
    inv = backward.signature[inverse_name(name)]
    rebuilt = normalize(backward, App(inv, (new_view, reduced.args[1])), "constructor", bounds)
    if not (isinstance(rebuilt, App) and rebuilt.symbol == tuple_symbol(sym.arity)
            and is_constructor_term(rebuilt)):
        raise UpdateFailed(
            f"{name}^-1 did not rebuild a source for view {format_term(new_view)}: "
            f"stuck at {format_term(rebuilt)}"
        )
    return rebuilt.args


# ---------------------------------------------------------------------------
# The recursive walkers that the library's explicit-stack loops replaced, as
# they were. Each recurses once per level of its term or trace, so they serve
# shallow inputs only.


def ref_positions(t: Term):
    """All positions of t in post-order."""
    if isinstance(t, App):
        for i, a in enumerate(t.args, 1):
            for q in ref_positions(a):
                yield (i, *q)
    yield ROOT


def ref_apply(sigma: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        bound = sigma.get(t.name)
        return t if bound is None else bound
    if t.ground or not sigma:
        return t
    return App(t.symbol, tuple(ref_apply(sigma, a) for a in t.args))


def ref_unify(s: Term, t: Term) -> Subst | None:
    """Most general unifier (idempotent, occurs check enforced), or None:
    triangular bindings, resolved by a recursive walk."""
    triangular: dict[str, Term] = {}

    def resolve(u: Term) -> Term:
        while isinstance(u, Var) and u.name in triangular:
            u = triangular[u.name]
        return u

    def occurs(name: str, u: Term) -> bool:
        u = resolve(u)
        if isinstance(u, Var):
            return u.name == name
        return any(occurs(name, a) for a in u.args)

    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = resolve(a), resolve(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                continue
            if occurs(a.name, b):
                return None
            triangular[a.name] = b
        elif isinstance(b, Var):
            if occurs(b.name, a):
                return None
            triangular[b.name] = a
        elif a.symbol == b.symbol:
            stack.extend(zip(a.args, b.args))
        else:
            return None

    def deep(u: Term) -> Term:
        u = resolve(u)
        if isinstance(u, App) and u.args:
            return App(u.symbol, tuple(deep(x) for x in u.args))
        return u

    return Subst({x: deep(v) for x, v in triangular.items()})


def ref_range_disjoint(r1: Term, r2: Term) -> bool:
    counter = [0]

    def abstract(t: Term, side: str) -> Term:
        if isinstance(t, Var):
            return Var(f"{side}#{t.name}")
        if t.symbol.kind == DEFINED:
            counter[0] += 1
            return Var(f"hole#{counter[0]}")
        return App(t.symbol, tuple(abstract(a, side) for a in t.args))

    return ref_unify(abstract(r1, "l"), abstract(r2, "r")) is None


def ref_encode_trace(system: RewriteSystem, trace) -> Term:
    """encode_trace, encoding each sub-trace by a recursive call."""
    if isinstance(trace, TraceTerm):
        tt = trace
    else:
        if len(trace) != 1:
            raise UnsafeTrace(f"only singleton traces are encodable, got length {len(trace)}")
        tt = trace[0]
    report = is_safe(system, (tt,))
    if not report.ok:
        raise UnsafeTrace("; ".join(report.findings))
    return _ref_encode(tt)


def _ref_encode(tt: TraceTerm) -> Term:
    if tt.position != ROOT:
        raise UnsafeTrace(
            f"{tt.label}: non-root position {tt.position} cannot arise under top reduction"
        )
    values = [t for _, t in tt.recorded.items()]
    subs = []
    for sub in tt.sub_traces:
        if len(sub) != 1:
            raise UnsafeTrace(
                f"{tt.label}: sub-trace of length {len(sub)} cannot arise under top reduction"
            )
        subs.append(_ref_encode(sub[0]))
    return App(Symbol(tt.label, len(values) + len(subs)), (*values, *subs))

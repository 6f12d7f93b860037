"""Differential tests of the rewriting engine against the reference engine in
oracles.py (a recursive walk from the root on every step), of the compiled
rule programs against `terms.match` and `Subst.apply`, of `view_update`
against the uncached reference, and of `backward_run` on the traces it
records against the reference backward run (`subterm` and `replace` from
the root on every step).

Every comparison covers the returned value and, when the call raises, the
exception type and message. The one exception is the step bound: the
reference repeats on every step the rule attempts that failed on unchanged
subterms, and counts their condition steps again, while the engine makes
each attempt once. Where the reference runs out of steps, the engine may
therefore go on; it must then agree with the reference run without the
step bound (forward_run keeps its cap of max_steps top-level steps).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import revrw.transform
from revrw import (
    App,
    BoundExceeded,
    Bounds,
    Condition,
    Pair,
    PreconditionViolated,
    RewriteSystem,
    Rule,
    Subst,
    Symbol,
    Term,
    Var,
    backward_run,
    first_step,
    forward_run,
    match,
    normalize,
    parse_system,
    parse_term,
    positions,
    replace,
    step,
    to_pcdctrs,
    view_update,
)
from revrw.programs import RuleProgram, build, run
from revrw.rewrite import STRATEGIES, normalize_traced
from revrw.terms import CONSTRUCTOR, DEFINED

from .conftest import CORPUS_DIR, examples, load
from .oracles import (
    SEARCH_BOUNDS,
    ref_backward_run,
    ref_first_step,
    ref_forward_run,
    ref_normalize_traced,
    ref_step,
    ref_view_update,
    same_term,
    view_sources,
)

SYSTEMS = tuple(sorted(p.name for p in CORPUS_DIR.glob("*.trs")))
BOUNDS = (Bounds(), Bounds(max_steps=3), Bounds(max_depth=1))
SEEDED_TERMS = 12
MAX_DEPTH = 5


def _outcome(call, *args, **kwargs):
    try:
        return ("ok", call(*args, **kwargs))
    except Exception as exc:  # the exception itself is what is compared
        return ("raise", type(exc), str(exc))


def assert_same_engine(system: RewriteSystem, term: Term, strategy: str, bounds: Bounds):
    pairs = [
        (normalize_traced, ref_normalize_traced, (system, term, strategy, bounds)),
        (first_step, ref_first_step, (system, term, strategy, bounds)),
        (step, ref_step, (system, term, strategy, bounds)),
        (forward_run, ref_forward_run, (system, Pair(term), strategy, None, bounds)),
        (forward_run, ref_forward_run, (system, Pair(term), strategy, 2, bounds)),
    ]
    unbounded = Bounds(max_steps=SEARCH_BOUNDS.max_steps, max_depth=bounds.max_depth)
    for call, reference, args in pairs:
        got, want = _outcome(call, *args), _outcome(reference, *args)
        if got != want and want == ("raise", BoundExceeded, "step bound exceeded"):
            if reference is ref_forward_run:
                want = _outcome(reference, *args, step_bounds=unbounded)
            else:
                want = _outcome(reference, *args[:-1], unbounded)
        assert got == want, (call.__name__, term, strategy, bounds)
        if call is forward_run and got[0] == "ok":
            assert_same_backward(system, term, got[1])


def assert_same_backward(system: RewriteSystem, term: Term, pair: Pair):
    """backward_run as the reference runs it: on the recorded pair, on its
    trace without the oldest or the newest step, on the input term (the
    last two mostly end in TraceMismatch), and on the result with its first
    argument a variable (NotGround, or TraceMismatch where the position
    runs into the variable)."""
    trace = pair.trace
    probes = [pair, Pair(pair.term, trace[:-1]), Pair(pair.term, trace[1:]), Pair(term, trace)]
    result = pair.term
    if result.args:
        probes.append(Pair(App(result.symbol, (Var("z"), *result.args[1:])), trace))
    for probe in probes:
        got = _outcome(backward_run, system, probe)
        assert got == _outcome(ref_backward_run, system, probe), (term, probe)


def _symbols(system: RewriteSystem) -> tuple[list[Symbol], list[Symbol]]:
    """The signature and its constants (a fresh one if it has none)."""
    symbols = sorted(system.signature.values(), key=lambda s: (s.name, s.arity))
    leaves = [s for s in symbols if s.arity == 0] or [Symbol("a", 0)]
    return symbols, leaves


def random_term(system: RewriteSystem, rng: random.Random, depth: int) -> Term:
    """A ground term over the whole signature, defined symbols included, so
    that redexes sit at every depth and conditions fail part-way."""
    symbols, leaves = _symbols(system)
    if depth <= 1 or rng.random() < 0.25:
        return App(rng.choice(leaves))
    sym = rng.choice(symbols)
    return App(sym, tuple(random_term(system, rng, depth - 1) for _ in range(sym.arity)))


SYSTEM_OF = {name: load(name) for name in SYSTEMS}


@pytest.mark.parametrize("name", SYSTEMS)
def test_seeded_terms_match_reference(name):
    system = SYSTEM_OF[name]
    rng = random.Random(name)
    terms = [random_term(system, rng, MAX_DEPTH) for _ in range(SEEDED_TERMS)]
    for term in terms:
        for strategy in STRATEGIES:
            for bounds in BOUNDS:
                assert_same_engine(system, term, strategy, bounds)


def _nat(system: RewriteSystem, n: int) -> Term:
    t = App(system.signature["0"])
    for _ in range(n):
        t = App(system.signature["s"], (t,))
    return t


def _stuck_terms(system: RewriteSystem) -> tuple[Term, Term]:
    # double(s^3(0)) is irreducible, but trying it spends one condition step
    # (even(s^3(0)) -> even(s(0)), which is not true). A search from the root
    # would spend it again on every later step: to the left of the redex, and
    # inside it once a rule moves it as a variable binding.
    sig = system.signature
    stuck = App(sig["double"], (_nat(system, 3),))
    busy = App(sig["add"], (_nat(system, 2), _nat(system, 1)))
    return App(sig["add"], (stuck, busy)), App(sig["add"], (_nat(system, 3), stuck))


@pytest.mark.parametrize("max_steps", range(1, 9))
def test_stuck_terms_match_reference(double_sys, max_steps):
    for term in _stuck_terms(double_sys):
        for strategy in STRATEGIES:
            assert_same_engine(double_sys, term, strategy, Bounds(max_steps=max_steps))


def test_failed_condition_steps_count_once(double_sys):
    # The applied steps and one failed condition step, made once: double
    # stays to the left of the redexes in the first term and is moved as a
    # variable binding in the second.
    for term, applied in zip(_stuck_terms(double_sys), (3, 4)):
        bounds = Bounds(max_steps=applied + 1)
        _, steps = normalize_traced(double_sys, term, "innermost", bounds)
        assert len(steps) == applied
        with pytest.raises(BoundExceeded, match="^step bound exceeded$"):
            normalize_traced(double_sys, term, "innermost", Bounds(max_steps=applied))


def test_forward_run_keeps_its_cap_past_the_reference_step_bound(double_sys):
    # The reference runs out of steps on the third step, where it tries the
    # first double again before it tries the second; the engine goes on and
    # hits the cap of three top-level steps.
    stuck = "double(s(s(s(s(s(0))))))"
    term = parse_term(f"add(add({stuck},add(s(0),0)),add({stuck},add(s(0),0)))", double_sys)
    for strategy in STRATEGIES:
        assert_same_engine(double_sys, term, strategy, Bounds(max_steps=3))


@pytest.mark.parametrize(
    "name, text",
    [
        ("double.trs", "cons(double(s(s(0))),nil)"),
        ("double.trs", "cons(s(0),cons(add(s(0),double(s(s(0)))),nil))"),
        ("view.trs", "r(book,val(r(dvd,0)))"),
        ("view.trs", "cons(r(book,0),view(book,cons(r(book,val(r(dvd,0))),nil)))"),
    ],
)
def test_constructor_rooted_terms_with_calls_below_match_reference(name, text):
    # Constructor-only subterms are skipped by the search; these roots are
    # constructors with a defined call below, so they must still be entered.
    system = SYSTEM_OF[name]
    term = parse_term(text, system)
    assert term.symbol.kind != DEFINED and not term.constructor
    for strategy in STRATEGIES:
        assert_same_engine(system, term, strategy, Bounds())
    assert first_step(system, term, "innermost") is not None


@st.composite
def system_and_term(draw):
    name = draw(st.sampled_from(SYSTEMS))
    system = SYSTEM_OF[name]
    symbols, leaves = _symbols(system)

    def build(depth: int) -> Term:
        if depth <= 1:
            return App(draw(st.sampled_from(leaves)))
        sym = draw(st.sampled_from(symbols))
        return App(sym, tuple(build(depth - 1) for _ in range(sym.arity)))

    term = build(draw(st.integers(1, MAX_DEPTH)))
    return system, term, draw(st.sampled_from(STRATEGIES)), draw(st.sampled_from(BOUNDS))


@examples(150)
@given(system_and_term())
def test_generated_terms_match_reference(case):
    assert_same_engine(*case)


def test_unbound_rhs_variable_reaches_a_foreign_defined_symbol():
    # Outside 3-CTRSs a step can plant a variable. A search from the root
    # then tries every defined node above it, even one whose symbol has no
    # rule in this system, and matching a non-ground subject fails.
    system = parse_system("(VAR x y)(RULES f(x) -> y)")
    foreign = Symbol("k", 1, DEFINED)
    term = App(foreign, (App(system.signature["f"], (App(Symbol("0", 0)),)),))
    for strategy in STRATEGIES:
        assert_same_engine(system, term, strategy, Bounds())


def test_condition_lhs_with_an_unbound_variable_fails_as_the_reference_does():
    # Not deterministic: y is bound by no earlier part of b1. The engine
    # knows that when it compiles b1, and raises when it reaches the
    # condition; b2's condition passes first, so its second one is reached.
    system = parse_system(
        "(VAR x y)(RULES f(x) -> y | g(y) == x [b1] "
        "h(x) -> y | g(x) == x, g(y) == x [b2] g(x) -> x [b3])"
    )
    for text in ("f(0)", "h(0)", "c(g(0),h(g(0)))"):
        term = parse_term(text, system)
        for strategy in STRATEGIES:
            assert_same_engine(system, term, strategy, Bounds())
    with pytest.raises(PreconditionViolated, match=r"^rule b2: condition lhs g\(y\) is not"):
        normalize(system, parse_term("h(0)", system))


def test_app_builds_grow_linearly_with_redex_depth(addmult, monkeypatch):
    # In add(s^n(0),s^n(0)) every step moves the redex one level deeper. A
    # step that rebuilt the path to the root would make the App builds of a
    # run grow with n squared (16x from n = 100 to 400); the open spine and
    # the backward zipper keep them linear.
    original = App.__post_init__
    count = 0

    def counting(self):
        nonlocal count
        count += 1
        original(self)

    def builds(n: int) -> list[int]:
        nonlocal count
        x = _nat(addmult, n)
        term = App(addmult.signature["add"], (x, x))
        counts = []
        with monkeypatch.context() as m:
            m.setattr(App, "__post_init__", counting)
            count = 0
            nf, _ = normalize_traced(addmult, term, "innermost")
            counts.append(count)
            count = 0
            out = forward_run(addmult, Pair(term), "innermost")
            counts.append(count)
            count = 0
            back = backward_run(addmult, out)
            counts.append(count)
        assert same_term(nf, _nat(addmult, 2 * n)) and same_term(back.term, term)
        return counts

    small, large = builds(100), builds(400)
    for call, a, b in zip(("normalize_traced", "forward_run", "backward_run"), small, large):
        assert b <= 4.2 * a, (call, a, b)
    # forward_run takes its final term from the search that closed it.
    assert large[1] <= large[0]


# --- compiled rule programs against terms.match and Subst.apply -------------

G = Symbol("g", 2, DEFINED)
INNER = (Symbol("c", 2), Symbol("s", 1), Symbol("h", 1, DEFINED))
LEAVES = (Symbol("0", 0), Symbol("a", 0))


def _flip(sym: Symbol) -> Symbol:
    """The same symbol (name and arity) of the other kind."""
    return Symbol(sym.name, sym.arity, CONSTRUCTOR if sym.kind == DEFINED else DEFINED)


def _terms(leaves, symbols):
    def apply(kids):
        return st.sampled_from(symbols).flatmap(
            lambda sym: st.tuples(*[kids] * sym.arity).map(lambda args: App(sym, args))
        )

    return st.recursive(leaves, apply, max_leaves=8)


# Subjects also use the pattern symbols of the other kind (the SYMBOL op's
# identity test fails, its name and arity test holds) and a symbol whose
# name is a pattern symbol's but whose arity is not.
ground_subterms = _terms(
    st.sampled_from([App(s) for s in LEAVES + tuple(map(_flip, LEAVES))]),
    INNER + tuple(map(_flip, INNER)) + (Symbol("c", 1),),
)
LHS_VARS = [Var(n) for n in "xyz"]
# Ground subpatterns compile to EQUAL ops, repeated variables to SAME ops.
lhs_patterns = _terms(st.sampled_from([App(s) for s in LEAVES] + LHS_VARS), INNER)
# Condition terms also use variables the left-hand side does not bind.
condition_patterns = _terms(
    st.sampled_from([App(s) for s in LEAVES] + LHS_VARS + [Var("u"), Var("v")]), INNER
)


def _shape(t: Term) -> list:
    """t in preorder with every symbol's kind: equal shapes are equal terms
    built from symbols of the same kinds."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            out.append(u.name)
        else:
            out.append((u.symbol.name, u.symbol.arity, u.symbol.kind))
            stack.extend(reversed(u.args))
    return out


@st.composite
def near(draw, t: Term) -> Term:
    """t, or t with one proper subterm replaced by a ground term."""
    places = [p for p in positions(t) if p]
    if not places or draw(st.booleans()):
        return t
    return replace(t, draw(st.sampled_from(places)), draw(ground_subterms))


def _instance(draw, pattern: Term, names: str) -> Term:
    sigma = Subst({n: draw(ground_subterms) for n in names})
    return draw(near(sigma.apply(pattern)))


def _match_program(program: RuleProgram, subject: App, constructor: bool):
    slots = list(program.init)
    ok = run(program.lhs, [subject.args], slots, constructor)
    return slots if ok else None


@examples(200)
@given(lhs_patterns, lhs_patterns, condition_patterns, st.data())
def test_compiled_lhs_and_rhs_agree_with_match_and_apply(p1, p2, rhs, data):
    lhs = App(G, (p1, p2))
    subject = _instance(data.draw, lhs, "xyz")
    program = RuleProgram(Rule("t", lhs, rhs))
    want = match(lhs, subject)
    slots = _match_program(program, subject, False)
    assert (slots is None) == (want is None), (lhs, subject)
    if want is not None:
        assert program.subst(slots) == want
        assert _shape(build(program.rhs, slots)) == _shape(want.apply(rhs))
    # The constructor strategy: a match that binds a variable to a term in
    # which a defined symbol occurs fails.
    slots = _match_program(program, subject, True)
    assert (slots is not None) == (want is not None and want.is_constructor)


@examples(150)
@given(lhs_patterns, condition_patterns, condition_patterns, condition_patterns, st.data())
def test_condition_programs_agree_with_match_of_the_instance(p1, clhs, crhs, rhs, data):
    lhs = App(G, (p1, App(LEAVES[0])))
    subject = _instance(data.draw, lhs, "xyz")
    sigma = match(lhs, subject)
    if sigma is None:
        return
    program = RuleProgram(Rule("t", lhs, rhs, (Condition(clhs, crhs),)))
    slots = _match_program(program, subject, False)
    template, ground, rhs_program = program.conditions[0]
    instance = sigma.apply(clhs)
    # Variables the lhs left unbound stay variables, as in the
    # PreconditionViolated message.
    assert _shape(build(template, slots)) == _shape(instance)
    assert ground == (instance.__class__ is App and instance.ground)
    # The normal form: an instance of the condition rhs (bound variables
    # included), or one that differs from it somewhere.
    value = _instance(data.draw, sigma.apply(crhs), "xyzuv")
    theta = match(sigma.apply(crhs), value)
    assert run(rhs_program, [(value,)], slots, False) == (theta is not None), (crhs, value)
    if theta is not None:
        both = sigma.union(theta)
        assert program.subst(slots) == both
        assert _shape(build(program.rhs, slots)) == _shape(both.apply(rhs))


def test_rule_compiled_against_given_bindings():
    # What solve_conditions compiles: the given bindings to ground terms are
    # bound (SAME ops), one to a non-ground term is not.
    zero = App(LEAVES[0])
    x, y, u = Var("x"), Var("y"), Var("u")
    c = INNER[0]
    rule = Rule("t", App(G, (x, y)), u, (Condition(App(INNER[2], (y,)), App(c, (x, u))),))
    program = RuleProgram(rule, Subst({"x": zero, "y": App(INNER[1], (Var("w"),))}))
    assert program.lhs == () and program.names[:2] == ["x", "y"]
    template, ground, rhs_program = program.conditions[0]
    assert not ground
    slots = list(program.init)
    assert repr(build(template, slots)) == "h(s(w))"
    value = App(c, (zero, App(LEAVES[1])))
    assert run(rhs_program, [(value,)], slots, False)
    assert program.subst(slots) == Subst({"x": zero, "y": App(INNER[1], (Var("w"),)), "u": App(LEAVES[1])})
    assert not run(rhs_program, [(App(c, (App(LEAVES[1]), zero)),)], list(program.init), False)


def test_nonlinear_rule_on_deep_copies_below_the_recursion_limit():
    # eq(x,x) compares its two arguments: two separately built s^5000(0)
    # compare equal without recursion, and their binding hashes.
    system = parse_system("(VAR x)(RULES eq(x,x) -> true)")
    s, zero = Symbol("s", 1), Symbol("0", 0)

    def nat(n: int) -> Term:
        t = App(zero)
        for _ in range(n):
            t = App(s, (t,))
        return t

    a, b = nat(5000), nat(5000)
    eq, true = system.signature["eq"], App(system.signature["true"])
    assert a is not b
    assert normalize(system, App(eq, (a, b))) == true
    [witness] = step(system, App(eq, (a, b)))
    assert witness.sigma == Subst({"x": b}) and hash(witness.sigma) == hash(Subst({"x": a}))
    assert witness.result == true
    other = App(eq, (a, App(s, (nat(4998),))))
    assert normalize(system, other) is other


# --- view_update keeps its forward and backward systems per system -----------


def _count_view_builds(monkeypatch) -> dict[str, int]:
    calls = dict.fromkeys(("injectivize", "injectivize_improved", "invert"), 0)
    for name in calls:
        original = getattr(revrw.transform, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(revrw.transform, name, counting)
    return calls


def test_view_update_matches_the_uncached_reference_and_builds_once(monkeypatch):
    calls = _count_view_builds(monkeypatch)
    pc, _ = to_pcdctrs(load("view.trs"))
    kinds, sources = view_sources(pc)
    view_fn, cons, nil = pc.signature["view"], pc.signature["cons"], pc.signature["nil"]
    nine = parse_term("9", pc)
    outcomes = set()
    # Every fifth source: the reference builds both systems on every call.
    for kind in kinds:
        for source in sources[::5]:
            old_view = normalize(pc, view_fn(kind, source), "constructor")
            flat, rest = nil(), old_view
            while rest.symbol == cons:
                flat, rest = cons(nine, flat), rest.args[1]
            # The unchanged view, one edited in place, one of another shape.
            for new_view in (old_view, flat, cons(nine, old_view)):
                got = _outcome(view_update, pc, (kind, source), new_view)
                assert got == _outcome(ref_view_update, pc, (kind, source), new_view)
                outcomes.add(got[0] if got[0] == "ok" else got[1].__name__)
    assert outcomes == {"ok", "UpdateFailed"}
    # Naming the default view function reuses its entry.
    view_update(pc, (kind, source), old_view, function="view")
    assert calls == {"injectivize": 1, "injectivize_improved": 0, "invert": 1}


def test_view_update_keeps_plain_and_improved_apart(monkeypatch):
    calls = _count_view_builds(monkeypatch)
    zip_sys = load("zip.trs")
    pc, _ = to_pcdctrs(zip_sys)
    cases = [
        (parse_term(a, pc), parse_term(b, pc)) for a, b in
        (("[0,1]", "[2,3]"), ("[0]", "[1,2,3]"), ("nil", "[4]"))
    ]
    for origin in (None, zip_sys, None, zip_sys):
        for args in cases:
            old_view = normalize(pc, App(pc.signature["zip"], args), "constructor")
            for new_view in (old_view, parse_term("[pair(5,6)]", pc)):
                got = _outcome(view_update, pc, args, new_view, improved_origin=origin)
                want = _outcome(ref_view_update, pc, args, new_view, improved_origin=origin)
                assert got == want, (origin, args, new_view)
    assert calls == {"injectivize": 1, "injectivize_improved": 1, "invert": 2}
    # Another system object, even an equal one, is another origin.
    view_update(pc, cases[0], old_view, improved_origin=load("zip.trs"))
    assert calls["injectivize_improved"] == 2


# --- conditions run as levels on the engine's own stack -----------------------
#
# In the pcDCTRS of addmult, add(s^k(0),0) nests its conditions k levels deep
# (add(s(x),y) -> s(w) | add(x,y) == w): the call's own level and k condition
# levels, k + 1 in all. None of these tests raises the recursion limit.

DEEP = 5000
DEEP_BOUNDS = Bounds(max_steps=10 * DEEP, max_depth=DEEP + 1)


def _pc_addmult() -> RewriteSystem:
    return to_pcdctrs(load("addmult.trs"))[0]


def _pc_add(pc: RewriteSystem, n: int) -> Term:
    return App(pc.signature["add"], (_nat(pc, n), _nat(pc, 0)))


@pytest.mark.parametrize("k", range(1, 7))
def test_condition_levels_match_reference_around_max_depth(k):
    # max_depth k + 1 is just enough; k and k - 1 end in the depth bound,
    # with the reference's text.
    pc = _pc_addmult()
    term = _pc_add(pc, k)
    for max_depth in (k - 1, k, k + 1):
        if max_depth < 1:
            continue
        bounds = Bounds(max_depth=max_depth)
        for strategy in STRATEGIES:
            assert_same_engine(pc, term, strategy, bounds)
            got = _outcome(normalize, pc, term, strategy, bounds)
            want = _outcome(ref_normalize_traced, pc, term, strategy, bounds)
            if want[0] == "ok":
                want = ("ok", want[1][0])
            assert got == want, (k, max_depth, strategy)
        outcome = _outcome(normalize, pc, term, "constructor", bounds)
        if max_depth > k:
            assert outcome == ("ok", _nat(pc, k))
        else:
            assert outcome == ("raise", BoundExceeded, "condition evaluation depth bound exceeded")


def test_condition_nesting_past_the_recursion_limit():
    pc = _pc_addmult()
    term, value = _pc_add(pc, DEEP), _nat(pc, DEEP)
    assert normalize(pc, term, "constructor", DEEP_BOUNDS) == value
    result, steps = normalize_traced(pc, term, "constructor", DEEP_BOUNDS)
    assert result == value and len(steps) == 1
    nesting = 0
    witness = steps[0]
    while witness.sub_witnesses:
        ((witness,),) = witness.sub_witnesses
        nesting += 1
    assert nesting == DEEP and witness.rule_label == "b1"
    # One level fewer than the nesting needs is a bound, not a RecursionError.
    with pytest.raises(BoundExceeded, match="^condition evaluation depth bound exceeded$"):
        normalize(pc, term, "constructor", Bounds(max_steps=10 * DEEP, max_depth=DEEP))


PRICES = ("0", "s(0)", "s(s(0))", "s(s(s(0)))", "s(s(s(s(0))))")


def _records(pc: RewriteSystem, n: int, bump: bool = False) -> Term:
    """A list of n records, books and dvds, each book's price one higher if
    bump; built from the last record on, without recursion."""
    sig = pc.signature
    book, dvd = App(sig["book"]), App(sig["dvd"])
    prices = [parse_term(p, pc) for p in PRICES]
    out = App(sig["nil"])
    for i in reversed(range(n)):
        kind = dvd if i % 3 == 2 else book
        price = prices[i % 4 + (1 if bump and kind is book else 0)]
        out = App(sig["cons"], (App(sig["r"], (kind, price)), out))
    return out


def _prices(pc: RewriteSystem, n: int, bump: bool = False) -> Term:
    """The view of `_records(pc, n)`: the books' prices, in order."""
    sig = pc.signature
    prices = [parse_term(p, pc) for p in PRICES]
    out = App(sig["nil"])
    for i in reversed(range(n)):
        if i % 3 != 2:
            out = App(sig["cons"], (prices[i % 4 + (1 if bump else 0)], out))
    return out


def test_view_get_and_put_past_the_recursion_limit():
    n = 10_000
    pc = to_pcdctrs(load("view.trs"))[0]
    bounds = Bounds(max_steps=20 * n, max_depth=n + 10)
    book = App(pc.signature["book"])
    source = _records(pc, n)
    view = normalize(pc, App(pc.signature["view"], (book, source)), "constructor", bounds)
    assert view == _prices(pc, n)
    updated = view_update(pc, (book, source), _prices(pc, n, bump=True), bounds)
    assert updated == (book, _records(pc, n, bump=True))


def test_witnesses_nested_past_the_recursion_limit_compare_hash_and_print():
    # Recursive equality, hashing and repr each met the recursion limit
    # here; every level's result is a term of its own, so the cost grows
    # with the square of the depth.
    depth = 600
    pc = _pc_addmult()
    bounds = Bounds(max_steps=10 * depth, max_depth=depth + 1)
    _, a = normalize_traced(pc, _pc_add(pc, depth), "constructor", bounds)
    _, b = normalize_traced(pc, _pc_add(pc, depth), "constructor", bounds)
    assert a[0] is not b[0] and a == b and hash(a[0]) == hash(b[0])
    _, other = normalize_traced(pc, _pc_add(pc, depth - 1), "constructor", bounds)
    assert a != other
    text = repr(a[0])
    assert text.count("StepWitness(") == depth + 1
    assert text.startswith("StepWitness(position=(), rule_label='b2', ")
    assert text.endswith("sub_witnesses=())" + ",),))" * depth)

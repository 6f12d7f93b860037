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

import io
import keyword
import random
import re
import tokenize

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

import revrw.terms
import revrw.transform
from revrw import (
    App,
    BoundExceeded,
    Bounds,
    Condition,
    Pair,
    PreconditionViolated,
    RevrwError,
    RewriteSystem,
    Rule,
    StepWitness,
    Subst,
    Symbol,
    Term,
    TraceMismatch,
    TraceTerm,
    Var,
    backward_run,
    first_step,
    format_term,
    format_trace,
    forward_run,
    injectivize,
    invert,
    match,
    normalize,
    parse_system,
    parse_term,
    parse_trace,
    positions,
    replace,
    safety_domain,
    step,
    to_pcdctrs,
    view_update,
)
from revrw.programs import RuleProgram
from revrw.rewrite import STRATEGIES, normalize_traced
from revrw.terms import CONSTRUCTOR, DEFINED
from revrw.transform import injective_name, inverse_name

from .conftest import CORPUS_DIR, examples, load
from .oracles import (
    SEARCH_BOUNDS,
    ref_backward_run,
    ref_first_step,
    ref_flags,
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
    # the backward zipper keep them linear. Every App is built by
    # terms.assemble, which App(...) calls once it has worked out the flags
    # and generated builders call directly, and each build takes its node
    # from terms._new: that is what is counted.
    original = revrw.terms._new
    count = 0

    def counting(cls):
        nonlocal count
        count += 1
        return original(cls)

    def builds(n: int) -> list[int]:
        nonlocal count
        x = _nat(addmult, n)
        term = App(addmult.signature["add"], (x, x))
        counts = []
        with monkeypatch.context() as m:
            m.setattr(revrw.terms, "_new", counting)
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
        assert 0 < a and b <= 4.2 * a, (call, a, b)
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


# Subjects also use the pattern symbols of the other kind (a matcher's
# identity test fails, its name and arity test holds) and a symbol whose
# name is a pattern symbol's but whose arity is not.
ground_subterms = _terms(
    st.sampled_from([App(s) for s in LEAVES + tuple(map(_flip, LEAVES))]),
    INNER + tuple(map(_flip, INNER)) + (Symbol("c", 1),),
)
LHS_VARS = [Var(n) for n in "xyz"]
# Ground subpatterns compile to whole-term comparisons, and repeated
# variables to comparisons with their slot.
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


def _flags(t: Term) -> list:
    """The ground and constructor flags of t's nodes, in preorder."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if u.__class__ is App:
            out.append((u.ground, u.constructor))
            stack.extend(reversed(u.args))
    return out


def _same_build(got: Term, want: Term) -> bool:
    """Equal terms over symbols of the same kinds, with the flags App works
    out: a generated builder sets them itself."""
    return _shape(got) == _shape(want) and _flags(got) == _flags(want)


@examples(200)
@given(lhs_patterns, lhs_patterns, condition_patterns, st.data())
def test_compiled_lhs_and_rhs_agree_with_match_and_apply(p1, p2, rhs, data):
    lhs = App(G, (p1, p2))
    subject = _instance(data.draw, lhs, "xyz")
    program = RuleProgram(Rule("t", lhs, rhs))
    want = match(lhs, subject)
    slots = program.lhs(subject, False)
    assert (slots is None) == (want is None), (lhs, subject)
    if want is not None:
        assert program.subst(slots) == want
        assert _same_build(program.rhs(slots), want.apply(rhs))
    # The constructor strategy: a match that binds a variable to a term in
    # which a defined symbol occurs fails.
    slots = program.lhs(subject, True)
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
    slots = program.lhs(subject, False)
    builder, ground, matcher = program.conditions[0]
    instance = sigma.apply(clhs)
    # Variables the lhs left unbound stay variables, as in the
    # PreconditionViolated message.
    assert _same_build(builder(slots), instance)
    assert ground == (instance.__class__ is App and instance.ground)
    # The normal form: an instance of the condition rhs (bound variables
    # included), or one that differs from it somewhere.
    value = _instance(data.draw, sigma.apply(crhs), "xyzuv")
    theta = match(sigma.apply(crhs), value)
    assert matcher(value, slots, False) == (theta is not None), (crhs, value)
    if theta is not None:
        both = sigma.union(theta)
        assert program.subst(slots) == both
        assert _same_build(program.rhs(slots), both.apply(rhs))


@examples(150)
@given(lhs_patterns, lhs_patterns, condition_patterns, condition_patterns, condition_patterns, st.data())
def test_replay_programs_agree_with_match_and_apply(p1, p2, clhs, crhs, rhs, data):
    # A step of the rule under sigma, undone: the rhs matcher against the
    # result (or a term near it), the safety domain filled from sigma, the
    # condition replayed from its rhs's instance, and the lhs rebuilt.
    lhs = App(G, (p1, p2))
    rule = Rule("t", lhs, rhs, (Condition(clhs, crhs),))
    sigma = Subst({n: data.draw(ground_subterms) for n in "xyzuv"})
    replay = RuleProgram(rule, domain=safety_domain(rule), backward=True)
    names = replay.names
    focus = data.draw(near(sigma.apply(rhs)))
    want = match(rhs, focus)
    slots = replay.lhs(focus, False)
    assert (slots is None) == (want is None), (rhs, focus)
    if want is not None:
        assert replay.subst(slots) == want
    slots = replay.lhs(sigma.apply(rhs), False)
    for name, k in replay.safe:
        slots[k] = sigma.get(name)
    [(builder, _, matcher)] = replay.conditions
    assert _same_build(builder(slots), sigma.apply(crhs))
    assert matcher(sigma.apply(clhs), slots, False)
    assert Subst(zip(names, slots)) == sigma.restrict(names)
    assert _same_build(replay.rhs(slots), sigma.apply(lhs))


def test_rule_compiled_against_given_bindings():
    # What solve_conditions compiles: the given bindings to ground terms are
    # bound (compared, not bound again), one to a non-ground term is not.
    zero = App(LEAVES[0])
    x, y, u = Var("x"), Var("y"), Var("u")
    c = INNER[0]
    rule = Rule("t", App(G, (x, y)), u, (Condition(App(INNER[2], (y,)), App(c, (x, u))),))
    program = RuleProgram(rule, Subst({"x": zero, "y": App(INNER[1], (Var("w"),))}))
    assert program.lhs is None and program.names[:2] == ["x", "y"]
    builder, ground, matcher = program.conditions[0]
    assert not ground
    slots = list(program.init)
    assert repr(builder(slots)) == "h(s(w))"
    value = App(c, (zero, App(LEAVES[1])))
    assert matcher(value, slots, False)
    assert program.subst(slots) == Subst({"x": zero, "y": App(INNER[1], (Var("w"),)), "u": App(LEAVES[1])})
    assert not matcher(App(c, (App(LEAVES[1]), zero)), list(program.init), False)


def test_a_symbol_with_the_right_name_and_the_wrong_arity_never_matches(addmult):
    # Rules are looked up by the root's name alone, so the arity half of a
    # generated symbol test is all that keeps add/1 from add/2's rules, at
    # the root and below it, forwards and backwards.
    zero = parse_term("0", addmult)
    odd_add = App(Symbol("add", 1), (zero,))
    for strategy in STRATEGIES:
        assert step(addmult, odd_add, strategy) == []
        assert first_step(addmult, odd_add, strategy) is None
        assert normalize(addmult, odd_add, strategy) is odd_add
    with pytest.raises(TraceMismatch, match=r"^b2: right-hand side s\(add\(x,y\)\) does not match s\(0,0\)$"):
        backward_run(addmult, Pair(App(Symbol("s", 2), (zero, zero)), (TraceTerm("b2", (), Subst()),)))
    for rules, odd in (
        # Each pattern's c has one arity, the subject's c the other: in the
        # lhs of f, and in the condition rhs of h, which k's normal form meets.
        ("f(c(x)) -> x h(x) -> y | k(x) == c(y) k(x) -> x", Symbol("c", 2)),
        ("f(c(x,y)) -> y h(x) -> y | k(x) == c(y,y) k(x) -> x", Symbol("c", 1)),
    ):
        system = parse_system(f"(VAR x y)(RULES {rules})")
        arg = App(odd, (parse_term("0", system),) * odd.arity)
        f, h = (App(system.signature[name], (arg,)) for name in "fh")
        program = system.programs["f"][0]
        assert program.lhs(f, False) is None
        for strategy in STRATEGIES:
            assert step(system, f, strategy) == []
            assert normalize(system, f, strategy) is f
            assert normalize(system, h, strategy) == h


# --- generated code never holds a name from the input ------------------------

# One system shape, written with names that are Python keywords, builtins,
# or no identifier at all (a quote, #, ^), as variables and as symbols: the
# quote and the keywords are what would turn a spliced name into code.
NAMED_SYSTEM = """(VAR {x} {y} {z} {w} {u})
(RULES
  {f}({x},{g}({y},{y})) -> {t}({y},{h}({x})) | {h}({x}) == {g}({z},{c}), {h}({z}) == {w} [b1]
  {h}({c}) -> {g}({c},{c}) [b2]
  {h}({d}({c})) -> {d}({c}) [b3]
  {h}({g}({x},{y})) -> {x} [b4]
  {f}({d}({c}),{u}) -> {u} [b5]
)"""
NAMED_TERMS = (
    "{f}({c},{g}({c},{c}))",
    "{f}({h}({d}({c})),{g}({d}({c}),{d}({c})))",
    "{f}({d}({c}),{h}({g}({c},{d}({c}))))",
    "{f}({d}({c}),{g}({c},{d}({c})))",
)
PLAIN_NAMES = dict(x="x", y="y", z="z", w="w", u="u", f="f", g="g", t="t", h="h", c="c", d="d")
ODD_NAMES = (
    dict(x="if", y="lambda", z="_w1", w="a'", u="class", f="f'", g="a''b", t="tuple#2",
         h="view^-1", c="None", d="__import__"),
    dict(x="None", y="__import__", z="f'", w="tuple#2", u="_w1", f="if", g="lambda", t="a''b",
         h="def", c="return", d="view^-1"),
)
# Every name the generator writes: keywords, its helpers, the attributes it
# reads, its locals and the globals it numbers.
GENERATED_NAME = (
    r"(?:def|if|is|not|and|or|return|None|True|False|_assemble|_App|lhs|conditions|rhs"
    r"|symbol|name|arity|args|constructor|[tycs]|[rvxngf]\d+)"
)


def _program(system: RewriteSystem, rule: Rule) -> RuleProgram:
    [program] = [p for p in system.programs[rule.lhs.symbol.name] if p.rule is rule]
    return program


def _sources(system: RewriteSystem) -> list[str]:
    """The generated text of every rule, in textual order."""
    return [_program(system, r).source + system.replays[r.label].source for r in system.rules]


@pytest.mark.parametrize("names", ODD_NAMES)
def test_generated_code_holds_no_input_name(names):
    system = parse_system(NAMED_SYSTEM.format(**names), allow_reserved=True)
    plain = parse_system(NAMED_SYSTEM.format(**PLAIN_NAMES))
    sources = _sources(system)
    # The text depends on the rules' shape alone.
    assert sources == _sources(plain)
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING, source
            if tok.type == tokenize.NAME:
                assert re.fullmatch(GENERATED_NAME, tok.string), (tok.string, source)
        for name in names.values():
            if not keyword.iskeyword(name) and name not in ("c", "s", "t", "y"):
                assert name not in source, (name, source)
    # And the code runs these rules as the reference engine, terms.match and
    # Subst.apply do.
    for text in NAMED_TERMS:
        term = parse_term(text.format(**names), system)
        for strategy in STRATEGIES:
            assert_same_engine(system, term, strategy, Bounds())
    for rule in system.rules:
        program = _program(system, rule)
        for text in NAMED_TERMS:
            subject = parse_term(text.format(**names), system)
            for p in positions(subject):
                node = subject
                for i in p:
                    node = node.args[i - 1]
                if node.symbol != rule.lhs.symbol:
                    continue
                want = match(rule.lhs, node)
                slots = program.lhs(node, False)
                assert (slots is None) == (want is None)
                if slots is not None:
                    assert program.subst(slots) == want
                    assert _same_build(program.rhs(slots), want.apply(rule.rhs))


def test_generated_builders_take_deep_and_wide_rules():
    # A template 1,500 levels deep nests further than Python's parser takes
    # brackets, and one over 40 variables reads 40 constructor flags: the
    # builder splits both into locals, and sets the flags App works out.
    n = 1500
    deep = "x"
    for _ in range(n):
        deep = f"s({deep})"
    names = [f"y{i}" for i in range(40)]
    system = parse_system(
        f"(VAR x {' '.join(names)})(RULES f({deep}) -> g({deep},k(x)) "
        f"h(c({','.join(names)})) -> d(c({','.join(reversed(names))})))"
    )
    zero = parse_term("0", system)
    s = system.signature["s"]

    def nat(k: int) -> Term:
        t = zero
        for _ in range(k):
            t = App(s, (t,))
        return t

    value = normalize(system, App(system.signature["f"], (nat(n + 2),)))
    want = App(system.signature["g"], (nat(n + 2), App(system.signature["k"], (nat(2),))))
    assert _same_build(value, want)
    args = [parse_term("s(0)" if i % 3 else "h(0)", system) for i in range(40)]
    c = system.signature["c"]
    [witness] = step(system, App(system.signature["h"], (App(c, args),)), "any")[-1:]
    assert _same_build(witness.result, App(system.signature["d"], (App(c, tuple(reversed(args))),)))
    assert max(line.count("(") for line in _program(system, system.rules[0]).source.splitlines()) < 100


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


# --- closed condition calls answered without a level -------------------------
#
# A closed condition lhs is tried against its root symbol's rules at once:
# when none applies, or the first that applies has no conditions and leaves
# a constructor term, the value is matched with no level pushed. These
# tests pin that path against the reference at its bounds.


def _pc_view() -> RewriteSystem:
    return to_pcdctrs(load("view.trs"))[0]


def _nesting(witnesses) -> tuple[int, str]:
    """The deepest nesting of a recorded step and the rule it applied."""
    deepest = (0, witnesses[0].rule_label)
    stack = [(w, 0) for w in witnesses]
    while stack:
        w, d = stack.pop()
        deepest = max(deepest, (d, w.rule_label))
        stack.extend((sub, d + 1) for steps in w.sub_witnesses for sub in steps)
    return deepest


def _leaf_cases():
    pc = _pc_view()
    book = App(pc.signature["book"])
    view = App(pc.signature["view"], (book, _records(pc, 4)))
    add = _pc_addmult()
    return [(pc, view), (add, _pc_add(add, 3))]


def test_leaf_calls_meet_the_depth_bound_as_the_reference_does():
    # The deepest step of each run applies a condition-free rule (view's
    # eq, val or view(t,nil); add(0,y)), so with max_depth one below what
    # the run needs, the bound falls on a leaf call.
    for system, term in _leaf_cases():
        _, steps = normalize_traced(system, term, "constructor")
        depth, label = _nesting(steps)
        assert not system.rule_by_label(label).conditions
        for max_depth in (depth - 1, depth, depth + 1, depth + 2):
            bounds = Bounds(max_depth=max_depth)
            for strategy in STRATEGIES:
                got = _outcome(normalize_traced, system, term, strategy, bounds)
                assert got == _outcome(ref_normalize_traced, system, term, strategy, bounds)
                if max_depth <= depth:
                    assert got == ("raise", BoundExceeded, "condition evaluation depth bound exceeded")
                else:
                    assert got[0] == "ok"


def test_leaf_steps_meet_the_step_bound_as_the_reference_does():
    # The first step spent on the view is eq(book,book) -> true, a leaf
    # call, so max_steps 1 runs out on the next leaf, val(r(book,0)) -> 0.
    for system, term in _leaf_cases():
        _, steps = normalize_traced(system, term, "constructor")
        total = len(_flat_steps(steps))
        for max_steps in range(1, total + 1):
            bounds = Bounds(max_steps=max_steps)
            for strategy in STRATEGIES:
                got = _outcome(normalize_traced, system, term, strategy, bounds)
                assert got == _outcome(ref_normalize_traced, system, term, strategy, bounds)
                if max_steps < total:
                    assert got == ("raise", BoundExceeded, "step bound exceeded"), (max_steps, strategy)
    pc, view = _leaf_cases()[0]
    first = _flat_steps(normalize_traced(pc, view, "constructor")[1])[0]
    assert first.rule_label == "b4" and not pc.rule_by_label("b4").conditions


def _flat_steps(witnesses) -> list[StepWitness]:
    """Every recorded step, sub-steps included, in the order they were spent."""
    out = []
    stack = [(w, False) for w in reversed(witnesses)]
    while stack:
        w, done = stack.pop()
        if done:
            out.append(w)
            continue
        stack.append((w, True))
        stack.extend((sub, False) for steps in reversed(w.sub_witnesses) for sub in reversed(steps))
    return out


def test_view_witnesses_match_the_reference_on_the_pcdctrs_and_its_inverse():
    pc = _pc_view()
    forward = injectivize(pc)
    backward = invert(forward)
    fi = forward.signature[injective_name("view")]
    inv = backward.signature[inverse_name("view")]
    kinds, sources = view_sources(pc)
    for source in sources[::41]:
        for kind in kinds:
            calls = [(pc, App(pc.signature["view"], (kind, source)))]
            pair = normalize(forward, App(fi, (kind, source)), "constructor")
            calls += [(forward, App(fi, (kind, source))), (backward, App(inv, pair.args))]
            for system, term in calls:
                for strategy in STRATEGIES:
                    got = _outcome(normalize_traced, system, term, strategy, Bounds())
                    assert got == _outcome(ref_normalize_traced, system, term, strategy, Bounds())
                    assert got[0] == "ok"


def test_a_closed_call_no_rule_matches_is_its_own_value():
    system = parse_system("(VAR x y)(RULES f(x) -> y | g(x) == y  g(s(x)) -> x)")
    term = parse_term("f(0)", system)
    for strategy in STRATEGIES:
        assert_same_engine(system, term, strategy, Bounds())
    nf, steps = normalize_traced(system, term, "innermost")
    assert format_term(nf) == "g(0)" and steps[0].sub_witnesses == ((),)
    # The constructor strategy binds y to constructor terms only.
    assert normalize_traced(system, term, "constructor") == (term, [])


def test_a_condition_free_rule_whose_rhs_is_not_a_constructor_term_takes_a_level():
    system = parse_system(
        "(VAR x y)(RULES f(x) -> y | g(x) == y  g(x) -> h(x)  h(x) -> s(x)  k(x) -> x "
        "e(x) -> y | k(x) == y)"
    )
    # g(0) -> h(0) is one step, and h(0) -> s(0) the next; under top,
    # k(h(0)) -> h(0) leaves a call too.
    for text in ("f(0)", "e(h(0))", "c(f(s(0)),e(h(0)))"):
        term = parse_term(text, system)
        for strategy in STRATEGIES:
            assert_same_engine(system, term, strategy, Bounds())
            for max_steps in (1, 2):
                assert_same_engine(system, term, strategy, Bounds(max_steps=max_steps))
            assert_same_engine(system, term, strategy, Bounds(max_depth=1))
    _, steps = normalize_traced(system, parse_term("f(0)", system), "innermost")
    assert [w.rule_label for w in steps[0].sub_witnesses[0]] == ["b2", "b3"]
    _, steps = normalize_traced(system, parse_term("e(h(0))", system), "top")
    assert [w.rule_label for w in steps[0].sub_witnesses[0]] == ["b4", "b3"]


# --- every node an App ------------------------------------------------------
#
# A node is built on a writable twin class and then made an App; none may
# leave the library as anything else, or with flags other than its own.


def _reachable_apps(*roots) -> list[App]:
    """Every distinct App reachable from the roots: terms, witnesses (their
    results and bindings), pairs and traces, systems and their rules."""
    seen: dict[int, App] = {}
    stack = list(roots)
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            if id(u) not in seen:
                seen[id(u)] = u
                stack.extend(u.args)
        elif isinstance(u, (tuple, list)):
            stack.extend(u)
        elif isinstance(u, Subst):
            stack.extend(t for _, t in u.items())
        elif isinstance(u, StepWitness):
            stack += [u.result, u.sigma, u.sub_witnesses]
        elif isinstance(u, Pair):
            stack += [u.term, u.trace]
        elif isinstance(u, TraceTerm):
            stack += [u.recorded, u.sub_traces]
        elif isinstance(u, RewriteSystem):
            for rule in u.rules:
                stack += [rule.lhs, rule.rhs]
                stack.extend(side for c in rule.conditions for side in (c.lhs, c.rhs))
        else:
            assert u is None or isinstance(u, Var), u
    return list(seen.values())


def _assert_frozen_apps(*roots) -> int:
    nodes = _reachable_apps(*roots)
    for t in nodes:
        assert t.__class__ is App, t.__class__
        assert (t.ground, t.constructor) == ref_flags(t), t
        with pytest.raises(FrozenInstanceError):
            t.args = ()
        with pytest.raises(FrozenInstanceError):
            del t.symbol
    return len(nodes)


def _or_none(call, *args):
    try:
        return call(*args)
    except RevrwError:
        return None


@pytest.mark.parametrize("name", SYSTEMS)
def test_no_writable_node_escapes(name):
    system = SYSTEM_OF[name]
    rng = random.Random(name)
    checked = 0
    for term in (random_term(system, rng, MAX_DEPTH) for _ in range(SEEDED_TERMS)):
        outputs = [parse_term(format_term(term), system)]
        for strategy in STRATEGIES:
            outputs.append(_or_none(normalize_traced, system, term, strategy))
            pair = _or_none(forward_run, system, Pair(term), strategy)
            if pair is not None:
                outputs += [pair, parse_trace(format_trace(pair.trace)), backward_run(system, pair)]
        checked += _assert_frozen_apps(outputs)
    pc = system if system.is_pcdctrs else to_pcdctrs(system)[0]
    forward = injectivize(pc)
    checked += _assert_frozen_apps(pc, forward, invert(forward))
    if name == "view.trs":
        kinds, sources = view_sources(pc)
        for source in sources[::29]:
            view = normalize(pc, App(pc.signature["view"], (kinds[0], source)), "constructor")
            checked += _assert_frozen_apps(view_update(pc, (kinds[0], source), view))
    assert checked > 100

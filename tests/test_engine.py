"""Differential tests of the rewriting engine against the reference engine in
oracles.py (a recursive walk from the root on every step), and of
`backward_run` on the traces it records against the reference backward run
(`subterm` and `replace` from the root on every step).

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
from hypothesis import given, settings, strategies as st

from revrw import (
    App,
    BoundExceeded,
    Bounds,
    Pair,
    RewriteSystem,
    Symbol,
    Term,
    backward_run,
    first_step,
    forward_run,
    parse_system,
    parse_term,
    step,
)
from revrw.rewrite import STRATEGIES, normalize_traced
from revrw.terms import DEFINED

from .conftest import CORPUS_DIR, load
from .oracles import (
    SEARCH_BOUNDS,
    ref_backward_run,
    ref_first_step,
    ref_forward_run,
    ref_normalize_traced,
    ref_step,
    same_term,
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
    trace without the oldest or the newest step, and on the input term (the
    last two mostly end in TraceMismatch)."""
    trace = pair.trace
    for probe in (pair, Pair(pair.term, trace[:-1]), Pair(pair.term, trace[1:]), Pair(term, trace)):
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


@settings(max_examples=150, deadline=None)
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

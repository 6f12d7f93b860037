"""Differential tests of the rewriting engine against the reference engine in
oracles.py (a recursive walk from the root on every step).

Every comparison covers the returned value and, when the call raises, the
exception type and message, so bound checks must fire at the same point.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from revrw import (
    App,
    Bounds,
    Pair,
    RewriteSystem,
    Symbol,
    Term,
    first_step,
    forward_run,
    parse_system,
    step,
)
from revrw.rewrite import STRATEGIES, normalize_traced
from revrw.terms import DEFINED

from .conftest import CORPUS_DIR, load
from .oracles import (
    ref_first_step,
    ref_forward_run,
    ref_normalize_traced,
    ref_step,
)

SYSTEMS = tuple(sorted(p.name for p in CORPUS_DIR.glob("*.trs")))
BOUNDS = (Bounds(), Bounds(max_steps=3), Bounds(max_depth=1))
SEEDED_TERMS = 12
MAX_DEPTH = 5


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
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
    for call, reference, args in pairs:
        assert _outcome(call, *args) == _outcome(reference, *args), (
            call.__name__, term, strategy, bounds
        )


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


@pytest.mark.parametrize("max_steps", range(1, 9))
def test_failed_condition_steps_count_on_every_step(double_sys, max_steps):
    # double(s^3(0)) is irreducible, but trying it spends one condition step
    # (even(s^3(0)) -> even(s(0)), which is not true). A search from the root
    # pays that again on every later step: to the left of the redex, and
    # inside it once a rule moves it as a variable binding.
    sig = double_sys.signature
    stuck = App(sig["double"], (_nat(double_sys, 3),))
    busy = App(sig["add"], (_nat(double_sys, 2), _nat(double_sys, 1)))
    for term in (
        App(sig["add"], (stuck, busy)),
        App(sig["add"], (_nat(double_sys, 3), stuck)),
    ):
        for strategy in STRATEGIES:
            assert_same_engine(double_sys, term, strategy, Bounds(max_steps=max_steps))


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

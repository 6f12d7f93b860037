from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from revrw import (
    App,
    InvalidPosition,
    NotGround,
    OverlappingDomains,
    ROOT,
    Subst,
    Symbol,
    Var,
    format_position,
    format_term,
    injectivize,
    invert,
    is_basic_term,
    is_constructor_term,
    is_ground,
    match,
    parse_position,
    parse_term,
    positions,
    replace,
    subterm,
    term_vars,
    to_pcdctrs,
    unify,
)
from revrw.terms import DEFINED, assemble

from .conftest import CORPUS_DIR, examples, load
from .oracles import ground_unifiers, ref_apply, ref_flags, ref_is_constructor_term, ref_positions, ref_unify

ZERO = Symbol("0", 0)
S = Symbol("s", 1)
C = Symbol("c", 2)
ADD = Symbol("add", 2, DEFINED)
FST = Symbol("fst", 2, DEFINED)
PAIR = Symbol("pair", 2)
F = Symbol("f", 2, DEFINED)

zero = ZERO()
x, y, z = Var("x"), Var("y"), Var("z")


def nat(n: int) -> App:
    t = zero
    for _ in range(n):
        t = S(t)
    return t


# --- subterm / replace ------------------------------------------------------


def test_subterm_picks_first_argument():
    t = FST(ADD(S(zero), zero), zero)
    assert subterm(t, (1,)) == ADD(S(zero), zero)


def test_subterm_root_is_identity():
    assert subterm(x, ROOT) == x


def test_subterm_invalid_position():
    with pytest.raises(InvalidPosition):
        subterm(S(zero), (1, 1))


def test_replace_first_argument():
    t = FST(ADD(S(zero), zero), zero)
    assert replace(t, (1,), S(ADD(zero, zero))) == FST(S(ADD(zero, zero)), zero)


def test_replace_at_root():
    assert replace(FST(zero, zero), ROOT, zero) == zero


def test_replace_second_argument():
    assert replace(ADD(zero, y), (2,), zero) == ADD(zero, zero)


def test_replace_invalid_position_names_the_rest_of_the_path():
    with pytest.raises(InvalidPosition) as err:
        replace(FST(S(zero), zero), (1, 1, 2), zero)
    assert str(err.value) == "position 2 not in 0"


def test_replace_below_the_recursion_limit():
    depth = 5000
    t = zero
    for _ in range(depth):
        t = S(t)
    p = (1,) * depth
    out = replace(t, p, x)
    assert subterm(out, p) is x and not out.ground


def test_positions_are_postorder():
    t = ADD(S(x), zero)
    assert list(positions(t)) == [(1, 1), (1,), (2,), ()]


# --- match ------------------------------------------------------------------


def test_match_binds_forced_variable():
    assert match(ADD(zero, y), ADD(zero, S(zero))) == Subst({"y": S(zero)})


def test_match_constructor_clash_fails():
    assert match(ADD(S(x), y), ADD(zero, zero)) is None


def test_match_nonlinear_inconsistency_fails():
    assert match(F(x, x), F(zero, S(zero))) is None


def test_match_nonlinear_consistent():
    assert match(F(x, x), F(S(zero), S(zero))) == Subst({"x": S(zero)})


def test_deep_terms_compare_hash_and_match_below_the_recursion_limit():
    a, b = nat(5000), nat(5000)
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    deep_var = replace(a, (1,) * 5000, x)
    assert a != deep_var and deep_var == replace(b, (1,) * 5000, x)
    assert a != S(S(nat(4999)))
    # Symbols compare by name and arity, not kind.
    defined_zero = App(Symbol("0", 0, DEFINED), ())
    c = replace(b, (1,) * 5000, defined_zero)
    assert c == a and hash(c) == hash(a)
    # ... and by arity.
    unary = replace(a, (1,) * 5000, App(Symbol("0", 1), (zero,)))
    assert unary != replace(b, (1,) * 5000, App(Symbol("0", 2), (zero, zero)))
    assert match(F(x, x), F(a, b)) == Subst({"x": a})
    assert match(F(x, x), F(a, S(b))) is None


def test_match_rejects_non_ground_subject():
    with pytest.raises(NotGround):
        match(x, S(y))


# --- unify ------------------------------------------------------------------


def test_unify_forced():
    got = unify(PAIR(x, zero), PAIR(S(y), z))
    assert got == Subst({"x": S(y), "z": zero})


def test_unify_occurs_check():
    assert unify(x, S(x)) is None


def test_unify_clash():
    assert unify(zero, S(x)) is None


def test_unify_is_symmetric_on_success():
    a, b = C(x, S(y)), C(S(zero), z)
    lr, rl = unify(a, b), unify(b, a)
    assert lr is not None and rl is not None
    assert lr.apply(a) == rl.apply(a)


# --- apply / restrict / union -----------------------------------------------


def test_apply_homomorphic():
    assert Subst({"y": zero}).apply(ADD(zero, y)) == ADD(zero, zero)


def test_apply_identity():
    t = ADD(S(x), y)
    assert Subst().apply(t) == t


def test_apply_duplicates_shared_variable():
    sigma = Subst({"x": S(S(zero))})
    assert sigma.apply(ADD(x, x)) == ADD(S(S(zero)), S(S(zero)))


def test_restrict_keeps_requested_names():
    assert Subst({"x": zero, "y": S(zero)}).restrict({"x"}) == Subst({"x": zero})


def test_restrict_to_empty_is_identity():
    assert Subst({"x": zero}).restrict(set()) == Subst()


def test_restrict_spec_example():
    sigma = Subst({"m": nat(4), "x": zero, "z": nat(2)})
    assert sigma.restrict({"m", "x"}) == Subst({"m": nat(4), "x": zero})


def test_union_of_disjoint_substitutions():
    got = Subst({"w": nat(2)}).union(Subst({"m": nat(4), "x": zero}))
    assert got == Subst({"w": nat(2), "m": nat(4), "x": zero})


def test_union_with_identity():
    sigma = Subst({"x": zero})
    assert Subst().union(sigma) == sigma


def test_union_overlap_rejected():
    with pytest.raises(OverlappingDomains):
        Subst({"x": zero}).union(Subst({"x": S(zero)}))


def test_identity_bindings_dropped():
    assert Subst({"x": Var("x"), "y": zero}).domain == frozenset({"y"})


# --- term classification ----------------------------------------------------


def test_groundness():
    assert is_ground(ADD(zero, S(zero)))
    assert not is_ground(ADD(zero, y))


def test_constructor_and_basic_terms():
    assert is_constructor_term(S(S(zero)))
    assert not is_constructor_term(ADD(zero, zero))
    assert is_basic_term(ADD(S(zero), zero))
    assert not is_basic_term(ADD(ADD(zero, zero), zero))
    assert not is_basic_term(S(zero))


def _subterms(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack.extend(u.args)


def assert_constructor_flags(t):
    for u in _subterms(t):
        assert is_constructor_term(u) == ref_is_constructor_term(u), u
        if isinstance(u, App):
            assert u.constructor == ref_is_constructor_term(u), u


flagged_terms = st.recursive(
    st.sampled_from([zero, x, y, Symbol("tuple#0", 0)(), Symbol("k", 0, DEFINED)()]),
    lambda kids: st.one_of(
        st.builds(lambda a: S(a), kids),
        st.builds(lambda a, b: C(a, b), kids, kids),
        st.builds(lambda a, b: F(a, b), kids, kids),
        st.builds(lambda a, b: Symbol("tuple#2", 2)(a, b), kids, kids),
        st.builds(lambda a: Symbol("t#1", 1)(a), kids),
    ),
    max_leaves=8,
)


@given(flagged_terms)
def test_constructor_flag_matches_reference(t):
    assert_constructor_flags(t)
    sigma = Subst({"v": t, "w": zero})
    assert sigma.is_constructor == ref_is_constructor_term(t)


@given(st.sampled_from([ZERO, S, C, F, Symbol("tuple#2", 2), Symbol("k", 0, DEFINED)]), st.data())
def test_assemble_builds_what_app_builds(symbol, data):
    # App(...) checks its arguments and works out the flags; assemble takes
    # them as given. Both must make the same frozen node.
    args = tuple(data.draw(flagged_terms) for _ in range(symbol.arity))
    made = App(symbol, args)
    flags = ref_flags(made)
    built = assemble(symbol, args, *flags)
    assert made.__class__ is App and built.__class__ is App
    assert (made.ground, made.constructor) == (built.ground, built.constructor) == flags
    assert made == built and built == made and hash(made) == hash(built)
    assert built.symbol is symbol and built.args is args


def test_constructor_flag_matches_reference_on_the_corpus():
    checked = 0
    for path in sorted(CORPUS_DIR.glob("*.trs")):
        system = load(path.name)
        pc = system if system.is_pcdctrs else to_pcdctrs(system)[0]
        forward = injectivize(pc)
        for s in (system, pc, forward, invert(forward)):
            for rule in s.rules:
                sides = [rule.lhs, rule.rhs]
                for c in rule.conditions:
                    sides += [c.lhs, c.rhs]
                for t in sides:
                    assert_constructor_flags(t)
                    # Read back against the original system: variables
                    # become constants, unknown names constructors.
                    assert_constructor_flags(parse_term(format_term(t), system))
                    checked += 1
    assert checked > 300


def test_positions_printing():
    assert format_position(()) == "e"
    assert format_position((1, 2)) == "1.2"
    assert parse_position("e") == ()
    assert parse_position("1.2") == (1, 2)


def test_format_term_plain_and_sugar():
    cons, nil = Symbol("cons", 2), Symbol("nil", 0)
    lst = cons(zero, cons(S(zero), nil()))
    assert format_term(lst) == "cons(0,cons(s(0),nil))"
    assert format_term(lst, sugar=True) == "[0, s(0)]"
    tup = Symbol("tuple#2", 2)(zero, lst)
    assert format_term(tup, sugar=True) == "(0, [0, s(0)])"


def test_format_term_sugar_on_chains_that_do_not_end_in_nil():
    cons, nil = Symbol("cons", 2), Symbol("nil", 0)
    assert format_term(cons(zero, cons(S(zero), x)), sugar=True) == "cons(0,cons(s(0),x))"
    # Lists inside an improper chain, and an improper chain inside a list.
    mixed = cons(cons(zero, nil()), cons(nil(), cons(cons(zero, y), Symbol("tuple#2", 2)(x, nil()))))
    assert format_term(mixed, sugar=True) == "cons([0],cons([],cons(cons(0,y),(x, []))))"
    assert format_term(cons(mixed, nil()), sugar=True) == (
        "[cons([0],cons([],cons(cons(0,y),(x, []))))]"
    )
    long = x
    for _ in range(4000):
        long = cons(zero, long)
    assert format_term(long, sugar=True) == "cons(0," * 4000 + "x" + ")" * 4000


# --- property tests ---------------------------------------------------------


def _terms(with_vars: bool):
    leaves = [zero] + ([x, y, z] if with_vars else [])
    return st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.one_of(
            st.builds(lambda a: S(a), kids),
            st.builds(lambda a, b: C(a, b), kids, kids),
        ),
        max_leaves=6,
    )


ground_terms = _terms(with_vars=False)
pattern_terms = _terms(with_vars=True)


@given(pattern_terms, st.data())
def test_replace_of_own_subterm_is_identity(t, data):
    p = data.draw(st.sampled_from(list(positions(t))))
    assert replace(t, p, subterm(t, p)) == t


@given(pattern_terms, st.dictionaries(st.sampled_from(["x", "y", "z"]), ground_terms))
def test_match_recovers_applied_substitution(pattern, bindings):
    sigma = Subst(bindings)
    subject = sigma.apply(pattern)
    if not is_ground(subject):
        return
    got = match(pattern, subject)
    assert got is not None
    assert got.apply(pattern) == subject
    assert got == sigma.restrict(term_vars(pattern))


@given(pattern_terms, ground_terms, st.data())
def test_apply_distributes_over_replace(t, u, data):
    sigma = Subst(data.draw(st.dictionaries(st.sampled_from(["x", "y", "z"]), ground_terms)))
    p = data.draw(st.sampled_from(list(positions(t))))
    assert sigma.apply(replace(t, p, u)) == replace(sigma.apply(t), p, sigma.apply(u))


@settings(max_examples=60)
@given(pattern_terms, pattern_terms)
def test_unify_postconditions(s, t):
    theta = unify(s, t)
    if theta is None:
        return
    assert theta.apply(s) == theta.apply(t)
    for name in theta.domain:
        bound = theta.get(name)
        assert theta.apply(bound) == bound, "mgu must be idempotent"


def _pattern_universe() -> list:
    leaves = [zero, x, y]
    depth2 = leaves + [S(a) for a in leaves] + [C(a, b) for a in leaves for b in leaves]
    return depth2


def _ground_universe() -> list:
    t1 = [zero]
    t2 = t1 + [S(a) for a in t1] + [C(a, b) for a in t1 for b in t1]
    t3 = t2 + [S(a) for a in t2] + [C(a, b) for a in t2 for b in t2]
    return list(dict.fromkeys(t3))


def test_unify_against_brute_force_enumeration():
    """Exhaustive cross-check: failure must mean no ground unifier exists in
    the universe, success must cover every enumerated ground unifier."""
    patterns = _pattern_universe()
    universe = _ground_universe()
    checked = 0
    for s in patterns:
        for t in patterns:
            witnesses = ground_unifiers(s, t, universe)
            theta = unify(s, t)
            if theta is None:
                assert not witnesses, (s, t)
            else:
                assert theta.apply(s) == theta.apply(t)
                for sigma in witnesses:
                    assert match(theta.apply(s), sigma.apply(s)) is not None, (s, t, sigma)
            checked += 1
    assert checked == len(patterns) ** 2


def test_unify_brute_force_deep_cases():
    deep = [
        (C(x, S(S(zero))), C(S(S(zero)), x)),
        (S(S(S(x))), S(S(S(S(zero))))),
        (C(x, x), C(S(y), S(zero))),
        (C(S(x), C(x, y)), C(y, C(zero, S(zero)))),
    ]
    universe = _ground_universe()
    for s, t in deep:
        theta = unify(s, t)
        witnesses = ground_unifiers(s, t, universe)
        if theta is None:
            assert not witnesses
        else:
            for sigma in witnesses:
                assert match(theta.apply(s), sigma.apply(s)) is not None


def test_app_is_an_immutable_slotted_node():
    # App is a hand-written slot class: built as the dataclass it replaces
    # was (positional or keyword, args from any iterable, arity checked),
    # and frozen like it.
    from dataclasses import FrozenInstanceError

    f, a = Symbol("f", 2, DEFINED), Symbol("a", 0)
    x = App(a)
    t = App(symbol=f, args=[x, Var("y")])
    assert t.args == (x, Var("y")) and t.args.__class__ is tuple
    assert (t.ground, t.constructor, x.ground, x.constructor) == (False, False, True, True)
    assert not hasattr(t, "__dict__")
    for name in ("symbol", "args", "ground", "constructor", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, x)
        with pytest.raises(FrozenInstanceError):
            delattr(t, name)
    assert t.args == (x, Var("y")) and t.ground is False
    with pytest.raises(ValueError, match=r"^symbol f/2 applied to 1 arguments$"):
        App(f, (x,))
    assert App(f, (x, x)) == App(f, [App(a), App(a)]) and hash(App(f, (x, x))) == hash(App(f, (App(a), x)))
    assert repr(t) == "f(a,y)"


# --- the iterative walkers against their recursive references -----------------


@examples(200)
@given(pattern_terms, pattern_terms, st.dictionaries(st.sampled_from(["x", "y", "z"]), pattern_terms))
def test_walkers_agree_with_their_recursive_references(s, t, bindings):
    assert list(positions(t)) == list(ref_positions(t))
    sigma = Subst(bindings)
    got, want = sigma.apply(t), ref_apply(sigma, t)
    assert got == want
    assert (is_ground(got), is_constructor_term(got)) == (is_ground(want), is_constructor_term(want))
    # The same mgu, binding for binding.
    assert unify(s, t) == ref_unify(s, t)
    assert unify(sigma.apply(s), t) == ref_unify(ref_apply(sigma, s), t)


def _deep(depth: int, leaf) -> App:
    t = leaf
    for _ in range(depth):
        t = S(t)
    return t


def test_walkers_take_terms_past_the_recursion_limit():
    depth = 5000
    deep_x = _deep(depth, x)
    ps = positions(C(deep_x, zero))
    assert next(ps) == (1,) * (depth + 1)
    assert sum(1 for _ in ps) == depth + 2
    assert Subst({"x": zero}).apply(deep_x) == nat(depth)
    assert Subst({"x": deep_x}).apply(deep_x) == _deep(2 * depth, x)
    assert unify(deep_x, nat(depth)) == Subst({"x": zero})
    # y resolves through x's binding: C(s^n(s^n(0)), s^n(0)).
    theta = unify(C(x, y), C(_deep(depth, y), nat(depth)))
    assert theta == Subst({"x": nat(2 * depth), "y": nat(depth)})
    assert unify(deep_x, _deep(depth, S(x))) is None

from __future__ import annotations

import pytest

from revrw import (
    BoundExceeded,
    Bounds,
    PreconditionViolated,
    Subst,
    first_step,
    normalize,
    parse_system,
    parse_term,
    solve_conditions,
    step,
    subterm,
    replace,
)

from .oracles import basic_terms

PC_ADDMULT = """
(VAR x y z w)
(CONDITIONTYPE ORIENTED)
(RULES
  add(0,y) -> y
  add(s(x),y) -> s(z) | add(x,y) == z
  mult(0,y) -> 0
  mult(s(x),y) -> w | mult(x,y) == z, add(z,y) == w
)
"""


@pytest.fixture(scope="module")
def addmult_pc():
    return parse_system(PC_ADDMULT)


def nat(system, n):
    return parse_term("s(" * n + "0" + ")" * n, system)


# --- solve_conditions -------------------------------------------------------


def test_solve_conditions_even_holds(double_sys):
    rule = double_sys.rule_by_label("b3")
    sigma0 = Subst({"x": nat(double_sys, 2)})
    assert solve_conditions(double_sys, rule, sigma0) == sigma0


def test_solve_conditions_binds_extra_variable(addmult_pc):
    rule = addmult_pc.rule_by_label("b2")
    sigma0 = Subst({"x": nat(addmult_pc, 0), "y": nat(addmult_pc, 1)})
    got = solve_conditions(addmult_pc, rule, sigma0)
    assert got == Subst({"x": nat(addmult_pc, 0), "y": nat(addmult_pc, 1), "z": nat(addmult_pc, 1)})


def test_solve_conditions_fails_on_odd_argument(double_sys):
    rule = double_sys.rule_by_label("b3")
    assert solve_conditions(double_sys, rule, Subst({"x": nat(double_sys, 1)})) is None


def test_solve_conditions_without_an_lhs_binding_names_the_open_condition(addmult_pc):
    # The rule is compiled against sigma0's domain: mult(x,y) == z needs x.
    rule = addmult_pc.rule_by_label("b4")
    with pytest.raises(PreconditionViolated) as err:
        solve_conditions(addmult_pc, rule, Subst({"y": nat(addmult_pc, 1)}))
    assert str(err.value) == (
        "rule b4: condition lhs mult(x,s(0)) is not ground under the accumulated "
        "substitution (system is not deterministic)"
    )


# --- step -------------------------------------------------------------------


def test_step_double_single_root_witness(double_sys):
    t = parse_term("double(s(s(0)))", double_sys)
    witnesses = step(double_sys, t, "innermost")
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.rule_label == "b3" and w.position == ()
    assert w.result == parse_term("add(s(s(0)),s(s(0)))", double_sys)
    assert len(w.sub_witnesses) == 1 and len(w.sub_witnesses[0]) == 2


def test_step_constructor_normal_form(double_sys):
    assert step(double_sys, nat(double_sys, 4), "innermost") == []


def test_step_mult_top_with_sub_witnesses(addmult_pc):
    t = parse_term("mult(s(0),s(0))", addmult_pc)
    witnesses = step(addmult_pc, t, "top")
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.result == nat(addmult_pc, 1)
    first, second = w.sub_witnesses
    assert [x.rule_label for x in first] == ["b3"]
    assert [x.rule_label for x in second] == ["b1"]


def test_witness_soundness_invariants(corpus):
    for system in corpus.values():
        for t in basic_terms(system, 3, cap_per_function=25):
            for w in step(system, t, "innermost"):
                rule = system.rule_by_label(w.rule_label)
                assert w.sigma.apply(rule.lhs) == subterm(t, w.position)
                assert w.result == replace(t, w.position, w.sigma.apply(rule.rhs))


def test_step_order_is_leftmost_innermost_then_rule_order(addfst):
    t = parse_term("fst(add(0,0),add(0,0))", addfst)
    labels = [(w.position, w.rule_label) for w in step(addfst, t, "any")]
    assert labels == [((1,), "b1"), ((2,), "b1"), ((), "b3")]


# --- normalize --------------------------------------------------------------


def test_normalize_double(double_sys):
    t = parse_term("double(s(s(0)))", double_sys)
    assert normalize(double_sys, t, "innermost") == nat(double_sys, 4)


def test_normalize_constructor_is_fixpoint(double_sys):
    assert normalize(double_sys, nat(double_sys, 0)) == nat(double_sys, 0)


def test_normalize_loop_exceeds_bound():
    loop = parse_system("(RULES f -> f)")
    with pytest.raises(BoundExceeded):
        normalize(loop, parse_term("f", loop), bounds=Bounds(max_steps=50))


def test_conditional_loop_exceeds_depth_bound():
    system = parse_system("(VAR y)(CONDITIONTYPE ORIENTED)(RULES f(0) -> 0 | f(0) == y)")
    with pytest.raises(BoundExceeded):
        normalize(system, parse_term("f(0)", system), bounds=Bounds(max_depth=10))


# --- innermost on the source system vs top reduction on its flattened form ----


def test_innermost_on_trs_equals_top_on_pcdctrs(addmult, addmult_pc):
    from revrw.terms import is_constructor_term

    checked = 0
    for name in ("add", "mult"):
        sym = addmult.signature[name]
        for i in range(5):
            for j in range(5):
                t = sym(nat(addmult, i), nat(addmult, j))
                lhs = normalize(addmult, t, "innermost")
                rhs = normalize(addmult_pc, parse_term(repr(t), addmult_pc), "top")
                if is_constructor_term(lhs):
                    assert repr(lhs) == repr(rhs)
                    checked += 1
    assert checked == 50


# --- strategy refinements ----------------------------------------------------


def _witness_keys(ws):
    return {(w.position, w.rule_label, w.sigma) for w in ws}


def test_constructor_steps_are_innermost_steps(corpus):
    for system in corpus.values():
        for t in basic_terms(system, 3, cap_per_function=40):
            cons = _witness_keys(step(system, t, "constructor"))
            inner = _witness_keys(step(system, t, "innermost"))
            assert cons <= inner


def test_top_steps_are_constructor_steps_on_pcdctrs(corpus):
    # Scoped to terms whose top reduction reaches a constructor normal form:
    # on stuck inputs a top step may bind a condition variable to an
    # irreducible defined call (the h(1) effect), which constructor reduction
    # refuses by design.
    from revrw import to_pcdctrs
    from revrw.terms import is_constructor_term

    checked = 0
    for system in corpus.values():
        pc = system if system.is_pcdctrs else to_pcdctrs(system)[0]
        for t in basic_terms(pc, 3, cap_per_function=40):
            if not is_constructor_term(normalize(pc, t, "top")):
                continue
            top = _witness_keys(step(pc, t, "top"))
            cons = _witness_keys(step(pc, t, "constructor"))
            assert top <= cons
            checked += 1
    assert checked > 100


def test_top_determinism_on_nonoverlapping_pcdctrs(addmult_pc):
    for t in basic_terms(addmult_pc, 4):
        assert len(step(addmult_pc, t, "top")) <= 1


# --- stuck condition bindings separate top from constructor reduction ---------


def test_first_stuck_call_separates_top_from_constructor(firstfail):
    t = parse_term("f(2,1)", firstfail)
    top = first_step(firstfail, t, "top")
    assert top is not None and repr(top.result) == "2"
    h1 = parse_term("h(1)", firstfail)
    assert top.sigma.get("w") == h1
    assert step(firstfail, t, "constructor") == []
    inner = first_step(firstfail, t, "innermost")
    assert inner is not None and repr(inner.result) == "2"


def test_step_rejects_non_ground_terms(addfst):
    from revrw import NotGround
    from revrw.terms import Var

    with pytest.raises(NotGround):
        step(addfst, addfst.signature["add"](Var("x"), Var("y")))


def test_unknown_strategy_is_a_value_error(double_sys):
    term = parse_term("double(s(0))", double_sys)
    message = "unknown strategy 'outermost'; expected one of ('any', 'innermost', 'constructor', 'top')"
    for call in (step, first_step, normalize):
        with pytest.raises(ValueError) as err:
            call(double_sys, term, "outermost")
        assert type(err.value) is ValueError and str(err.value) == message


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        Bounds(max_steps=0)
    with pytest.raises(ValueError):
        Bounds(max_depth=0)


def test_mult_top_sub_witness_results(addmult_pc):
    t = parse_term("mult(s(0),s(0))", addmult_pc)
    w = step(addmult_pc, t, "top")[0]
    first, second = w.sub_witnesses
    assert repr(first[0].result) == "0"
    assert repr(second[0].result) == "s(0)"


def test_witness_repr_separates_its_sub_derivations(addmult_pc):
    t = parse_term("mult(s(0),s(0))", addmult_pc)
    w = step(addmult_pc, t, "top")[0]
    assert repr(w) == (
        "StepWitness(position=(), rule_label='b4', sigma={w -> s(0), x -> 0, y -> s(0), z -> 0}, "
        "result=s(0), sub_witnesses=((StepWitness(position=(), rule_label='b3', sigma={y -> s(0)}, "
        "result=0, sub_witnesses=()),), (StepWitness(position=(), rule_label='b1', "
        "sigma={y -> s(0)}, result=s(0), sub_witnesses=()),)))"
    )


@pytest.mark.parametrize("strategy", ["any", "innermost", "constructor", "top"])
def test_a_condition_whose_normal_form_is_not_ground_is_rejected(strategy):
    # f(x) -> y is not a 3CTRS rule: called in g's condition, it leaves the
    # variable y as the condition's value, which cannot be matched.
    from revrw import NotGround

    system = parse_system("(VAR x y z)(RULES f(x) -> y  g(x) -> z | f(x) == z)")
    with pytest.raises(NotGround) as err:
        normalize(system, parse_term("g(0)", system), strategy)
    assert type(err.value) is NotGround and str(err.value) == "match subject must be ground: y"

"""A rule's variable sets and safety domain are worked out once, on the rule,
and a system classifies the four properties in one pass over its rules:
both checked against the references in `tests/oracles.py`, which walk the
rule's terms again for every condition and every property."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import revrw.systems
from revrw import (
    App,
    Condition,
    PreconditionViolated,
    RewriteSystem,
    Rule,
    Var,
    injectivize,
    injectivize_improved,
    invert,
    parse_system,
    safety_domain,
    to_pcdctrs,
    validate,
)
from revrw.systems import PROPERTIES
from revrw.terms import CONSTRUCTOR, DEFINED, Symbol

from .conftest import CORPUS_DIR, examples, load
from .oracles import ref_safety_domain, ref_validate

ALL_CORPUS_FILES = sorted(path.name for path in CORPUS_DIR.glob("*.trs"))


def assert_same_facts(system: RewriteSystem) -> None:
    for p in PROPERTIES:
        assert validate(system, p) == ref_validate(system, p), p
    for r in system.rules:
        assert safety_domain(r) == ref_safety_domain(r), r


def flattened_chain(n: int) -> RewriteSystem:
    """The pcDCTRS of g(x) -> x [b1] and f(x) -> g^n(x) [b2], whose rule b2
    has n conditions."""
    system = parse_system("(VAR x)(RULES g(x) -> x  f(x) -> " + "g(" * n + "x" + ")" * n + ")")
    return to_pcdctrs(system)[0]


@pytest.mark.parametrize("name", ALL_CORPUS_FILES)
def test_facts_equal_the_references_on_every_corpus_system_and_stage(name):
    system = load(name)
    assert_same_facts(system)
    try:
        pc, report = to_pcdctrs(system)
    except PreconditionViolated:
        return
    for stage in report.stages:
        assert_same_facts(stage.output_system)
    forwards = [injectivize(pc)]
    try:
        forwards.append(injectivize_improved(pc, system))
    except PreconditionViolated:
        pass
    for forward in forwards:
        assert_same_facts(forward)
        assert_same_facts(invert(forward))


def test_facts_equal_the_references_on_a_long_flattened_chain():
    pc = flattened_chain(200)
    assert len(pc.rule_by_label("b2").conditions) == 200
    assert_same_facts(pc)


# A small signature: two defined symbols and three constructors. Terms use
# variables a rule's lhs binds (x, y) and ones it does not (u, v), so that
# rhs's with extra variables, conditions with unbound ones, non-basic lhs's
# and non-constructor condition sides all occur.
_DEFINED = (Symbol("f", 1, DEFINED), Symbol("g", 2, DEFINED))
_CONSTRUCTORS = (Symbol("c", 0, CONSTRUCTOR), Symbol("s", 1, CONSTRUCTOR), Symbol("p", 2, CONSTRUCTOR))
_VARS = tuple(Var(n) for n in "xyuv")


def _terms(symbols, leaves):
    def apply(kids):
        return st.sampled_from(symbols).flatmap(
            lambda sym: st.tuples(*[kids] * sym.arity).map(lambda args: App(sym, args))
        )

    return st.recursive(st.sampled_from(leaves), apply, max_leaves=5)


_any_terms = _terms(_DEFINED + _CONSTRUCTORS, [*_VARS, App(_CONSTRUCTORS[0])])
_lhs_args = _terms(_DEFINED + _CONSTRUCTORS, [Var("x"), Var("y"), App(_CONSTRUCTORS[0])])


@st.composite
def _rules(draw, label: str) -> Rule:
    root = draw(st.sampled_from(_DEFINED))
    lhs = App(root, tuple(draw(_lhs_args) for _ in range(root.arity)))
    conditions = draw(st.lists(st.builds(Condition, _any_terms, _any_terms), max_size=3))
    return Rule(label, lhs, draw(_any_terms), tuple(conditions))


@examples(300)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(_rules(f"r{i}") for i in range(1, n + 1)))))
def test_facts_equal_the_references_on_drawn_rules(rules):
    assert_same_facts(RewriteSystem(rules))


def counting_vars_of(monkeypatch) -> list[int]:
    """Patch the walk a rule's facts use; the list gets the number of terms
    handed to each call."""
    original = revrw.systems.vars_of
    handed: list[int] = []

    def counting(*terms):
        handed.append(len(terms))
        return original(*terms)

    monkeypatch.setattr(revrw.systems, "vars_of", counting)
    return handed


@pytest.mark.parametrize("n", [0, 1, 5, 100])
def test_a_safety_domain_walks_each_term_once_and_then_none(monkeypatch, n):
    chain = flattened_chain(n).rule_by_label("b2")
    rule = Rule(chain.label, chain.lhs, chain.rhs, chain.conditions)
    handed = counting_vars_of(monkeypatch)
    domain = safety_domain(rule)
    assert sum(handed) == 2 + 2 * n
    handed.clear()
    assert safety_domain(rule) is domain
    assert rule.var_sets is rule.var_sets
    assert handed == []


def test_facts_take_no_part_in_equality_hash_or_repr():
    rule = flattened_chain(3).rule_by_label("b2")
    fresh = Rule(rule.label, rule.lhs, rule.rhs, rule.conditions)
    text = repr(fresh)
    safety_domain(rule)
    assert fresh == rule and hash(fresh) == hash(rule)
    assert repr(fresh) == repr(rule) == text


@pytest.mark.parametrize("name", ["addmult.trs", "view.trs", "needvars.trs", "zip.trs"])
def test_classifying_rules_whose_facts_are_known_walks_no_term(monkeypatch, name):
    system = load(name)
    for r in system.rules:
        r.var_sets
    handed = counting_vars_of(monkeypatch)
    reports = [validate(system, p) for p in PROPERTIES]
    again = RewriteSystem(system.rules)
    # A system rebuilt from the same rules keeps their facts.
    assert [validate(again, p) for p in PROPERTIES] == reports
    assert (again.is_trs, again.is_pcdctrs) == (system.is_trs, system.is_pcdctrs)
    assert handed == []


def test_a_system_classifies_all_four_properties_in_one_pass(monkeypatch):
    original = revrw.systems._classify
    passes = []
    monkeypatch.setattr(revrw.systems, "_classify", lambda rules: passes.append(rules) or original(rules))
    system = load("double.trs")
    flags = (system.is_3ctrs, system.is_dctrs, system.is_constructor_system, system.is_pcdctrs)
    assert [validate(system, p).ok for p in PROPERTIES] == list(flags)
    assert passes == [system.rules]
    with pytest.raises(ValueError) as err:
        validate(system, "nonsense")
    assert str(err.value) == "unknown property 'nonsense'"

"""Raise sites that only hand-built or near-miss inputs reach: each error's
text, and the CLI's exit code where a command meets it."""

from __future__ import annotations

import re

import pytest

from revrw import (
    App,
    ArityConflict,
    Condition,
    DuplicateLabel,
    PreconditionViolated,
    RewriteSystem,
    Rule,
    ShapeViolated,
    Symbol,
    Var,
    injectivize_improved,
    invert,
    is_injectivized,
    parse_system,
    to_pcdctrs,
)
from revrw.cli import main

from .conftest import load


# Near-injectivized systems, one rejection of `_injective_shape` each.
NEAR_INJECTIVIZED = [
    ("lhs-not-injective", "add(0,y) -> tuple#2(y,b1)"),
    ("rhs-variable", "add^i(0,y) -> y"),
    ("rhs-not-a-pair", "add^i(0,y) -> tuple#3(y,b1,b1)"),
    ("condition-lhs-not-injective", "add^i(s(x),y) -> tuple#2(s(z),b2(w)) | add(x,y) == tuple#2(z,w)"),
    ("condition-rhs-not-a-pair", "add^i(s(x),y) -> tuple#2(s(z),b2(w)) | add^i(x,y) == pair(z,w)"),
    ("condition-trace-not-a-variable", "add^i(s(x),y) -> tuple#2(s(z),b2(w)) | add^i(x,y) == tuple#2(z,b1)"),
    ("bare-trace-without-one-condition", "add^i(0,y) -> tuple#2(y,y)"),
    ("bare-trace-not-the-condition-trace", "add^i(s(x),y) -> tuple#2(s(z),y) | add^i(x,y) == tuple#2(z,w)"),
    ("generated-trace-symbol", "add^i(0,y) -> tuple#2(y,tuple#1(y))"),
    ("trace-argument-not-a-variable", "add^i(0,y) -> tuple#2(y,b1(0))"),
    ("trace-tail-not-the-condition-traces", "add^i(s(x),y) -> tuple#2(s(z),b2(x)) | add^i(x,y) == tuple#2(z,w)"),
]


@pytest.mark.parametrize("rule", [case[1] for case in NEAR_INJECTIVIZED], ids=[case[0] for case in NEAR_INJECTIVIZED])
def test_near_injectivized_systems_are_rejected(rule, tmp_path, capsys):
    text = f"(VAR x y z w)\n(RULES\n  {rule} [b1]\n)\n"
    system = parse_system(text, allow_reserved=True)
    assert not is_injectivized(system)
    with pytest.raises(ShapeViolated) as caught:
        invert(system)
    assert str(caught.value) == f"rule b1 is not injectivization-shaped: {rule} [b1]"
    # The CLI then reads the file as a system to transform, which may not
    # use generated names.
    path = tmp_path / "near.trs"
    path.write_text(text)
    code = main(["invert", str(path)])
    err = capsys.readouterr().err
    first = next(m for m in re.finditer(r"[\w']+(\^i|#\d+)", rule))
    assert code == 2
    assert err == (
        f"revrw: parse error: symbol name {first.group()!r} is reserved for generated symbols "
        f"(line 3, column {first.start() + 3})\n"
    )


def test_improved_injectivization_needs_every_label_in_its_origin():
    text = "(VAR x y)(RULES add(0,y) -> y [a1]\n add(s(x),y) -> s(add(x,y)) [a2])"
    pc, _ = to_pcdctrs(parse_system(text))
    with pytest.raises(PreconditionViolated) as caught:
        injectivize_improved(pc, load("addmult.trs"))
    assert str(caught.value) == "origin has no rule labelled 'a1'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("(VAR x y)(RULES f(x) -> y | g(y) == x\n g(x) -> x)", "input is not a DCTRS"),
        ("(VAR x y)(RULES f(x) -> y | x == g(y)\n g(x) -> x)",
         "rule b1: condition rhs g(y) is not a constructor term"),
    ],
    ids=["not-a-dctrs", "defined-condition-rhs"],
)
def test_to_pcdctrs_rejects_what_it_cannot_flatten(text, message, tmp_path, capsys):
    with pytest.raises(PreconditionViolated) as caught:
        to_pcdctrs(parse_system(text))
    assert str(caught.value) == message
    path = tmp_path / "in.trs"
    path.write_text(text)
    code = main(["flatten", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"revrw: PreconditionViolated: {message}\n"


def test_hand_built_duplicate_label_keeps_its_text():
    rule = Rule("r", App(Symbol("f", 0)), App(Symbol("a", 0)))
    with pytest.raises(DuplicateLabel) as err:
        RewriteSystem([rule, rule])
    assert str(err.value) == "duplicate rule label 'r'"


def _arity_conflict(*rules: Rule) -> str:
    with pytest.raises(ArityConflict) as err:
        RewriteSystem(rules)
    return str(err.value)


def test_hand_built_arity_conflicts_keep_their_text():
    x = Var("x")
    f1, f2 = Symbol("f", 1), Symbol("f", 2)
    s1, s2 = Symbol("s", 1), Symbol("s", 2)
    # At a root: the rhs root f/2 after the lhs root f/1.
    assert _arity_conflict(Rule("a", App(f1, (x,)), App(f2, (x, x)))) == (
        "symbol 'f' used with arities 1 and 2"
    )
    # Below a subterm the walk keeps: s/2 under three s/1 that are their
    # name's entry.
    deep = App(s2, (x, x))
    for _ in range(3):
        deep = App(s1, (deep,))
    assert _arity_conflict(Rule("a", App(f1, (App(s1, (x,)),)), deep)) == (
        "symbol 's' used with arities 1 and 2"
    )
    # Across two rules, in a condition of the second.
    assert _arity_conflict(
        Rule("a", App(f1, (App(s1, (x,)),)), x),
        Rule("b", App(Symbol("g", 1), (x,)), x, (Condition(App(s2, (x, x)), x),)),
    ) == "symbol 's' used with arities 1 and 2"
    # A kept entry (the constructor c/1, met first) against a node of a term
    # that is rebuilt (g below its root is defined), and a new entry (f/1,
    # parsed as a constructor but defined) against a node of a kept term.
    c1, c2, g = Symbol("c", 1), Symbol("c", 2), Symbol("g", 1)
    assert _arity_conflict(
        Rule("a", App(g, (x,)), App(c1, (x,))), Rule("b", App(f1, (x,)), App(c1, (App(g, (App(c2, (x, x)),)),)))
    ) == "symbol 'c' used with arities 1 and 2"
    assert _arity_conflict(Rule("a", App(f1, (x,)), App(c1, (App(f2, (x, x)),)))) == (
        "symbol 'f' used with arities 1 and 2"
    )


def test_a_step_witness_of_a_rule_the_system_lacks_is_an_unknown_label():
    from revrw import StepWitness, UnknownLabel, parse_term, step
    from revrw.reversible import witness_trace_term

    source = parse_system("(VAR x)(RULES f(x) -> x [b9])")
    other = parse_system("(VAR x)(RULES g(x) -> x [b1])")
    w = step(source, parse_term("f(0)", source))[0]
    # The engine's witness, and one built from its substitution.
    for witness in (w, StepWitness(w.position, w.rule_label, w.sigma, w.result, ())):
        with pytest.raises(UnknownLabel) as err:
            witness_trace_term(other, witness)
        assert str(err.value) == "step witness references unknown rule label 'b9'"

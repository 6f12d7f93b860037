from __future__ import annotations

from functools import cache

import pytest

from revrw import (
    ArityConflict,
    DuplicateLabel,
    ParseError,
    PreconditionViolated,
    ReservedName,
    RewriteSystem,
    Rule,
    Var,
    format_system,
    format_trace,
    injectivize,
    injectivize_improved,
    invert,
    parse_system,
    parse_term,
    parse_trace,
    safety_domain,
    to_pcdctrs,
    validate,
)
from revrw.terms import CONSTRUCTOR, DEFINED, Symbol

from .conftest import CORPUS_DIR, CORPUS_FILES, load
from .oracles import ref_signature

ALL_CORPUS_FILES = sorted(path.name for path in CORPUS_DIR.glob("*.trs"))


def test_parse_add_trs():
    system = parse_system(
        "(VAR x y)(RULES add(0,y) -> y  add(s(x),y) -> s(add(x,y)))"
    )
    assert [r.label for r in system.rules] == ["b1", "b2"]
    assert system.is_trs
    assert system.defined_symbols == {"add"}
    constructors = {s.name for s in system.signature.values() if s.kind == CONSTRUCTOR}
    assert constructors == {"0", "s"}


def test_parse_conditional_rule(double_sys):
    conditional = [r for r in double_sys.rules if r.conditions]
    assert len(conditional) == 1
    assert conditional[0].label == "b3"
    assert double_sys.is_dctrs and not double_sys.is_trs


def test_parse_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_system("(RULES f(x -> x)")
    assert err.value.line is not None


def test_parse_error_location_on_later_lines():
    text = "(VAR x y)\n(RULES\n  f(x) -> x\n  g(x, y) -> @\n)"
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.line, err.value.column) == (4, 14)
    assert str(err.value) == "unexpected character '@' (line 4, column 14)"
    with pytest.raises(ParseError) as err:
        parse_system("(VAR x)\n\n(RULES\n\tf(x) x)")
    assert (err.value.line, err.value.column) == (4, 7)
    assert str(err.value) == "expected ->, found 'x' (line 4, column 7)"
    with pytest.raises(ParseError) as err:
        parse_trace("[b1(e, {}),\n b2(1.2, {}),\n\n b3(1, {x -> s(0)} y)]")
    assert (err.value.line, err.value.column) == (4, 20)
    assert str(err.value) == "expected RPAREN, found 'y' (line 4, column 20)"


def test_parse_explicit_labels_and_duplicates():
    system = parse_system("(VAR x)(RULES f(x) -> x [mine]\n g(x) -> x)")
    assert [r.label for r in system.rules] == ["mine", "b2"]
    with pytest.raises(DuplicateLabel):
        parse_system("(VAR x)(RULES f(x) -> x [same]\n g(x) -> x [same])")


def test_parse_arity_conflict():
    with pytest.raises(ArityConflict):
        parse_system("(VAR x)(RULES f(x) -> s(x)\n g(x) -> s(x,x))")


def test_parse_reserved_names_rejected_by_default():
    with pytest.raises(ReservedName):
        parse_system("(VAR _w1)(RULES f(_w1) -> _w1)")
    with pytest.raises(ReservedName):
        parse_system("(RULES f^i(0) -> 0)")
    with pytest.raises(ReservedName):
        parse_system("(RULES f(0) -> tuple#2(0,0))")
    assert parse_system("(RULES f^i(0) -> 0)", allow_reserved=True).rules


def test_parse_variable_applied_is_an_error():
    with pytest.raises(ParseError):
        parse_system("(VAR x)(RULES f(x) -> x(0))")


@pytest.mark.parametrize(
    "text, message",
    [
        ("(COMMENT never closed (RULES f(x) -> x)", "unterminated (COMMENT section"),
        ("(VAR x)(CONDITIONTYPE JOIN)(RULES f(x) -> x)", "unsupported condition type 'JOIN' (line 1, column 23)"),
        ("(VAR x)(RULES f(x) -> x)\n(RULES g(x) -> x)", "duplicate (RULES section (line 2, column 1)"),
        ("(VAR x)(STRATEGY INNERMOST)(RULES f(x) -> x)", "unknown section 'STRATEGY' (line 1, column 9)"),
        ("(VAR x)(RULES f(0) -> 0\n  x -> f(x))", "rule left-hand side is a variable (line 2, column 3)"),
    ],
    ids=["unterminated-comment", "condition-type", "duplicate-rules", "unknown-section", "variable-lhs"],
)
def test_parse_system_rejects_malformed_sections(text, message):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert type(err.value) is ParseError and str(err.value) == message


def test_parse_term_wants_exactly_one_term():
    with pytest.raises(ParseError) as err:
        parse_term("f(0), g(0)")
    assert type(err.value) is ParseError and str(err.value) == "expected one term, found 2"


def test_comment_sections_are_ignored():
    system = parse_system(
        "(COMMENT anything at all, even (nested) parens & *junk*!)\n"
        "(VAR x)(RULES f(x) -> x)"
    )
    assert len(system.rules) == 1


def test_list_sugar_in_rules():
    system = parse_system("(VAR x xs)(RULES head(cons(x,xs)) -> x\n mk -> [0, 1])")
    mk = system.rule_by_label("b2")
    cons = system.signature["cons"]
    nil = system.signature["nil"]
    z = system.signature["0"]
    one = system.signature["1"]
    assert mk.rhs == cons(z(), cons(one(), nil()))


# --- validation -------------------------------------------------------------


def test_validate_dctrs_passes_on_double(double_sys):
    assert validate(double_sys, "dctrs").ok


def test_validate_3ctrs_catches_unhoused_variable():
    f = Symbol("f", 1, DEFINED)
    system = RewriteSystem([Rule("b1", f(Var("x")), Var("y"))])
    report = validate(system, "3ctrs")
    assert not report.ok
    assert report.findings[0].rule_label == "b1"


def test_validate_pcdctrs_on_flattened_addmult():
    text = """
    (VAR x y z w)
    (CONDITIONTYPE ORIENTED)
    (RULES
      add(0,y) -> y
      add(s(x),y) -> s(z) | add(x,y) == z
      mult(0,y) -> 0
      mult(s(x),y) -> w | mult(x,y) == z, add(z,y) == w
    )
    """
    system = parse_system(text)
    assert validate(system, "pcdctrs").ok
    assert system.is_pcdctrs


def test_validate_determinism_clause():
    text = "(VAR x y z)(CONDITIONTYPE ORIENTED)(RULES f(x) -> z | g(y) == z)\n"
    system = parse_system(text)
    report = validate(system, "dctrs")
    assert not report.ok and "condition 1" in report.findings[0].message


def test_classification_monotonicity(corpus):
    for system in corpus.values():
        if validate(system, "pcdctrs").ok:
            assert validate(system, "dctrs").ok
        if validate(system, "dctrs").ok:
            assert validate(system, "3ctrs").ok


def test_signature_kinds_partition(corpus):
    for system in corpus.values():
        for name, sym in system.signature.items():
            expected = DEFINED if name in system.defined_symbols else CONSTRUCTOR
            assert sym.kind == expected
            assert (sym.kind == DEFINED) == (name in system.defined_symbols)


def test_unknown_property_rejected(addfst):
    with pytest.raises(ValueError):
        validate(addfst, "nonsense")


# --- format / round trip ----------------------------------------------------


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_parse_format_round_trip(name):
    system = load(name)
    again = parse_system(format_system(system), allow_reserved=True)
    assert again == system


def test_round_trip_empty_system():
    empty = RewriteSystem([])
    assert parse_system(format_system(empty)) == empty


def test_round_trip_injectivized_system(needvars):
    from revrw import injectivize

    forward = injectivize(needvars)
    again = parse_system(format_system(forward), allow_reserved=True)
    assert again == forward


def signature_rows(system: RewriteSystem) -> list[tuple[str, int, str]]:
    return [(name, sym.arity, sym.kind) for name, sym in system.signature.items()]


@cache
def corpus_and_transforms(name: str) -> tuple[RewriteSystem, ...]:
    """A corpus system, its pcDCTRS, both injectivizations (the improved one
    where the system qualifies) and their inverses."""
    system = load(name)
    pc, _ = to_pcdctrs(system)
    forward = injectivize(pc)
    out = [system, pc, forward, invert(forward)]
    try:
        improved = injectivize_improved(pc, system)
    except PreconditionViolated:
        return tuple(out)
    return (*out, improved, invert(improved))


@pytest.mark.parametrize("name", ALL_CORPUS_FILES)
def test_printed_system_reads_back_with_its_signature(name):
    # Names, order, arities and kinds: trace and tuple symbols come back as
    # the constructors they were.
    for system in corpus_and_transforms(name):
        again = parse_system(format_system(system), allow_reserved=True)
        assert signature_rows(again) == signature_rows(system)


@pytest.mark.parametrize("name", ALL_CORPUS_FILES)
def test_signature_matches_the_two_pass_classification(name):
    for system in corpus_and_transforms(name):
        assert signature_rows(system) == ref_signature(system.rules)


@pytest.mark.parametrize("name", ALL_CORPUS_FILES)
def test_safety_domains_are_those_of_the_rules(name):
    for system in corpus_and_transforms(name):
        domains = system.safety_domains
        assert domains == {r.label: safety_domain(r) for r in system.rules}
        assert system.safety_domains is domains


def test_parse_term_against_system(addfst):
    t = parse_term("fst(add(s(0),0),0)", addfst)
    assert t.symbol == addfst.signature["fst"]
    unknown = parse_term("r(book,12)", addfst)
    assert unknown.symbol.kind == CONSTRUCTOR


def test_parse_term_arity_checked_against_system(addfst):
    with pytest.raises(ArityConflict):
        parse_term("add(0)", addfst)


def test_parse_term_against_system_below_the_recursion_limit(addmult):
    depth = 900
    t = parse_term("s(" * depth + "add(0,r)" + ")" * depth, addmult)
    for _ in range(depth):
        assert t.symbol is addmult.signature["s"]
        t = t.args[0]
    assert t.symbol.kind == DEFINED
    assert t.args[1].symbol == Symbol("r", 0) and t.args[1].symbol.kind == CONSTRUCTOR


def test_parse_term_past_the_recursion_limit(addmult):
    depth = 5000
    t = parse_term("s(" * depth + "0" + ")" * depth, addmult)
    for _ in range(depth):
        assert t.symbol is addmult.signature["s"]
        t = t.args[0]
    assert t.symbol is addmult.signature["0"] and not t.args


def test_parse_trace_with_a_binding_past_the_recursion_limit():
    depth = 3000
    text = "[b1(e, {x -> " + "s(" * depth + "0" + ")" * depth + "})]"
    (tt,) = parse_trace(text)
    assert format_trace((tt,)) == text
    t = tt.recorded.get("x")
    for _ in range(depth):
        assert t.symbol == Symbol("s", 1)
        t = t.args[0]
    assert t.symbol == Symbol("0", 0)


def test_parse_errors_deep_inside_a_term_keep_their_location():
    depth = 3000
    with pytest.raises(ParseError) as err:
        parse_term("s(" * depth + "0,)" + ")" * depth)
    assert str(err.value) == f"expected IDENT, found ')' (line 1, column {2 * depth + 3})"
    with pytest.raises(ArityConflict) as err:
        parse_term("f(" * depth + "f(0,0)" + ")" * depth)
    assert str(err.value) == f"symbol 'f' used with arities 2 and 1 (line 1, column {2 * depth - 1})"

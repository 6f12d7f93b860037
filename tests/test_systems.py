from __future__ import annotations

from functools import cache

import pytest

from revrw import (
    App,
    ArityConflict,
    Condition,
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
from .oracles import ref_safety_domain, ref_signature, ref_system

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


# Several rules of one system, each breaking different clauses. The findings
# go rule by rule, and within a rule the 3ctrs clause comes first, then the
# determinism clauses, then the pure-constructor clauses.
MIXED_A = (
    "(VAR x y z)(RULES f(x) -> g(x) | h(x) == g(y) [r1]  g(x) -> y [r2]"
    "  h(x) -> z | k(y) == x [r3]  k(x) -> x [r4])"
)
MIXED_B = (
    "(VAR x y z)(RULES p(q(x)) -> z [s1]"
    "  q(x) -> y | p(x) == q(y), x == p(y), q(z) == y [s2]  p(x) -> x [s3])"
)
_UNHOUSED = "right-hand side variables ['{}'] occur neither in the left-hand side nor in the conditions"
_UNBOUND = (
    "condition {} left-hand side variables ['{}'] are not bound by the rule left-hand side "
    "or earlier condition right-hand sides"
)
MIXED_REPORTS = {
    (MIXED_A, "3ctrs"): [("r2", _UNHOUSED.format("y")), ("r3", _UNHOUSED.format("z"))],
    (MIXED_A, "dctrs"): [
        ("r2", _UNHOUSED.format("y")),
        ("r3", _UNHOUSED.format("z")),
        ("r3", _UNBOUND.format(1, "y")),
    ],
    (MIXED_A, "constructor"): [],
    (MIXED_A, "pcdctrs"): [
        ("r1", "right-hand side is not a constructor term"),
        ("r1", "condition 1 right-hand side is not a constructor term"),
        ("r2", _UNHOUSED.format("y")),
        ("r3", _UNHOUSED.format("z")),
        ("r3", _UNBOUND.format(1, "y")),
    ],
    (MIXED_B, "3ctrs"): [("s1", _UNHOUSED.format("z"))],
    (MIXED_B, "dctrs"): [("s1", _UNHOUSED.format("z")), ("s2", _UNBOUND.format(3, "z"))],
    (MIXED_B, "constructor"): [("s1", "left-hand side is not a basic term")],
    (MIXED_B, "pcdctrs"): [
        ("s1", _UNHOUSED.format("z")),
        ("s1", "left-hand side is not a basic term"),
        ("s2", _UNBOUND.format(3, "z")),
        ("s2", "condition 1 right-hand side is not a constructor term"),
        ("s2", "condition 2 left-hand side is not a basic term"),
        ("s2", "condition 2 right-hand side is not a constructor term"),
    ],
}


@pytest.mark.parametrize(
    "text, property_name", list(MIXED_REPORTS), ids=[f"{'AB'[t == MIXED_B]}-{p}" for t, p in MIXED_REPORTS]
)
def test_validation_findings_keep_their_text_and_order(text, property_name):
    expected = MIXED_REPORTS[text, property_name]
    report = validate(parse_system(text), property_name)
    assert [(f.rule_label, f.message) for f in report.findings] == expected
    assert bool(report) is report.ok is (not expected)
    if expected:
        head = f"{property_name}: {len(expected)} violation(s)"
        assert str(report) == "\n".join([head] + [f"  [{label}] {m}" for label, m in expected])
    else:
        assert str(report) == f"{property_name}: ok"


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
        for r in system.rules:
            assert safety_domain(r) is safety_domain(r)
            assert safety_domain(r) == ref_safety_domain(r)


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


# --- construction keeps what is already classified --------------------------


@pytest.fixture
def built(monkeypatch):
    """Every RewriteSystem built while the test runs, with the rules it was
    built from."""
    systems = []
    init = RewriteSystem.__init__

    def recording(self, rules):
        rules = tuple(rules)
        init(self, rules)
        systems.append((rules, self))

    monkeypatch.setattr(RewriteSystem, "__init__", recording)
    return systems


def _rule_sides(rule: Rule):
    yield rule.lhs
    yield rule.rhs
    for c in rule.conditions:
        yield c.lhs
        yield c.rhs


@pytest.mark.parametrize("name", ALL_CORPUS_FILES)
def test_every_system_is_built_as_the_rebuilding_reference_builds_it(name, built):
    # The parsed system, every pipeline stage's system, the pcDCTRS, and its
    # plain and improved injectivizations and their inverses.
    system = parse_system((CORPUS_DIR / name).read_text(encoding="utf-8"))
    pc, report = to_pcdctrs(system)
    stages = [stage.output_system for stage in report.stages]
    forward = injectivize(pc)
    chain = [system, pc, *stages, forward, invert(forward)]
    if system.is_trs and system.is_constructor_system:
        improved = injectivize_improved(pc, system)
        chain += [improved, invert(improved)]
    assert all(any(s is out for _, out in built) for s in chain)
    for rules, out in built:
        ref_rules, ref_signature_ = ref_system(rules)
        assert out.rules == ref_rules
        assert list(out.signature) == list(ref_signature_)
        assert [(s.arity, s.kind) for s in out.signature.values()] == [
            (s.arity, s.kind) for s in ref_signature_.values()
        ]
        for rule, ref_rule in zip(out.rules, ref_rules):
            stack = list(zip(_rule_sides(rule), _rule_sides(ref_rule)))
            while stack:
                got, want = stack.pop()
                if isinstance(got, App):
                    assert (got.ground, got.constructor) == (want.ground, want.constructor)
                    assert got.symbol is out.signature[got.symbol.name]
                    stack.extend(zip(got.args, want.args))


def test_a_system_of_classified_rules_keeps_them(addmult):
    again = RewriteSystem(addmult.rules)
    assert all(a is b for a, b in zip(again.rules, addmult.rules))
    assert all(again.signature[n] is s for n, s in addmult.signature.items())


def test_only_a_misclassified_root_is_built_again():
    # Parsed, every symbol is a constructor; f is the root of an lhs, so only
    # the lhs root is new, over the very arguments the parser built.
    s = Symbol("s", 1)
    x = Var("x")
    lhs = App(Symbol("f", 1), (App(s, (x,)),))
    rhs = App(s, (App(s, (x,)),))
    system = RewriteSystem([Rule("r", lhs, rhs)])
    (rule,) = system.rules
    assert rule.lhs is not lhs and rule.lhs.args is lhs.args
    assert rule.lhs.symbol.kind == DEFINED and not rule.lhs.constructor
    assert rule.rhs is rhs and system.signature["s"] is s


def test_a_term_with_a_stale_symbol_below_its_root_is_rebuilt():
    # g is defined, so g(x) under the constructor c is built again, and so is
    # c above it; the symbol kept for c is the one met first.
    c, g = Symbol("c", 1), Symbol("g", 1)
    x = Var("x")
    system = RewriteSystem([Rule("a", App(g, (x,)), x), Rule("b", App(Symbol("f", 1), (x,)), App(c, (App(g, (x,)),)))])
    rhs = system.rules[1].rhs
    assert rhs.symbol is c and rhs.args[0].symbol is system.signature["g"]
    assert not rhs.constructor and rhs == App(c, (App(g, (x,)),))


def test_a_hand_built_rule_rejects_a_variable_lhs_and_keeps_its_conditions_as_a_tuple():
    f = Symbol("f", 1, DEFINED)
    with pytest.raises(ParseError) as err:
        Rule("r", Var("x"), Var("x"))
    assert type(err.value) is ParseError and str(err.value) == "rule r: left-hand side is a variable"
    condition = Condition(f(Var("x")), Var("y"))
    rule = Rule("r", f(Var("x")), Var("y"), [condition])
    assert rule.conditions == (condition,)
    assert rule == Rule("r", f(Var("x")), Var("y"), (condition,))


def test_system_hash_and_repr(addmult):
    assert hash(addmult) == hash(addmult.rules)
    assert hash(RewriteSystem(addmult.rules)) == hash(addmult)
    assert repr(addmult) == "<RewriteSystem of 4 rules>"
    assert repr(RewriteSystem([])) == "<RewriteSystem of 0 rules>"

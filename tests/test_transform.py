from __future__ import annotations

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from revrw import (
    App,
    Bounds,
    Condition,
    NotApplicable,
    Pair,
    PreconditionViolated,
    RevrwError,
    Rule,
    ShapeViolated,
    Subst,
    Symbol,
    TraceTerm,
    UnsafeTrace,
    UpdateFailed,
    ViewFailed,
    encode_trace,
    flatten_condition,
    flatten_rhs,
    format_system,
    format_term,
    forward_run,
    injectivize,
    injectivize_improved,
    invert,
    is_basic_term,
    is_constructor_term,
    normalize,
    parse_system,
    parse_term,
    parse_terms,
    range_disjoint,
    remove_fail,
    remove_unify,
    replace,
    subterm,
    to_pcdctrs,
    unify,
    validate,
    view_update,
)
from revrw import transform
from revrw.systems import RewriteSystem
from revrw.terms import DEFINED, Var

from .conftest import CORPUS_DIR, examples, load
from .oracles import (
    all_normal_forms,
    basic_terms,
    ref_basic_position,
    ref_encode_trace,
    ref_range_disjoint,
    ref_pipeline_measure,
    ref_to_pcdctrs,
    systems_isomorphic,
)


def expect(text: str) -> RewriteSystem:
    return parse_system(text, allow_reserved=True)


# --- flatten_rhs --------------------------------------------------------------


def test_flatten_rhs_mult_twice(addmult):
    rule = addmult.rule_by_label("b4")
    once = flatten_rhs(rule)
    assert repr(once) == "mult(s(x),y) -> add(_w1,y) | mult(x,y) == _w1 [b4]"
    twice = flatten_rhs(once)
    assert repr(twice) == "mult(s(x),y) -> _w2 | mult(x,y) == _w1, add(_w1,y) == _w2 [b4]"


def test_flatten_rhs_add(addmult):
    rule = addmult.rule_by_label("b2")
    assert repr(flatten_rhs(rule)) == "add(s(x),y) -> s(_w1) | add(x,y) == _w1 [b2]"


def test_flatten_rhs_not_applicable_on_constructor_rhs(addmult):
    with pytest.raises(NotApplicable):
        flatten_rhs(addmult.rule_by_label("b1"))


# --- flatten_condition --------------------------------------------------------


def test_flatten_condition_splits_nested_call(simplify_sys):
    rule = simplify_sys.rule_by_label("b3")  # wrap(x) -> y <= outer(inner(x)) ->> y
    got = flatten_condition(rule)
    assert repr(got) == "wrap(x) -> y | inner(x) == _w1, outer(_w1) == y [b3]"


def test_flatten_condition_not_applicable_when_all_basic(double_sys):
    with pytest.raises(NotApplicable):
        flatten_condition(double_sys.rule_by_label("b3"))


def test_flatten_condition_two_deep_needs_two_applications():
    system = parse_system(
        "(VAR x y)(CONDITIONTYPE ORIENTED)(RULES"
        "  f(x) -> y | a(b(c(x))) == y"
        "  a(x) -> x  b(x) -> x  c(x) -> x)"
    )
    rule = system.rule_by_label("b1")
    once = flatten_condition(rule)
    twice = flatten_condition(once)
    assert repr(twice) == "f(x) -> y | c(x) == _w1, b(_w1) == _w2, a(_w2) == y [b1]"
    pc, _ = to_pcdctrs(system)
    assert validate(pc, "pcdctrs").ok


FLAT_SYMBOLS = (
    Symbol("f", 2, DEFINED), Symbol("g", 1, DEFINED), Symbol("c", 2), Symbol("s", 1),
)
FLAT_LEAVES = (Var("x"), Var("y"), App(Symbol("0", 0)), App(Symbol("k", 0, DEFINED)))


def _random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(FLAT_LEAVES)
    sym = rng.choice(FLAT_SYMBOLS)
    return App(sym, tuple(_random_term(rng, depth - 1) for _ in range(sym.arity)))


def test_flattening_splits_at_the_rescanned_basic_position():
    rng = random.Random(5)
    lhs, w, y = App(FLAT_SYMBOLS[0], (Var("x"), Var("y"))), Var("_w1"), Var("y")
    checked = 0
    while checked < 300:
        t = _random_term(rng, 6)
        if is_constructor_term(t):
            continue
        q = ref_basic_position(t)
        got = flatten_rhs(Rule("r", lhs, t))
        assert got == Rule("r", lhs, replace(t, q, w), (Condition(subterm(t, q), w),)), t
        if not is_basic_term(t):
            got = flatten_condition(Rule("r", lhs, y, (Condition(t, y),)))
            want = (Condition(subterm(t, q), w), Condition(replace(t, q, w), y))
            assert got == Rule("r", lhs, y, want), t
        checked += 1


def test_to_pcdctrs_time_grows_linearly_in_rule_depth():
    # Each flattening step descends once to the basic subterm; a scan of all
    # positions, each read from the root, grew about 60x from 200 to 800.
    def best(n: int) -> float:
        nat = "s(" * n + "0" + ")" * n
        system = parse_system(f"(VAR x y)(RULES f(x) -> g({nat},h(x)) g(x,y) -> y h(x) -> x)")
        times = []
        for _ in range(5):
            start = time.perf_counter()
            to_pcdctrs(system)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = best(200), best(800)
    assert large <= 6 * small, (small, large)


# --- remove_unify / remove_fail -------------------------------------------------


def test_remove_unify_forces_binding(simplify_sys):
    rule = simplify_sys.rule_by_label("b1")  # fit(x) -> x <= x ->> 0
    assert repr(remove_unify(rule)) == "fit(0) -> 0 [b1]"


def test_remove_unify_pair_example():
    system = parse_system(
        "(VAR x y z w)(CONDITIONTYPE ORIENTED)"
        "(RULES f(x) -> z | pair(x,0) == pair(w,w), g(x) == z\n g(x) -> x)"
    )
    rule = system.rule_by_label("b1")
    got = remove_unify(rule)
    assert repr(got) == "f(0) -> z | g(0) == z [b1]"
    # independent cross-check of the applied mgu
    lhs = parse_term("pair(x,0)", system, variables=("x",))
    rhs = parse_term("pair(w,w)", system, variables=("w",))
    zero = parse_term("0", system)
    assert unify(lhs, rhs) == Subst({"x": zero, "w": zero})


def test_remove_unify_not_applicable_without_constructor_condition(double_sys):
    with pytest.raises(NotApplicable):
        remove_unify(double_sys.rule_by_label("b3"))


def test_remove_fail_on_clash(simplify_sys):
    rule = simplify_sys.rule_by_label("b2")  # gone(x) -> x <= 0 ->> s(y)
    assert remove_fail(rule) is None


def test_remove_fail_not_applicable_on_trivial_condition():
    system = parse_system("(VAR x)(CONDITIONTYPE ORIENTED)(RULES f(x) -> x | x == x)")
    rule = system.rule_by_label("b1")
    with pytest.raises(NotApplicable):
        remove_fail(rule)
    assert repr(remove_unify(rule)) == "f(x) -> x [b1]"


# --- to_pcdctrs -----------------------------------------------------------------


GOLDEN_ADDMULT_PC = """
(VAR x y z w)
(CONDITIONTYPE ORIENTED)
(RULES
  add(0,y) -> y [b1]
  add(s(x),y) -> s(z) | add(x,y) == z [b2]
  mult(0,y) -> 0 [b3]
  mult(s(x),y) -> w | mult(x,y) == z, add(z,y) == w [b4]
)
"""

GOLDEN_VIEW_PC = """
(VAR t t1 v rs p q w)
(CONDITIONTYPE ORIENTED)
(RULES
  view(t,nil) -> nil [b1]
  view(t,cons(r(t1,v),rs)) -> cons(p,q) | eq(t,t1) == true, val(r(t1,v)) == p, view(t,rs) == q [b2]
  view(t,cons(r(t1,v),rs)) -> q | eq(t,t1) == false, view(t,rs) == q [b3]
  eq(book,book) -> true [b4]
  eq(dvd,dvd) -> true [b5]
  eq(book,dvd) -> false [b6]
  eq(dvd,book) -> false [b7]
  val(r(t,v)) -> v [b8]
)
"""


def test_to_pcdctrs_addmult_golden(addmult):
    pc, report = to_pcdctrs(addmult)
    assert systems_isomorphic(pc, expect(GOLDEN_ADDMULT_PC))
    assert all(validate(stage.output_system, "dctrs").ok for stage in report.stages)
    assert validate(pc, "pcdctrs").ok


def test_to_pcdctrs_view_golden(view_sys):
    pc, _ = to_pcdctrs(view_sys)
    assert systems_isomorphic(pc, expect(GOLDEN_VIEW_PC))


def test_to_pcdctrs_is_fixpoint_on_pcdctrs():
    pc = expect(GOLDEN_ADDMULT_PC)
    again, report = to_pcdctrs(pc)
    assert again == pc and report.stages == ()


def test_to_pcdctrs_rejects_non_constructor_system():
    system = parse_system("(VAR x y)(RULES f(g(x)) -> x\n g(x) -> x)")
    with pytest.raises(PreconditionViolated):
        to_pcdctrs(system)


def test_pipeline_preserves_innermost_semantics(simplify_sys):
    pc, report = to_pcdctrs(simplify_sys)
    systems = [simplify_sys] + [stage.output_system for stage in report.stages]
    terms = basic_terms(simplify_sys, 3, cap_per_function=30)
    caches = [dict() for _ in systems]
    for t in terms:
        results = [
            all_normal_forms(s, t, "innermost", cache)
            for s, cache in zip(systems, caches)
        ]
        for got in results[1:]:
            assert got == results[0], format_term(t)


# An infeasible call: removal-fail deletes g's only rule, g becomes a
# constructor, and only then can removal-fail delete the earlier rule r1.
CRAFTED_DELETIONS = """(VAR x y)(CONDITIONTYPE ORIENTED)(RULES
  f(x) -> y | g(x) == s(y) [r1]
  g(x) -> x | 0 == s(0) [r2]
)"""


def synthetic_system(rng: random.Random, functions: int, infeasible: bool) -> str:
    """A constructor DCTRS of the benchmark's compile shape: each f_i has a
    base rule and a recursive rule calling only f_1..f_i. With `infeasible`,
    every fourth f_i also gets a rule guarded by a call to a helper h_i whose
    only rule is infeasible and comes later, so removal-fail empties h_i and
    then deletes the earlier guarded rule."""
    rules = []
    helpers = []
    for i in range(1, functions + 1):
        a, b, c = (rng.randint(1, i) for _ in range(3))
        rules.append(f"f{i}(0,y) -> {rng.choice(['s(y)', 's(0)'])}")
        shape = i % 3
        if shape == 0:
            rules.append(f"f{i}(s(x),y) -> s(f{a}(x,f{b}(x,f{c}(x,y))))")
        elif shape == 1:
            rules.append(f"f{i}(s(x),y) -> s(f{c}(w,z)) | s(x) == s(w), f{a}(x,f{b}(x,y)) == z")
        else:
            rules.append(f"f{i}(s(x),y) -> f{a}(w,z) | s(x) == s(w), f{b}(x,f{c}(x,y)) == z")
        if infeasible and i % 4 == 0:
            rules.append(f"f{i}(s(s(x)),y) -> y | h{i}(x) == s(y)")
            helpers.append(f"h{i}(x) -> x | 0 == s(0)")
    body = "\n  ".join(rules + helpers)
    return f"(VAR x y z w)\n(CONDITIONTYPE ORIENTED)\n(RULES\n  {body}\n)\n"


def _pipeline_inputs():
    for path in sorted(CORPUS_DIR.glob("*.trs")):
        yield pytest.param(path.read_text(encoding="utf-8"), id=path.name)
    yield pytest.param(CRAFTED_DELETIONS, id="crafted")
    for seed in range(24):
        rng = random.Random(seed)
        if seed % 2:
            text = synthetic_system(rng, rng.randint(4, 32), infeasible=True)
        else:
            text = synthetic_system(rng, rng.randint(5, 40), infeasible=False)
        yield pytest.param(text, id=f"synthetic-{seed}")


def _measured_inputs():
    for path in sorted(CORPUS_DIR.glob("*.trs")):
        yield pytest.param(path.read_text(encoding="utf-8"), id=path.name)
    yield pytest.param(CRAFTED_DELETIONS, id="crafted")
    for functions in (5, 10, 20, 40):
        for infeasible in (False, True):
            text = synthetic_system(random.Random(functions), functions, infeasible)
            yield pytest.param(text, id=f"synthetic-{functions}-{infeasible}")


@pytest.mark.parametrize("text", list(_measured_inputs()))
def test_pipeline_stages_stay_within_the_measure(text):
    # 10 to 100 rules in the synthetic systems, restarts after deletions in
    # the crafted and infeasible ones.
    system = parse_system(text)
    _, report = to_pcdctrs(system)
    assert len(report.stages) <= ref_pipeline_measure(system)


def test_a_stage_count_past_the_measure_keeps_the_error_text(monkeypatch):
    # With no defined symbol counted, the measure (2 rules) leaves no room
    # for the four flattenings of f's rhs, and the pipeline reports a defect.
    system = parse_system("(VAR x)(RULES g(x) -> x\n f(x) -> g(g(g(g(x)))))")
    assert len(to_pcdctrs(system)[1].stages) == 4
    monkeypatch.setattr(transform, "_count_defined", lambda t: 0)
    with pytest.raises(RevrwError, match=r"^pcDCTRS pipeline did not terminate$"):
        to_pcdctrs(system)


# The printed PipelineReport of each corpus system, one file per system.
REPORTS_DIR = Path(__file__).resolve().parent / "golden" / "reports"


@pytest.mark.parametrize("path", sorted(CORPUS_DIR.glob("*.trs")), ids=lambda p: p.name)
def test_pipeline_report_text_matches_its_golden(path):
    _, report = to_pcdctrs(parse_system(path.read_text(encoding="utf-8")))
    text = str(report)
    assert text == (REPORTS_DIR / f"{path.stem}.txt").read_text(encoding="utf-8")
    if not report.stages:
        assert text == "(no transformation steps)\n"


@pytest.mark.parametrize("text", list(_pipeline_inputs()))
def test_to_pcdctrs_matches_the_rescanning_reference(text):
    system = parse_system(text)
    pc, report = to_pcdctrs(system)
    ref_pc, ref_stages = ref_to_pcdctrs(system)
    got = [(s.name, s.changes, format_system(s.output_system)) for s in report.stages]
    want = [(name, changes, format_system(out)) for name, out, changes in ref_stages]
    assert got == want
    assert format_system(pc) == format_system(ref_pc)


def test_crafted_deletions_need_the_rescan():
    _, report = to_pcdctrs(parse_system(CRAFTED_DELETIONS))
    assert [s.changes for s in report.stages] == [
        ("removal-fail deleted r2",),
        ("removal-fail deleted r1",),
    ]


def _count_system_builds(monkeypatch, system: RewriteSystem) -> int:
    builds = []

    def counting(rules):
        builds.append(rules)
        return RewriteSystem(rules)

    monkeypatch.setattr(transform, "RewriteSystem", counting)
    to_pcdctrs(system)
    monkeypatch.undo()
    return len(builds)


def test_to_pcdctrs_builds_the_system_once_without_deletions(monkeypatch):
    system = parse_system(synthetic_system(random.Random(1), 40, infeasible=False))
    assert len(system.rules) == 80
    assert _count_system_builds(monkeypatch, system) == 1


def test_to_pcdctrs_rebuilds_once_per_symbol_emptying_deletion(monkeypatch):
    # r2 empties g and r1 empties f: two rebinds, then the final build.
    assert _count_system_builds(monkeypatch, parse_system(CRAFTED_DELETIONS)) == 3


# --- injectivize ----------------------------------------------------------------


GOLDEN_ADD_F = """
(VAR x y z w)
(CONDITIONTYPE ORIENTED)
(RULES
  add^i(0,y) -> tuple#2(y,b1) [b1]
  add^i(s(x),y) -> tuple#2(s(z),b2(w)) | add^i(x,y) == tuple#2(z,w) [b2]
)
"""

GOLDEN_ADD_B = """
(VAR x y z w)
(CONDITIONTYPE ORIENTED)
(RULES
  add^-1(y,b1) -> tuple#2(0,y) [b1]
  add^-1(s(z),b2(w)) -> tuple#2(s(x),y) | add^-1(z,w) == tuple#2(x,y) [b2]
)
"""

GOLDEN_NEEDVARS_F = """
(VAR x y m w w1 w2)
(CONDITIONTYPE ORIENTED)
(RULES
  f^i(x,y,m) -> tuple#2(s(w),b1(m,x,w1,w2)) | h^i(x) == tuple#2(x,w1), g^i(y,4) == tuple#2(w,w2) [b1]
  h^i(0) -> tuple#2(0,b2) [b2]
  h^i(1) -> tuple#2(1,b3) [b3]
  g^i(x,y) -> tuple#2(x,b4(y)) [b4]
)
"""

GOLDEN_NEEDVARS_B = """
(VAR x y m w w1 w2)
(CONDITIONTYPE ORIENTED)
(RULES
  f^-1(s(w),b1(m,x,w1,w2)) -> tuple#3(x,y,m) | g^-1(w,w2) == tuple#2(y,4), h^-1(x,w1) == tuple#1(x) [b1]
  h^-1(0,b2) -> tuple#1(0) [b2]
  h^-1(1,b3) -> tuple#1(1) [b3]
  g^-1(x,b4(y)) -> tuple#2(x,y) [b4]
)
"""

GOLDEN_VIEW_F = """
(VAR t t1 v rs p q w1 w2 w3)
(CONDITIONTYPE ORIENTED)
(RULES
  view^i(t,nil) -> tuple#2(nil,b1(t)) [b1]
  view^i(t,cons(r(t1,v),rs)) -> tuple#2(cons(p,q),b2(w1,w2,w3)) | eq^i(t,t1) == tuple#2(true,w1), val^i(r(t1,v)) == tuple#2(p,w2), view^i(t,rs) == tuple#2(q,w3) [b2]
  view^i(t,cons(r(t1,v),rs)) -> tuple#2(q,b3(v,w1,w2)) | eq^i(t,t1) == tuple#2(false,w1), view^i(t,rs) == tuple#2(q,w2) [b3]
  eq^i(book,book) -> tuple#2(true,b4) [b4]
  eq^i(dvd,dvd) -> tuple#2(true,b5) [b5]
  eq^i(book,dvd) -> tuple#2(false,b6) [b6]
  eq^i(dvd,book) -> tuple#2(false,b7) [b7]
  val^i(r(t,v)) -> tuple#2(v,b8(t)) [b8]
)
"""

# Conditions follow the inversion schema: reversed relative to the rule
# being inverted.
GOLDEN_VIEW_B = """
(VAR t t1 v rs p q w1 w2 w3)
(CONDITIONTYPE ORIENTED)
(RULES
  view^-1(nil,b1(t)) -> tuple#2(t,nil) [b1]
  view^-1(cons(p,q),b2(w1,w2,w3)) -> tuple#2(t,cons(r(t1,v),rs)) | view^-1(q,w3) == tuple#2(t,rs), val^-1(p,w2) == tuple#1(r(t1,v)), eq^-1(true,w1) == tuple#2(t,t1) [b2]
  view^-1(q,b3(v,w1,w2)) -> tuple#2(t,cons(r(t1,v),rs)) | view^-1(q,w2) == tuple#2(t,rs), eq^-1(false,w1) == tuple#2(t,t1) [b3]
  eq^-1(true,b4) -> tuple#2(book,book) [b4]
  eq^-1(true,b5) -> tuple#2(dvd,dvd) [b5]
  eq^-1(false,b6) -> tuple#2(book,dvd) [b6]
  eq^-1(false,b7) -> tuple#2(dvd,book) [b7]
  val^-1(v,b8(t)) -> tuple#1(r(t,v)) [b8]
)
"""

GOLDEN_ZIP_F_IMPROVED = """
(VAR x y xs ys zs w)
(CONDITIONTYPE ORIENTED)
(RULES
  zip^i(nil,ys) -> tuple#2(nil,b1(ys)) [b1]
  zip^i(xs,nil) -> tuple#2(nil,b2(xs)) [b2]
  zip^i(cons(x,xs),cons(y,ys)) -> tuple#2(cons(pair(x,y),zs),w) | zip^i(xs,ys) == tuple#2(zs,w) [b3]
)
"""


def test_injectivize_add_golden(addmult):
    add_only = parse_system(
        "(VAR x y)(RULES add(0,y) -> y\n add(s(x),y) -> s(add(x,y)))"
    )
    pc, _ = to_pcdctrs(add_only)
    forward = injectivize(pc)
    assert systems_isomorphic(forward, expect(GOLDEN_ADD_F))
    assert forward.is_pcdctrs
    backward = invert(forward)
    assert systems_isomorphic(backward, expect(GOLDEN_ADD_B))
    assert backward.is_pcdctrs


def test_injectivize_needvars_golden(needvars):
    forward = injectivize(needvars)
    assert systems_isomorphic(forward, expect(GOLDEN_NEEDVARS_F))
    backward = invert(forward)
    assert systems_isomorphic(backward, expect(GOLDEN_NEEDVARS_B))


def test_injectivize_view_golden(view_sys):
    pc, _ = to_pcdctrs(view_sys)
    forward = injectivize(pc)
    assert systems_isomorphic(forward, expect(GOLDEN_VIEW_F))
    backward = invert(forward)
    assert systems_isomorphic(backward, expect(GOLDEN_VIEW_B))


def test_injectivize_requires_pcdctrs(addmult):
    with pytest.raises(PreconditionViolated):
        injectivize(addmult)


def test_invert_requires_injectivized_shape(addmult):
    pc, _ = to_pcdctrs(addmult)
    with pytest.raises(ShapeViolated):
        invert(pc)


# --- improved injectivization ----------------------------------------------------


def test_injectivize_improved_zip_golden(zip_sys):
    pc, _ = to_pcdctrs(zip_sys)
    forward = injectivize_improved(pc, zip_sys)
    assert systems_isomorphic(forward, expect(GOLDEN_ZIP_F_IMPROVED))
    backward = invert(forward)
    # zip^-1 on the improved system rebuilds both lists from result + trace.
    done = forward_run(forward, Pair(parse_term("zip^i([0,1],[1,0])", forward)), "constructor")
    rebuilt = normalize(backward, parse_term(
        f"zip^-1({format_term(done.term.args[0])},{format_term(done.term.args[1])})", backward
    ), "constructor")
    assert format_term(rebuilt, sugar=True) == "([0, 1], [1, 0])"


def test_improved_trace_stays_flat_on_long_lists(zip_sys):
    pc, _ = to_pcdctrs(zip_sys)
    improved = injectivize_improved(pc, zip_sys)
    plain = injectivize(pc)
    term = "zip^i([0,0,0,0],[0,0,0,0])"
    out_improved = normalize(improved, parse_term(term, improved), "constructor")
    out_plain = normalize(plain, parse_term(term, plain), "constructor")
    from .oracles import _size

    assert _size(out_improved.args[1]) < _size(out_plain.args[1])


def test_injectivize_improved_fgh_falls_back_to_plain(fgh):
    # The syntactic range approximation cannot prove g(x)/h(x) disjoint, so
    # the output equals the plain injectivization here (documented divergence
    # from the analysis-backed result).
    pc, _ = to_pcdctrs(fgh)
    assert injectivize_improved(pc, fgh) == injectivize(pc)


def test_injectivize_improved_skips_erasing_rules():
    system = parse_system("(VAR x y)(RULES e(x,y) -> d(x)\n d(x) -> s(x))")
    pc, _ = to_pcdctrs(system)
    forward = injectivize_improved(pc, system)
    e_rule = forward.rule_by_label("b1")
    trace_out = e_rule.rhs.args[1]
    assert not isinstance(trace_out, Var)
    assert trace_out.symbol.name == "b1"


def test_range_disjoint_cases(fgh, zip_sys):
    g_of_x = parse_term("g(x)", fgh, variables=("x",))
    h_of_x = parse_term("h(x)", fgh, variables=("x",))
    assert not range_disjoint(g_of_x, h_of_x)

    nil = parse_term("nil", zip_sys)
    spine = parse_term("cons(pair(x,y),zip(xs,ys))", zip_sys, variables=("x", "y", "xs", "ys"))
    assert range_disjoint(nil, spine)

    s_w = parse_term("s(w)", fgh, variables=("w",))
    s_v = parse_term("s(v)", fgh, variables=("v",))
    assert not range_disjoint(s_w, s_v)


RD_LEAVES = [App(Symbol("0", 0)), Var("x"), Var("y")]
RD_S, RD_C = Symbol("s", 1), Symbol("c", 2)
RD_F, RD_G = Symbol("f", 2, DEFINED), Symbol("g", 1, DEFINED)
rd_terms = st.recursive(
    st.sampled_from(RD_LEAVES),
    lambda kids: st.one_of(
        st.builds(lambda a: App(RD_S, (a,)), kids),
        st.builds(lambda a, b: App(RD_C, (a, b)), kids, kids),
        st.builds(lambda a: App(RD_G, (a,)), kids),
        st.builds(lambda a, b: App(RD_F, (a, b)), kids, kids),
    ),
    max_leaves=6,
)


@examples(200)
@given(rd_terms, rd_terms)
def test_range_disjoint_agrees_with_the_recursive_reference(r1, r2):
    assert range_disjoint(r1, r2) == ref_range_disjoint(r1, r2)


def test_range_disjoint_past_the_recursion_limit():
    def deep(leaf):
        for _ in range(5000):
            leaf = App(RD_S, (leaf,))
        return leaf

    x, zero = Var("x"), RD_LEAVES[0]
    assert not range_disjoint(deep(x), deep(App(RD_G, (zero,))))
    assert range_disjoint(deep(App(RD_C, (x, x))), deep(zero))


# --- encode_trace -----------------------------------------------------------------


def test_encode_trace_needvars_example(needvars):
    out = forward_run(needvars, Pair(parse_term("f(0,2,4)", needvars)), "constructor")
    assert repr(encode_trace(needvars, out.trace)) == "b1(4,0,b2,b4(4))"


def test_encode_trace_bare_label(double_sys):
    tt = TraceTerm("b4", (), Subst())
    assert repr(encode_trace(double_sys, tt)) == "b4"


def test_encode_trace_view_example(view_sys):
    pc, _ = to_pcdctrs(view_sys)
    start = parse_term("view(book,[r(book,12),r(dvd,24)])", pc)
    out = forward_run(pc, Pair(start), "constructor")
    assert repr(out.term) == "cons(12,nil)"
    assert repr(encode_trace(pc, out.trace)) == "b2(b4,b8(book),b3(24,b6,b1(book)))"


def test_encode_trace_rejects_long_traces(double_sys):
    out = forward_run(double_sys, Pair(parse_term("double(s(s(0)))", double_sys)))
    assert len(out.trace) == 4
    with pytest.raises(UnsafeTrace):
        encode_trace(double_sys, out.trace)


def test_encode_trace_rejects_non_root_positions(addfst):
    tt = TraceTerm("b2", (1,), Subst())
    with pytest.raises(UnsafeTrace):
        encode_trace(addfst, tt)


def test_encode_trace_rejects_an_unsafe_trace_with_its_findings(addmult):
    # Checked for safety before it is encoded: b4 has two conditions.
    pc, _ = to_pcdctrs(addmult)
    with pytest.raises(UnsafeTrace, match=r"^b4: 0 sub-traces for 2 conditions$"):
        encode_trace(pc, (TraceTerm("b4", (), Subst()),))


def _nested(trace, path=()):
    """Every trace term in trace, in preorder, with its path: (index in its
    trace, index of the sub-trace), ..., index in its trace."""
    for i, tt in enumerate(trace):
        yield path + (i,), tt
        for j, sub in enumerate(tt.sub_traces):
            yield from _nested(sub, path + (i, j))


def _edit(trace, path, edit):
    """trace with edit applied to the trace term at path."""
    i = path[0]
    tt = trace[i]
    if len(path) == 1:
        new = edit(tt)
    else:
        j = path[1]
        subs = tt.sub_traces
        new = TraceTerm(tt.label, tt.position, tt.recorded,
                        subs[:j] + (_edit(subs[j], path[2:], edit),) + subs[j + 1:])
    return trace[:i] + (new,) + trace[i + 1:]


_TRACE_EDITS = {
    "non-root": lambda tt: TraceTerm(tt.label, (1,), tt.recorded, tt.sub_traces),
    "empty sub-trace": lambda tt: TraceTerm(tt.label, tt.position, tt.recorded, tt.sub_traces[:-1] + ((),)),
    "doubled sub-trace": lambda tt: TraceTerm(
        tt.label, tt.position, tt.recorded, tt.sub_traces[:-1] + (tt.sub_traces[-1] * 2,)
    ),
    "unknown label": lambda tt: TraceTerm("nolabel", tt.position, tt.recorded, tt.sub_traces),
}
_ENCODED_RUNS = (
    ("addmult.trs", "add(s(s(s(0))),s(0))"),
    ("addmult.trs", "mult(s(s(0)),s(0))"),
    ("view.trs", "view(book,[r(book,1),r(dvd,2),r(book,3)])"),
    ("needvars.trs", "f(0,2,4)"),
)


def _outcome(encode, system, trace):
    try:
        return format_term(encode(system, trace))
    except RevrwError as exc:
        return f"{type(exc).__name__}: {exc}"


@examples(100)
@given(st.sampled_from(_ENCODED_RUNS), st.data())
def test_encode_trace_agrees_with_the_recursive_reference_on_edited_traces(run, data):
    # The first UnsafeTrace raised is the recursive pre-order's: a trace
    # term's position, then each sub-trace's length as it is entered.
    name, text = run
    pc, _ = to_pcdctrs(load(name))
    trace = forward_run(pc, Pair(parse_term(text, pc)), "constructor").trace
    for _ in range(data.draw(st.integers(0, 3))):
        path, tt = data.draw(st.sampled_from(list(_nested(trace))))
        kind = data.draw(st.sampled_from(sorted(_TRACE_EDITS)))
        if kind.endswith("sub-trace") and not tt.sub_traces:
            continue
        trace = _edit(trace, path, _TRACE_EDITS[kind])
    assert _outcome(encode_trace, pc, trace) == _outcome(ref_encode_trace, pc, trace)


def test_encode_trace_past_the_recursion_limit(addmult):
    # add(s^3000(0),0) in the pcDCTRS nests its conditions 3000 deep.
    pc, _ = to_pcdctrs(addmult)
    nat = "s(" * 3000 + "0" + ")" * 3000
    bounds = Bounds(max_steps=100000, max_depth=5000)
    out = forward_run(pc, Pair(parse_term(f"add({nat},0)", pc)), "constructor", None, bounds)
    assert format_term(encode_trace(pc, out.trace)) == "b2(" * 3000 + "b1" + ")" * 3000


# --- view update -------------------------------------------------------------------


@pytest.fixture(scope="module")
def view_pc(view_sys):
    return to_pcdctrs(view_sys)[0]


def test_view_update_worked_example(view_pc):
    args = parse_terms("book,[r(book,12),r(dvd,24)]", view_pc)
    new_view = parse_term("[15]", view_pc)
    updated = view_update(view_pc, args, new_view)
    rendered = "(" + ", ".join(format_term(t, sugar=True) for t in updated) + ")"
    assert rendered == "(book, [r(book,15), r(dvd,24)])"


def test_view_update_identity_law(view_pc):
    args = parse_terms("book,[r(book,12),r(dvd,24)]", view_pc)
    old_view = normalize(view_pc, parse_term("view(book,[r(book,12),r(dvd,24)])", view_pc), "constructor")
    updated = view_update(view_pc, args, old_view)
    assert list(updated) == list(args)


def test_view_update_rejects_shape_change(view_pc):
    args = parse_terms("book,[r(book,12),r(dvd,24)]", view_pc)
    with pytest.raises(UpdateFailed):
        view_update(view_pc, args, parse_term("[15,7]", view_pc))


def test_view_update_requires_pcdctrs(view_sys):
    args = parse_terms("book,[]", view_sys)
    with pytest.raises(PreconditionViolated):
        view_update(view_sys, args, parse_term("[]", view_sys))


def test_to_pcdctrs_validates_on_every_corpus_input(corpus):
    for system in corpus.values():
        pc, report = to_pcdctrs(system)
        assert validate(pc, "pcdctrs").ok
        for stage in report.stages:
            assert validate(stage.output_system, "dctrs").ok
            reparsed = parse_system(
                __import__("revrw").format_system(stage.output_system),
                allow_reserved=True,
            )
            assert reparsed == stage.output_system


def test_compile_chain_validates_the_pcdctrs_once(monkeypatch):
    # to_pcdctrs validates its output; injectivize and invert read the
    # cached result instead of validating the same system again.
    import revrw.systems

    original = revrw.systems.validate
    calls = []

    def counting(system, property_name):
        calls.append(property_name)
        return original(system, property_name)

    monkeypatch.setattr(revrw.systems, "validate", counting)
    monkeypatch.setattr(transform, "validate", counting)
    for name in ("addmult.trs", "view.trs", "zip.trs"):
        calls.clear()
        pc, _ = to_pcdctrs(load(name))
        invert(injectivize(pc))
        assert calls.count("pcdctrs") == 1, name


# --- view_update's rejections -------------------------------------------------

VIEW_CALLS = [
    ("empty-system", None, ("book", "cons(r(book,0),nil)"), "cons(0,nil)", {}, PreconditionViolated,
     "empty system"),
    ("unknown-function", "pc", ("book", "cons(r(book,0),nil)"), "cons(0,nil)", {"function": "nope"},
     ViewFailed, "'nope' is not a defined function of the system"),
    ("constructor-function", "pc", ("book", "cons(r(book,0),nil)"), "cons(0,nil)", {"function": "cons"},
     ViewFailed, "'cons' is not a defined function of the system"),
    ("argument-count", "pc", ("book",), "cons(0,nil)", {}, ViewFailed, "view takes 2 arguments, got 1"),
    ("non-ground-argument", "pc", ("book", "cons(r(book,x),nil)"), "cons(0,nil)", {}, ViewFailed,
     "argument cons(r(book,x),nil) is not a ground constructor term"),
    ("non-constructor-argument", "pc", ("book", "cons(r(book,val(r(book,0))),nil)"), "cons(0,nil)", {},
     ViewFailed, "argument cons(r(book,val(r(book,0))),nil) is not a ground constructor term"),
    ("non-ground-new-view", "pc", ("book", "cons(r(book,0),nil)"), "cons(x,nil)", {}, ViewFailed,
     "new view cons(x,nil) is not a ground constructor term"),
    # No eq rule compares book with cd, so view^i is stuck on its call.
    ("no-view-trace-pair", "pc", ("book", "cons(r(cd,0),nil)"), "cons(0,nil)", {}, ViewFailed,
     "view^i(book, cons(r(cd,0),nil)) reduced to view^i(book,cons(r(cd,0),nil)), not a (view, trace) pair"),
]


@pytest.mark.parametrize(
    "system, args, new_view, options, error, message",
    [case[1:] for case in VIEW_CALLS],
    ids=[case[0] for case in VIEW_CALLS],
)
def test_view_update_rejects_what_it_cannot_update(view_sys, system, args, new_view, options, error, message):
    pc = to_pcdctrs(view_sys)[0]
    args = tuple(parse_term(a, pc, variables=["x"]) for a in args)
    new_view = parse_term(new_view, pc, variables=["x"])
    system = pc if system == "pc" else RewriteSystem([])
    with pytest.raises(error) as caught:
        view_update(system, args, new_view, **options)
    assert type(caught.value) is error and str(caught.value) == message

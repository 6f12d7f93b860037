from __future__ import annotations

import pytest

from revrw import (
    EmptyTrace,
    Pair,
    Subst,
    TraceMismatch,
    TraceTerm,
    UnknownLabel,
    UnsafePair,
    backward_run,
    backward_step,
    enumerate_backward_steps,
    format_trace,
    forward_run,
    forward_step,
    forward_successors,
    is_safe,
    parse_term,
    parse_trace,
    safety_domain,
)
from revrw.reversible import witness_trace_term

from .oracles import basic_terms, reachable_terms, reversibly_reachable_terms, same_term


def t(system, text):
    return parse_term(text, system)


# --- golden: fst/add (arbitrary-position forward derivation) -----------------


def test_golden_addfst_derivation(addfst):
    start = Pair(t(addfst, "fst(add(s(0),0),0)"))

    first = forward_successors(addfst, start, "any")
    assert [repr(p.term) for p in first] == ["fst(s(add(0,0)),0)", "add(s(0),0)"]
    one = first[0]
    assert one.trace == (TraceTerm("b2", (1,), Subst()),)

    second = forward_successors(addfst, one, "any")
    two = second[1]
    assert repr(two.term) == "s(add(0,0))"
    assert two.trace == (
        TraceTerm("b3", (), Subst({"y": t(addfst, "0")})),
        TraceTerm("b2", (1,), Subst()),
    )

    three = forward_step(addfst, two, "innermost")
    assert repr(three.term) == "s(0)"
    assert three.trace == (
        TraceTerm("b1", (1,), Subst()),
        TraceTerm("b3", (), Subst({"y": t(addfst, "0")})),
        TraceTerm("b2", (1,), Subst()),
    )

    assert backward_run(addfst, three) == start


# --- golden: double (innermost run with a condition sub-trace) ----------------


def test_golden_double_run(double_sys):
    start = Pair(t(double_sys, "double(s(s(0)))"))
    out = forward_run(double_sys, start, "innermost")
    assert repr(out.term) == "s(s(s(s(0))))"
    inner = (TraceTerm("b4", (), Subst()), TraceTerm("b5", (), Subst()))
    assert out.trace == (
        TraceTerm("b1", (1, 1), Subst()),
        TraceTerm("b2", (1,), Subst()),
        TraceTerm("b2", (), Subst()),
        TraceTerm("b3", (), Subst(), (inner,)),
    )
    assert format_trace(out.trace) == (
        "[b1(1.1, {}), b2(1, {}), b2(e, {}), b3(e, {}, [b4(e, {}), b5(e, {})])]"
    )
    assert backward_run(double_sys, out) == start


# --- golden: snd (deterministic backward chain) -------------------------------


def test_golden_snd_backward_chain(snd_sys):
    one = Subst({"x": t(snd_sys, "1")})
    pair = Pair(t(snd_sys, "2"), (TraceTerm("b1", (), one), TraceTerm("b1", (2,), one)))

    back1 = backward_step(snd_sys, pair)
    assert repr(back1.term) == "snd(1,2)"
    assert back1.trace == (TraceTerm("b1", (2,), one),)

    back2 = backward_step(snd_sys, back1)
    assert repr(back2.term) == "snd(1,snd(1,2))"
    assert back2.trace == ()

    with pytest.raises(EmptyTrace):
        backward_step(snd_sys, back2)


# --- golden: mult under top reduction -----------------------------------------


def test_golden_mult_top_run(addmult):
    from revrw import to_pcdctrs

    pc, _ = to_pcdctrs(addmult)
    start = Pair(t(pc, "mult(s(0),s(0))"))
    out = forward_run(pc, start, "top")
    assert repr(out.term) == "s(0)"
    assert out.trace == (
        TraceTerm(
            "b4",
            (),
            Subst(),
            (
                (TraceTerm("b3", (), Subst({"y": t(pc, "s(0)")})),),
                (TraceTerm("b1", (), Subst()),),
            ),
        ),
    )
    assert backward_run(pc, out) == start


# --- golden: erased and condition-output variables ---------------------------


def test_golden_needvars_step_and_back(needvars):
    start = Pair(t(needvars, "f(0,2,4)"))
    out = forward_step(needvars, start, "innermost")
    assert repr(out.term) == "s(2)"
    assert out.trace == (
        TraceTerm(
            "b1",
            (),
            Subst({"m": t(needvars, "4"), "x": t(needvars, "0")}),
            (
                (TraceTerm("b2", (), Subst()),),
                (TraceTerm("b4", (), Subst({"y": t(needvars, "4")})),),
            ),
        ),
    )
    assert backward_step(needvars, out) == start


def test_safety_domain_spec_cases(addfst, needvars, double_sys):
    assert safety_domain(addfst.rule_by_label("b1")) == frozenset()
    assert safety_domain(addfst.rule_by_label("b3")) == {"y"}
    assert safety_domain(needvars.rule_by_label("b1")) == {"m", "x"}
    assert safety_domain(double_sys.rule_by_label("b3")) == frozenset()


# --- runs ---------------------------------------------------------------------


def test_forward_run_zero_steps(double_sys):
    start = Pair(t(double_sys, "double(s(s(0)))"))
    assert forward_run(double_sys, start, steps=0) == start


def test_forward_run_stops_at_normal_form(double_sys):
    start = Pair(t(double_sys, "double(s(s(0)))"))
    out = forward_run(double_sys, start, steps=50)
    assert repr(out.term) == "s(s(s(s(0))))" and len(out.trace) == 4


def test_backward_run_consumes_whole_trace(addmult):
    from revrw import to_pcdctrs

    pc, _ = to_pcdctrs(addmult)
    out = forward_run(pc, Pair(t(pc, "mult(s(s(0)),s(s(0)))")), "top")
    back = backward_run(pc, out)
    assert back.trace == ()


# --- safety -------------------------------------------------------------------


def test_empty_trace_is_safe(addfst):
    assert is_safe(addfst, ()).ok


def test_forward_produced_traces_are_safe(double_sys):
    pair = Pair(t(double_sys, "double(s(s(0)))"))
    while True:
        report = is_safe(double_sys, pair.trace)
        assert report.ok
        try:
            pair = forward_step(double_sys, pair, "innermost")
        except Exception:
            break


def test_missing_bindings_are_unsafe(needvars):
    bogus = (TraceTerm("b1", (), Subst(), ((), ())),)
    report = is_safe(needvars, bogus)
    assert not report.ok
    assert any("m" in f and "x" in f for f in report.findings)


def test_unknown_label_raises(addfst):
    with pytest.raises(UnknownLabel):
        is_safe(addfst, (TraceTerm("nope", (), Subst()),))


def test_backward_rejects_unsafe_pair(needvars):
    bogus = Pair(t(needvars, "s(2)"), (TraceTerm("b1", (), Subst(), ((), ())),))
    with pytest.raises(UnsafePair):
        backward_step(needvars, bogus)


def test_backward_detects_foreign_trace(addfst, double_sys):
    out = forward_run(double_sys, Pair(t(double_sys, "double(s(s(0)))")))
    # Play the double trace against an unrelated term: the rhs cannot match.
    foreign = Pair(t(double_sys, "true"), out.trace)
    with pytest.raises(TraceMismatch):
        backward_run(double_sys, foreign)


def test_safety_preserved_by_both_directions(needvars):
    pair = Pair(t(needvars, "f(1,2,4)"))
    fwd = forward_step(needvars, pair, "innermost")
    assert is_safe(needvars, fwd.trace).ok
    back = backward_step(needvars, fwd)
    assert is_safe(needvars, back.trace).ok and back == pair


# --- determinism and conservativity ------------------------------------------


def test_backward_steps_unique_on_forward_pairs(corpus):
    for system in corpus.values():
        for start in basic_terms(system, 3, cap_per_function=12):
            pair = Pair(start)
            for _ in range(4):
                try:
                    pair = forward_step(system, pair)
                except Exception:
                    break
                completions = enumerate_backward_steps(system, pair)
                assert len(completions) == 1
                rule, _, back = completions[0]
                assert rule.label == pair.trace[0].label
                assert back == backward_step(system, pair)


def test_conservative_extension(corpus):
    for system in corpus.values():
        for start in basic_terms(system, 3, cap_per_function=8):
            plain = reachable_terms(system, start, 4)
            traced = reversibly_reachable_terms(system, start, 4)
            assert plain == traced


# --- trace serialization ------------------------------------------------------


def test_trace_round_trip(double_sys, needvars):
    for system, source in (
        (double_sys, "double(s(s(0)))"),
        (needvars, "f(0,2,4)"),
    ):
        out = forward_run(system, Pair(t(system, source)))
        text = format_trace(out.trace)
        assert parse_trace(text) == out.trace


def test_trace_parse_accepts_mapsto_glyph():
    assert parse_trace("[b3(e, {y ↦ 0})]") == parse_trace("[b3(e, {y -> 0})]")


def test_witness_trace_term_restricts_to_safety_domain(needvars):
    from revrw import step

    start = t(needvars, "f(0,2,4)")
    w = step(needvars, start, "innermost")[0]
    tt = witness_trace_term(needvars, w)
    assert tt.recorded.domain == {"m", "x"}
    assert w.sigma.domain > tt.recorded.domain


def test_backward_run_takes_exactly_trace_length_steps(double_sys):
    out = forward_run(double_sys, Pair(t(double_sys, "double(s(s(0)))")))
    count = 0
    pair = out
    while pair.trace:
        pair = backward_step(double_sys, pair)
        count += 1
    assert count == len(out.trace) == 4


def test_forward_run_until_normal_is_bounded():
    from revrw import BoundExceeded, Bounds, parse_system

    loop = parse_system("(RULES f -> f)")
    with pytest.raises(BoundExceeded):
        forward_run(loop, Pair(t(loop, "f")), bounds=Bounds(max_steps=30))


def _nat(system, n):
    out = system.signature["0"]()
    for _ in range(n):
        out = system.signature["s"](out)
    return out


def _list(system, items):
    out = system.signature["nil"]()
    for item in reversed(items):
        out = system.signature["cons"](item, out)
    return out


def _assert_deep_round_trip(system, start, expected):
    # Terms a few hundred levels deep: no step may recurse per level.
    out = forward_run(system, Pair(start))
    assert same_term(out.term, expected)
    trace = parse_trace(format_trace(out.trace))
    back = backward_run(system, Pair(out.term, trace))
    assert not back.trace and same_term(back.term, start)


def test_deep_double_round_trip(double_sys):
    start = double_sys.signature["double"](_nat(double_sys, 200))
    _assert_deep_round_trip(double_sys, start, _nat(double_sys, 400))


def test_deep_zip_round_trip(zip_sys):
    from revrw import Symbol

    xs = [Symbol(str(i % 10), 0)() for i in range(350)]
    ys = [Symbol(str(i % 7), 0)() for i in range(353)]
    start = zip_sys.signature["zip"](_list(zip_sys, xs), _list(zip_sys, ys))
    pair = Symbol("pair", 2)
    expected = _list(zip_sys, [pair(a, b) for a, b in zip(xs, ys)])
    _assert_deep_round_trip(zip_sys, start, expected)


def test_forward_step_rejects_unsafe_pair(needvars):
    bogus = Pair(t(needvars, "f(0,2,4)"), (TraceTerm("b1", (), Subst(), ((), ())),))
    with pytest.raises(UnsafePair):
        forward_step(needvars, bogus)


from functools import lru_cache  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from revrw import parse_system, to_pcdctrs  # noqa: E402


@lru_cache(maxsize=1)
def _addmult_pc():
    system = parse_system(
        "(VAR x y)(RULES add(0,y) -> y\n add(s(x),y) -> s(add(x,y))\n"
        " mult(0,y) -> 0\n mult(s(x),y) -> add(mult(x,y),y))"
    )
    return to_pcdctrs(system)[0]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["add", "mult"]),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["innermost", "constructor"]),
)
def test_round_trip_property_addmult(i, j, name, n, strategy):
    pc = _addmult_pc()

    def arg(k):
        return t(pc, "s(" * k + "0" + ")" * k)

    start = Pair(pc.signature[name](arg(i), arg(j)))
    out = forward_run(pc, start, strategy, steps=n)
    assert backward_run(pc, out) == start
    assert is_safe(pc, out.trace).ok


def test_trace_parser_rejects_malformed_input():
    from revrw import ParseError

    for bad in ("[b1(e]", "[b1(e, {x -> })]", "[b1(e, {}) extra", "b1(e, {})"):
        with pytest.raises(ParseError):
            parse_trace(bad)


def test_trace_parser_nested_subtraces_round_trip():
    text = "[b1(e, {m -> 4, x -> 0}, [b2(e, {})], [b4(e, {y -> 4})])]"
    trace = parse_trace(text)
    assert format_trace(trace) == text
    assert trace[0].sub_traces[1][0].recorded.get("y") is not None

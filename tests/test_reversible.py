from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

import revrw.cli
import revrw.reversible
import revrw.terms
from revrw import (
    EmptyTrace,
    NoStep,
    Pair,
    ParseError,
    Subst,
    TraceMismatch,
    TraceTerm,
    UnknownLabel,
    UnsafePair,
    backward_run,
    backward_step,
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
from revrw.rewrite import STRATEGIES

from .conftest import CORPUS_DIR, load
from .oracles import (
    basic_terms,
    enumerate_backward_steps,
    reachable_terms,
    ref_backward_run,
    ref_parse_trace,
    reversibly_reachable_terms,
    same_term,
)
from .test_engine import random_term


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


def test_a_failed_move_after_a_replacement_names_the_replayed_term(addmult):
    # Undoing b1 at 1 turns s(0) into s(add(0,0)), which has no position 1.1.1.
    pair = Pair(t(addmult, "s(0)"), parse_trace("[b1(1, {}), b2(1.1.1, {})]"))
    for run in (backward_run, ref_backward_run):
        with pytest.raises(TraceMismatch) as caught:
            run(addmult, pair)
        assert str(caught.value) == "b2: position 1.1.1 not in s(add(0,0))"


def test_pairs_built_step_by_step_are_checked_once(addmult, monkeypatch):
    # Driving mult(20,20) one step at a time, and back a few steps: only the
    # hand-built start is checked; every later pair is built from a safe one.
    import revrw.reversible

    calls = 0

    def counting(system, trace):
        nonlocal calls
        calls += 1
        return is_safe(system, trace)

    monkeypatch.setattr(revrw.reversible, "is_safe", counting)
    start = Pair(addmult.signature["mult"](_nat(addmult, 20), _nat(addmult, 20)))
    pair = start
    while True:
        try:
            pair = forward_step(addmult, pair)
        except NoStep:
            break
    assert calls == 1 and len(pair.trace) == 3841
    end = pair
    for _ in range(100):
        pair = backward_step(addmult, pair)
    assert calls == 1 and pair.trace == end.trace[100:]
    assert forward_run(addmult, pair) == end and calls == 1


def test_no_step_formats_its_term_only_when_printed(double_sys, monkeypatch, capsys):
    # A run stepped with forward_step ends on NoStep, which the caller
    # catches: the term is formatted only if the error is printed, and the
    # text is what it was when it was built eagerly.
    calls = 0
    original = revrw.terms.format_term

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(revrw.terms, "format_term", counting)
    monkeypatch.setattr(revrw.reversible, "format_term", counting)
    term = t(double_sys, "s(s(0))")
    for strategy in STRATEGIES:
        with pytest.raises(NoStep) as info:
            forward_step(double_sys, Pair(term), strategy)
        assert calls == 0 and info.value.term is term and info.value.strategy == strategy
        assert str(info.value) == f"s(s(0)) is a normal form under {strategy}"
        assert calls == 1
        calls = 0
    with pytest.raises(NoStep, match=r"^s\(s\(0\)\) is a normal form under innermost$"):
        forward_step(double_sys, Pair(term))

    def raising(args):
        raise info.value

    monkeypatch.setattr(revrw.cli, "_run", raising)
    assert revrw.cli.main(["check", "x.trs"]) == 1
    assert capsys.readouterr().err == "revrw: NoStep: s(s(0)) is a normal form under top\n"


def test_pairs_built_by_hand_or_for_another_system_are_checked_in_full(needvars, double_sys):
    out = forward_step(needvars, Pair(t(needvars, "f(1,2,4)")))
    bogus = TraceTerm("b1", (), Subst(), ((), ()))
    for unsafe in (Pair(out.term, (bogus, *out.trace)), replace(out, trace=(bogus,))):
        with pytest.raises(UnsafePair):
            forward_step(needvars, unsafe)
    # Safe under needvars, unsafe under double: the error of a hand-built copy.
    for call in (forward_step, forward_successors, forward_run, backward_step, backward_run):
        with pytest.raises(UnsafePair) as caught:
            call(double_sys, out)
        with pytest.raises(UnsafePair) as expected:
            call(double_sys, Pair(out.term, out.trace))
        assert str(caught.value) == str(expected.value)


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
    for bad in ("[b1(e]", "[b1(e, {x -> })]", "[b1(e, {}) extra", "b1(e, {})"):
        with pytest.raises(ParseError):
            parse_trace(bad)


def test_trace_parser_nested_subtraces_round_trip():
    text = "[b1(e, {m -> 4, x -> 0}, [b2(e, {})], [b4(e, {y -> 4})])]"
    trace = parse_trace(text)
    assert format_trace(trace) == text
    assert trace[0].sub_traces[1][0].recorded.get("y") is not None


def test_parse_and_format_trace_past_the_recursion_limit():
    depth = 1000
    text = "[b1(e, {}, " * depth + "[]" + ")]" * depth
    trace = parse_trace(text)
    assert format_trace(trace) == text
    for _ in range(depth):
        (tt,) = trace
        assert tt.label == "b1" and tt.position == ()
        (trace,) = tt.sub_traces
    assert trace == ()


# --- parse_trace against the token-by-token reference parser -----------------


def _parse_outcome(parse, text):
    try:
        return ("ok", parse(text))
    except Exception as exc:  # the exception itself is what is compared
        return ("raise", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


# Text that format_trace would not print: re-spaced, with leading zeros, or
# with the `ε` that the trace syntax does not take.
RESPACED_TRACES = (
    "[b1(1 . 2, {}),\n b2( 3.4 , {x -> [a, b]}, [], [b3(2.1.1, {})])]",
    "[b1(ε, {})]",
    "[b2(1.ε, {})]",
    "\t[\n\tb1\n(\t1.2\n,\t{\nx\t->\ns\t(\n0\t)\n}\t,\n[\tb2\n(\te\n,\t{\n}\t)\n]\t)\n]\t",
)

HAND_WRITTEN_TRACES = RESPACED_TRACES + (
    "[]",
    "[b1(e, {})]",
    "[b1(12.3.10, {x -> s(0)}), b2(1, {y ↦ cons(a,nil)})]",
    "[b1(e, {m -> 4, x -> 0}, [b2(e, {})], [b4(e, {y -> 4})])]",
    "[b1^i(e, {}), tuple#2(1, {_w1 -> tuple#2(s(_w2),b2^-1(b1))}), add^-1(2.1, {})]",
    "[b1(2.1, {xs -> [a, [b, c], nil], y -> f(g(a,[b]),h(s(s(c))))}, [b2(1, {z -> []})])]",
    "[b1(e, {x -> f(a,\n  g(b)), y -> c}), b2(1.1, {})]",
    " [b1(01.2, {})]\n",
)


# Positions that `int` reads but the trace syntax may not, and the reverse,
# and whitespace where printed text has none or where it splits a lexeme.
EDGE_TRACES = (
    "[b1(1_0, {})]", "[b1(1 2, {})]", "[b1(, {})]", "[b1(٣, {})]", "[b1(e.1, {})]",
    "[b1(0, {})]", "[b1(00, {})]", "[b1(+1, {})]", "[b1(1._0, {})]", "[b1(1_, {})]",
    "[b1(1.2., {})]", "[b1(.1, {})]", "[ ]", " [ ] ", "[b1( e , { } )]", "[b1(e,{})]",
    "[b1(e, {} , [ ] , [b2(1,{})] )]", "[b1(e, {}),]", "[b1(e, {}), []]", "[b1(e, {},)]",
    "[b1(e, {x->0}]", "[b1(e, {x - > 0})]", "[b1(e, {}) b2(e, {})]", "[b1 (1\t.\n2, {})]",
)


@lru_cache(maxsize=1)
def _recorded_trace_texts() -> tuple[str, ...]:
    """Printed traces of forward runs over every corpus system and strategy,
    from basic terms and seeded random terms, plus hand-written ones with
    multi-digit and spaced-out positions, the mapsto glyph and line
    breaks."""
    texts = list(HAND_WRITTEN_TRACES)
    for path in sorted(CORPUS_DIR.glob("*.trs")):
        system = load(path.name)
        rng = random.Random(path.name)
        starts = basic_terms(system, 4, 12) + [random_term(system, rng, 5) for _ in range(8)]
        for term in starts:
            for strategy in STRATEGIES:
                try:
                    out = forward_run(system, Pair(term), strategy)
                except Exception:
                    continue
                if out.trace:
                    texts.append(format_trace(out.trace))
    return tuple(dict.fromkeys(texts))


MUTATION_ALPHABET = "0123456789.,()[]{}eb1xy ->↦\n'_^#i"


def _mutate(text: str, rng) -> str:
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op == 0 and text:
            text = text[:k] + text[k + 1 :]
        elif op == 1:
            text = text[:k] + rng.choice(MUTATION_ALPHABET) + text[k:]
        elif op == 2 and text:
            text = text[:k] + rng.choice(MUTATION_ALPHABET) + text[k + 1 :]
        elif op == 3:
            j = rng.randrange(len(text) + 1)
            text = text[: min(j, k)] + text[max(j, k) :]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:k] + text[min(j, k) : max(j, k)][:12] + text[k:]
    return text


@lru_cache(maxsize=1)
def _mutated_traces() -> tuple[tuple[str, tuple], ...]:
    """20,000 seeded mutations of the recorded texts, each with the reference
    parser's outcome."""
    rng = random.Random(7)
    texts = _recorded_trace_texts()
    mutated = (_mutate(rng.choice(texts), rng) for _ in range(20000))
    return tuple((text, _parse_outcome(ref_parse_trace, text)) for text in mutated)


def test_parse_trace_matches_reference_on_recorded_traces():
    texts = _recorded_trace_texts()
    assert len(texts) > 100
    for text in texts:
        got = _parse_outcome(parse_trace, text)
        assert got == _parse_outcome(ref_parse_trace, text), text
        if text not in HAND_WRITTEN_TRACES:
            assert format_trace(got[1]) == text


def test_printed_traces_are_read_without_the_token_reader():
    # The regex reader declines a text iff the reference rejects it, and
    # otherwise reads the reference's trace: recorded, hand-written and
    # mutated texts.
    from revrw.reversible import _read_printed

    texts = _recorded_trace_texts() + EDGE_TRACES
    cases = [(text, _parse_outcome(ref_parse_trace, text)) for text in texts]
    for text, want in cases + list(_mutated_traces()):
        got = _read_printed(text)
        assert (got is None) == (want[0] == "raise"), text
        if got is not None:
            assert got == want[1], text


def test_every_well_formed_trace_is_read_without_the_token_reader(monkeypatch):
    import revrw.reversible

    def forbidden(stream):
        raise AssertionError("the token reader read a well-formed trace")

    monkeypatch.setattr(revrw.reversible, "_parse_trace", forbidden)
    forms = [
        "[b1(e, {}), b2(1.2, {x ↦ s(0)})]",
        "[b1(01.2, {}), b2(1 . 2, {})]",
        "[b1(1_0, {})]",
    ]
    for text in _recorded_trace_texts():
        if "ε" in text:
            continue
        forms += [text.replace(", ", sep) for sep in (",\t", ",\n  ", " ,  ")]
    for text in forms:
        assert parse_trace(text) == ref_parse_trace(text), text


def test_position_index_too_long_for_an_int_is_a_parse_error():
    # Python refuses to convert a string of more than 4,300 digits.
    for text in ("[b1(" + "1" * 5000 + ".1, {})]", "[b1(2." + "1" * 5000 + ", {})]"):
        got = _parse_outcome(parse_trace, text)
        assert got[:2] == ("raise", ParseError) and got[2].startswith("bad position syntax")
        assert got == _parse_outcome(ref_parse_trace, text)


def test_a_long_whitespace_run_in_a_position_is_read_in_linear_time():
    # Backtracking through the run, one space at a time, would take minutes.
    for text in ("[b1(1" + " " * 200_000 + "x, {})]", "[b1(1" + " " * 200_000 + ".2, {})]"):
        start = time.perf_counter()
        got = _parse_outcome(parse_trace, text)
        assert time.perf_counter() - start < 2
        assert got == _parse_outcome(ref_parse_trace, text)


def test_recorded_substitution_binding_a_variable_twice_is_a_parse_error():
    text = "[b3(e, {y -> s(0),\n  y -> 0})]"
    for parse in (parse_trace, ref_parse_trace):
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == (
            "variable 'y' is bound twice in a recorded substitution (line 2, column 3)"
        )


def test_forward_run_builds_no_subst_for_rules_with_an_empty_safety_domain(addmult, monkeypatch):
    # Neither add rule records a binding: every trace term of add(s^30(0),0)
    # shares one empty Subst, and no witness builds its sigma.
    assert not addmult.safety_domains["b1"] and not addmult.safety_domains["b2"]
    start = addmult.signature["add"](_nat(addmult, 30), _nat(addmult, 0))
    original = Subst.__init__
    built = 0

    def counting(self, *args):
        nonlocal built
        built += 1
        original(self, *args)

    monkeypatch.setattr(Subst, "__init__", counting)
    out = forward_run(addmult, Pair(start))
    monkeypatch.undo()
    assert built == 0 and len(out.trace) == 31
    assert all(tt.recorded is out.trace[0].recorded for tt in out.trace)
    assert backward_run(addmult, out) == Pair(start)


def test_backward_run_replays_without_match_apply_or_union(monkeypatch):
    # Traces with recorded bindings and condition sub-traces.
    import revrw.reversible
    import revrw.terms
    from revrw import parse_system, to_pcdctrs

    pc, _ = to_pcdctrs(parse_system((CORPUS_DIR / "needvars.trs").read_text()))
    pairs = [(term, forward_run(pc, Pair(term))) for term in basic_terms(pc, 3, 20)]
    assert any(tt.recorded and tt.sub_traces for _, out in pairs for tt in out.trace)

    def forbidden(*args):
        raise AssertionError("backward playback matched or applied a Subst")

    assert not hasattr(revrw.reversible, "match")
    monkeypatch.setattr(revrw.terms, "match", forbidden)
    monkeypatch.setattr(Subst, "apply", forbidden)
    monkeypatch.setattr(Subst, "union", forbidden)
    for term, out in pairs:
        assert backward_run(pc, out) == Pair(term)


def test_parse_trace_matches_reference_on_mutated_traces():
    outcomes = []
    for text, want in _mutated_traces():
        got = _parse_outcome(parse_trace, text)
        assert got == want, text
        outcomes.append(got[0] if got[0] == "ok" else got[2])
    # Both outcomes occur, and errors of many kinds, malformed positions too.
    for kind in ("ok", "bad position syntax", "position indices are 1-based", "expected RPAREN",
                 "unexpected character", "unexpected end of input", "trailing input"):
        assert any(o.startswith(kind) for o in outcomes), kind


# --- traces nested past the recursion limit -----------------------------------
#
# In the pcDCTRS of addmult, add(s^n(0),0) is one step whose trace term nests
# n sub-traces: recording, printing, reading and replaying it take no
# recursion per level.


def test_forward_and_backward_run_past_the_recursion_limit():
    from revrw import Bounds
    from revrw.terms import EMPTY_SUBST

    depth = 5000
    pc = _addmult_pc()
    start = Pair(pc.signature["add"](_nat(pc, depth), _nat(pc, 0)))
    bounds = Bounds(max_steps=10 * depth, max_depth=depth + 1)
    out = forward_run(pc, start, "constructor", bounds=bounds)
    assert out.term == _nat(pc, depth) and len(out.trace) == 1
    tt, labels = out.trace[0], []
    while True:
        assert tt.recorded is EMPTY_SUBST and tt.position == ()
        labels.append(tt.label)
        if not tt.sub_traces:
            break
        ((tt,),) = tt.sub_traces
    assert labels == ["b2"] * depth + ["b1"]
    assert is_safe(pc, out.trace).ok
    text = format_trace(out.trace)
    assert text == "[b2(e, {}, " * depth + "[b1(e, {})]" + ")]" * depth
    trace = parse_trace(text)
    assert backward_run(pc, Pair(out.term, trace)) == start


def test_backward_run_of_a_hand_written_trace_past_the_recursion_limit():
    depth = 1200
    pc = _addmult_pc()
    text = "[b2(e, {}, " * depth + "[b1(e, {})]" + ")]" * depth
    result = backward_run(pc, Pair(_nat(pc, depth), parse_trace(text)))
    assert result == Pair(pc.signature["add"](_nat(pc, depth), _nat(pc, 0)))
    # One s too few: the innermost b2 meets 0, and says so.
    with pytest.raises(TraceMismatch, match=r"^b2: right-hand side s\(_w1\) does not match 0$"):
        backward_run(pc, Pair(_nat(pc, depth - 1), parse_trace(text)))

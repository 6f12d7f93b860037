from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

import pytest
from hypothesis import given, strategies as st

import revrw.cli
from revrw import parse_system
from revrw.cli import main

from .conftest import CORPUS_DIR, examples


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ADDFST = CORPUS_DIR / "addfst.trs"
DOUBLE = CORPUS_DIR / "double.trs"
ADDMULT = CORPUS_DIR / "addmult.trs"
VIEW = CORPUS_DIR / "view.trs"
ZIP = CORPUS_DIR / "zip.trs"


def test_check_summary(capsys):
    code, out, _ = run(capsys, "check", ADDMULT)
    assert code == 0
    assert "trs: True" in out and "pcdctrs: False" in out


def test_check_property_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check", DOUBLE, "--property", "dctrs")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "check", DOUBLE, "--property", "pcdctrs")
    assert code == 1 and "violation" in out


def test_rewrite_normalizes(capsys):
    code, out, _ = run(capsys, "rewrite", DOUBLE, "--term", "double(s(s(0)))")
    assert code == 0 and out == "s(s(s(s(0))))\n"


def test_rewrite_step_count(capsys):
    code, out, _ = run(capsys, "rewrite", DOUBLE, "--term", "double(s(s(0)))", "--steps", "1")
    assert code == 0 and out == "add(s(s(0)),s(s(0)))\n"


def test_rewrite_prints_a_normal_form_below_the_recursion_limit(capsys):
    depth = 900
    term = "s(" * depth + "add(0,0)" + ")" * depth
    code, out, err = run(capsys, "rewrite", ADDMULT, "--term", term)
    assert code == 0 and "Traceback" not in err
    assert out == "s(" * depth + "0" + ")" * depth + "\n"


def test_rewrite_reads_a_term_past_the_recursion_limit(capsys):
    depth = 3000
    term = "s(" * depth + "add(0,s(0))" + ")" * depth
    code, out, err = run(capsys, "rewrite", ADDMULT, "--term", term)
    assert code == 0 and "Traceback" not in err
    assert out == "s(" * (depth + 1) + "0" + ")" * (depth + 1) + "\n"


def test_forward_backward_round_trip(capsys):
    code, out, _ = run(capsys, "forward", DOUBLE, "--term", "double(s(s(0)))")
    assert code == 0
    result, trace = out.splitlines()
    assert result == "s(s(s(s(0))))"
    code, out, _ = run(capsys, "backward", DOUBLE, "--term", result, "--trace", trace)
    assert code == 0
    assert out == "double(s(s(0)))\n"


def test_forward_resume_from_trace(capsys):
    _, out, _ = run(capsys, "forward", ADDFST, "--term", "fst(add(s(0),0),0)", "--steps", "1")
    mid_term, mid_trace = out.splitlines()
    code, out, _ = run(
        capsys, "forward", ADDFST, "--term", mid_term, "--trace", mid_trace, "--steps", "1"
    )
    assert code == 0
    _, trace = out.splitlines()
    assert trace.count("b") == 2


def test_backward_mismatched_trace_is_domain_failure(capsys):
    code, _, err = run(capsys, "backward", DOUBLE, "--term", "0", "--trace", "[b1(1, {})]")
    assert code == 1 and "TraceMismatch" in err


@pytest.mark.parametrize(
    "trace, message",
    [
        ("[b1(x.y, {})]", "bad position syntax: 'x.y' (line 1, column 5)"),
        ("[b1(0, {})]", "position indices are 1-based: '0' (line 1, column 5)"),
    ],
)
def test_malformed_trace_position_is_a_parse_error(capsys, trace, message):
    code, _, err = run(capsys, "backward", DOUBLE, "--term", "0", "--trace", trace)
    assert code == 2 and err == f"revrw: parse error: {message}\n"


def test_trace_file_round_trip_through_stdin(capsys, monkeypatch, tmp_path):
    # The trace of add(s^900(0),0) is about 820 KB: more than an operating
    # system takes as one argument, so it goes through a file or a pipe.
    depth = 900
    nat = "s(" * depth + "0" + ")" * depth
    source = f"add({nat},0)"
    code, out, _ = run(capsys, "forward", ADDMULT, "--term", source)
    assert code == 0
    result, trace = out.splitlines()
    assert result == nat and len(trace) > 800_000
    monkeypatch.setattr("sys.stdin", io.StringIO(trace + "\n"))
    code, out, _ = run(capsys, "backward", ADDMULT, "--term", result, "--trace-file", "-")
    assert code == 0 and out == source + "\n"
    path = tmp_path / "trace.txt"
    path.write_text(trace, encoding="utf-8")
    code, out, _ = run(capsys, "backward", ADDMULT, "--term", result, "--trace-file", path)
    assert code == 0 and out == source + "\n"


def test_forward_resumes_from_a_trace_file(capsys, tmp_path):
    _, out, _ = run(capsys, "forward", ADDFST, "--term", "fst(add(s(0),0),0)", "--steps", "1")
    mid_term, mid_trace = out.splitlines()
    path = tmp_path / "trace.txt"
    path.write_text(mid_trace, encoding="utf-8")
    from_file = run(capsys, "forward", ADDFST, "--term", mid_term, "--trace-file", path)
    assert from_file == run(capsys, "forward", ADDFST, "--term", mid_term, "--trace", mid_trace)
    assert from_file[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("backward", DOUBLE, "--term", "0", "--trace", "[]", "--trace-file", "-"),
        ("forward", DOUBLE, "--term", "0", "--trace", "[]", "--trace-file", "-"),
        ("backward", DOUBLE, "--term", "0"),
    ],
    ids=["backward-both", "forward-both", "backward-neither"],
)
def test_trace_and_trace_file_are_exclusive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2


def test_missing_trace_file_is_a_usage_failure(capsys, tmp_path):
    code, _, err = run(
        capsys, "backward", DOUBLE, "--term", "0", "--trace-file", tmp_path / "none.txt"
    )
    assert code == 2 and "Traceback" not in err


def test_flatten_output_reparses(capsys, tmp_path):
    out_path = tmp_path / "pc.trs"
    code, _, _ = run(capsys, "flatten", ADDMULT, "--output", out_path)
    assert code == 0
    flattened = parse_system(out_path.read_text(), allow_reserved=True)
    assert flattened.is_pcdctrs


def test_injectivize_then_invert_standalone(capsys, tmp_path):
    rf_path = tmp_path / "rf.trs"
    code, _, _ = run(capsys, "injectivize", ADDMULT, "--output", rf_path)
    assert code == 0
    # invert accepts the already-injectivized file directly
    code, out, _ = run(capsys, "invert", rf_path)
    assert code == 0 and "add^-1" in out and "mult^-1" in out


def test_invert_from_original(capsys):
    code, out, _ = run(capsys, "invert", ADDMULT)
    assert code == 0 and "add^-1" in out


def test_pipeline_sections_reparse(capsys):
    code, out, _ = run(capsys, "pipeline", ADDMULT)
    assert code == 0
    blocks: list[list[str]] = []
    for line in out.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
    assert len(blocks) == 4
    for body in blocks:
        assert parse_system("\n".join(body), allow_reserved=True).rules


def test_pipeline_improved_zip(capsys):
    code, out, _ = run(capsys, "pipeline", ZIP, "--improved")
    assert code == 0
    assert "tuple#2(cons(pair(x,y),_w1),_w2)" in out


def test_bidir_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "bidir",
        VIEW,
        "--args",
        "book,[r(book,12),r(dvd,24)]",
        "--new-view",
        "[15]",
    )
    assert code == 0
    assert out == "(book, [r(book,15), r(dvd,24)])\n"


def test_bidir_shape_change_fails(capsys):
    code, _, err = run(
        capsys,
        "bidir",
        VIEW,
        "--args",
        "book,[r(book,12),r(dvd,24)]",
        "--new-view",
        "[15,7]",
    )
    assert code == 1 and "UpdateFailed" in err


def test_parse_error_is_usage_failure(capsys, tmp_path):
    bad = tmp_path / "bad.trs"
    bad.write_text("(RULES f(x -> x)")
    code, _, err = run(capsys, "check", bad)
    assert code == 2 and "parse error" in err


def test_reserved_names_rejected_for_transforms_only(capsys, tmp_path):
    generated = tmp_path / "rf.trs"
    code, _, _ = run(capsys, "injectivize", ADDMULT, "--output", generated)
    assert code == 0
    # running it is fine
    code, out, _ = run(capsys, "rewrite", generated, "--term", "add^i(0,0)")
    assert code == 0 and out == "tuple#2(0,b1)\n"
    # transforming it again is not: its names collide with generated ones
    code, _, err = run(capsys, "injectivize", generated)
    assert code == 2 and "reserved" in err


def test_trace_binding_a_variable_twice_is_a_usage_failure(capsys):
    trace = "[b3(e, {y -> s(0), y -> 0})]"
    code, out, err = run(capsys, "backward", ADDMULT, "--term", "0", "--trace", trace)
    assert code == 2 and not out
    assert err == (
        "revrw: parse error: variable 'y' is bound twice in a recorded substitution "
        "(line 1, column 20)\n"
    )


@pytest.mark.parametrize(
    "command, steps, message",
    [
        ("rewrite", "abc", "--steps expects a number or 'normal', got 'abc'"),
        ("rewrite", "-1", "--steps must be non-negative"),
        ("forward", "1.5", "--steps expects a number or 'normal', got '1.5'"),
    ],
)
def test_bad_steps_are_a_usage_failure(capsys, command, steps, message):
    code, out, err = run(capsys, command, DOUBLE, "--term", "double(s(0))", "--steps", steps)
    assert code == 2 and not out and err == f"revrw: parse error: {message}\n"


def test_missing_file_is_usage_failure(capsys):
    code, _, err = run(capsys, "check", "no-such-file.trs")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("rewrite", DOUBLE, "--term", "0", "--max-steps", "0"),
        ("rewrite", CORPUS_DIR, "--term", "0"),
        ("rewrite", "not-utf-8.trs", "--term", "0"),
    ],
    ids=["zero-max-steps", "directory", "not-utf-8"],
)
def test_bad_input_is_a_usage_failure_without_traceback(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-utf-8.trs").write_bytes("(RULES f -> caf\xe9)".encode("latin-1"))
    try:
        code, _, err = run(capsys, *argv)
    except SystemExit as exc:
        code, err = exc.code, capsys.readouterr().err
    assert code == 2 and "Traceback" not in err


def test_cli_round_trip_on_every_corpus_system(capsys, tmp_path):
    from revrw import format_term, step
    from .conftest import CORPUS_FILES, load
    from .oracles import basic_terms

    covered = 0
    for name in CORPUS_FILES:
        system = load(name)
        start = next(
            (t for t in basic_terms(system, 4, 200) if step(system, t)), None
        )
        if start is None:
            continue
        source = format_term(start)
        path = CORPUS_DIR / name
        code, out, _ = run(capsys, "forward", path, "--term", source)
        assert code == 0
        result, trace = out.splitlines()
        code, out, _ = run(capsys, "backward", path, "--term", result, "--trace", trace)
        assert code == 0
        assert out == source + "\n"
        covered += 1
    assert covered >= 6


# One process, several subcommands, usage errors in between: each call
# prints what it prints from a freshly built parser.
ONE_PROCESS = (
    ("check", ADDMULT),
    ("rewrite", DOUBLE, "--term", "double(s(s(0)))", "--max-steps", "0"),
    ("forward", ADDMULT, "--term", "add(s(0),0)"),
    ("backward", ADDMULT, "--term", "s(0)"),
    ("pipeline", ZIP, "--improved"),
    ("frobnicate", ADDMULT),
    ("bidir", VIEW, "--args", "book,[r(book,12),r(dvd,24)]", "--new-view", "[15]"),
    ("rewrite", DOUBLE, "--term", "double(s(s(0)))", "--strategy", "sideways"),
    ("backward", ADDMULT, "--term", "s(0)", "--trace", "[b2(e, {})]"),
    ("rewrite", DOUBLE, "--term", "double(s(s(0)))"),
    ("forward", ADDMULT, "--help"),
)


def _call(capsys, argv):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    fresh = []
    for argv in ONE_PROCESS:
        revrw.cli._parser.cache_clear()
        fresh.append(_call(capsys, argv))
    builds = 0
    build_parser = revrw.cli.build_parser

    def counting():
        nonlocal builds
        builds += 1
        return build_parser()

    monkeypatch.setattr(revrw.cli, "build_parser", counting)
    revrw.cli._parser.cache_clear()
    shared = [_call(capsys, argv) for argv in ONE_PROCESS]
    assert builds == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 2, 0, 2, 1, 0, 0]


def _pc_addmult(capsys, tmp_path):
    path = tmp_path / "pc.trs"
    code, _, _ = run(capsys, "flatten", ADDMULT, "--output", path)
    assert code == 0
    return path


def test_rewrite_of_deep_condition_nesting_hits_the_bound_without_traceback(capsys, tmp_path):
    # In the pcDCTRS, add(s^5000(0),0) nests its conditions 5000 levels deep:
    # under default bounds that is the depth bound, not a RecursionError.
    pc = _pc_addmult(capsys, tmp_path)
    nat = "s(" * 5000 + "0" + ")" * 5000
    code, out, err = run(capsys, "rewrite", pc, "--term", f"add({nat},0)")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == "revrw: BoundExceeded: condition evaluation depth bound exceeded\n"
    code, out, _ = run(capsys, "rewrite", pc, "--term", f"add({nat},0)", "--max-depth", "5001")
    assert code == 0 and out == nat + "\n"


def test_backward_of_a_deeply_nested_hand_written_trace(capsys, tmp_path):
    depth = 600
    pc = _pc_addmult(capsys, tmp_path)
    path = tmp_path / "trace.txt"
    path.write_text("[b2(e, {}, " * depth + "[b1(e, {})]" + ")]" * depth, encoding="utf-8")
    nat = "s(" * depth + "0" + ")" * depth
    code, out, err = run(capsys, "backward", pc, "--term", nat, "--trace-file", path)
    assert code == 0 and "Traceback" not in err
    assert out == f"add({nat},0)\n"


@pytest.mark.parametrize("name", ["double", "firstfail", "needvars", "simplify", "view"])
def test_flatten_improved_needs_no_constructor_origin(capsys, name):
    # Flattening never injectivizes, so --improved, whose injectivization
    # needs a constructor TRS as its origin, changes nothing.
    path = CORPUS_DIR / f"{name}.trs"
    code, out, err = run(capsys, "flatten", path, "--improved")
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "flatten", path)
    code, _, err = run(capsys, "injectivize", path, "--improved")
    assert code == 1 and err == "revrw: PreconditionViolated: origin is not a constructor TRS\n"


@pytest.mark.parametrize(
    "command", [["flatten"], ["pipeline"], ["injectivize"], ["invert"], ["injectivize", "--improved"]]
)
def test_transforms_of_a_rule_term_past_the_recursion_limit(capsys, tmp_path, command):
    # Flattening finds each basic subterm in one descent, without recursion.
    nat = "s(" * 3000 + "0" + ")" * 3000
    path = tmp_path / "deep.trs"
    path.write_text(f"(VAR x y)(RULES f(x) -> g({nat},h(x)) g(x,y) -> y h(x) -> x)", encoding="utf-8")
    try:
        code, out, err = run(capsys, command[0], path, *command[1:])
    except RecursionError:
        # Fail outside the handler: reporting a traceback this deep takes
        # pytest minutes.
        code = out = err = "RecursionError"
    assert code == 0 and err == ""
    if command == ["flatten"]:
        flat = parse_system(out, allow_reserved=True)
        assert flat.is_pcdctrs and nat in out


@pytest.mark.parametrize("command", ["flatten", "pipeline"])
def test_transforms_of_a_condition_past_the_recursion_limit(capsys, tmp_path, command):
    # Removing the condition applies its mgu to the rule without recursion.
    nat = "s(" * 3000 + "0" + ")" * 3000
    path = tmp_path / "deep.trs"
    path.write_text(f"(VAR x y)(RULES f(x) -> y | {nat} == y)", encoding="utf-8")
    try:
        code, out, err = run(capsys, command, path)
    except RecursionError:
        code = out = err = "RecursionError"
    assert code == 0 and err == "" and f"f(x) -> {nat}" in out


# --- fuzzing: every input ends in exit 0, 1 or 2, never in a traceback --------

_NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1000", "99999999999999999999999", "-99999999999999999999", "abc", "", "1e3", "0x10", " 7"]),
)
_TOKENS = (
    "(", ")", ",", "->", "==", "|", "[", "]", "{", "}", ".", "VAR", "RULES", "COMMENT",
    "CONDITIONTYPE", "ORIENTED", "x", "y", "f", "g", "s", "0", "add", "mult", "nil", "cons",
    "b1", "b2", "e", "1", "tuple#2", "view^-1", "'", "#", "é", "\n",
)
_token_text = st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join)
# Nesting depths: mostly shallow, some past the recursion limit.
_depths = st.one_of(st.integers(0, 40), st.sampled_from([1200, 5000]))


def _nat(n: int) -> str:
    return "s(" * n + "0" + ")" * n


@st.composite
def _texts(draw, kind: str) -> str:
    """Text for a term, a trace or a system: well formed at any depth, cut
    short, or random tokens."""
    n = draw(_depths)
    shapes = {
        "term": [_nat(n), f"add({_nat(n)},0)", f"double({_nat(n)})", "f(" * n + "0", "[" + "0," * n + "0]"],
        "trace": [
            "[b2(e, {}, " * n + "[b1(e, {})]" + ")]" * n,
            "[" + ", ".join(["b2(e, {})"] * n) + "]",
            "[b2(e, {}, " * n,
            f"[b1({'1.' * n}1, {{}})]",
        ],
        "system": [
            f"(VAR x y)(RULES f(x) -> g({_nat(n)},h(x)) g(x,y) -> y h(x) -> x)",
            f"(VAR x y)(RULES f(x) -> y | {_nat(n)} == y)",
            f"(VAR x y)(RULES add(0,y) -> y add(s(x),y) -> s(add(x,y)) f(x) -> y | add(x,{_nat(n)}) == y)",
            "(VAR x)(RULES f(" * n + "x" + ")" * n + " -> x)",
        ],
    }[kind]
    return draw(st.one_of(st.sampled_from(shapes), _token_text))


_COMMANDS = ("check", "rewrite", "forward", "backward", "flatten", "injectivize", "invert", "pipeline", "bidir")


@st.composite
def _invocations(draw):
    """An argument list (with FILE for the system file and TRACE for the
    trace file), and the file contents, bytes or text."""
    command = draw(st.sampled_from(_COMMANDS))
    file = draw(st.one_of(
        st.sampled_from(["addmult.trs", "view.trs", "double.trs", "simplify.trs"]).map(
            lambda name: (CORPUS_DIR / name).read_bytes()
        ),
        _texts("system").map(str.encode),
        st.binary(max_size=40).map(lambda b: b"(RULES f -> " + b + b"\xff)"),
    ))
    options = {
        "--term": _texts("term"),
        "--args": _texts("term").map(lambda t: f"book,{t}"),
        "--new-view": _texts("term"),
        "--function": st.sampled_from(["view", "add", "nope", ""]),
        "--trace": _texts("trace"),
        "--trace-file": st.sampled_from(["TRACE", "-", "missing.txt"]),
        "--strategy": st.sampled_from(["innermost", "constructor", "top", "any", "outermost", ""]),
        "--steps": st.one_of(_NUMBERS, st.just("normal")),
        "--max-steps": _NUMBERS,
        "--max-depth": _NUMBERS,
        "--property": st.sampled_from(["3ctrs", "dctrs", "constructor", "pcdctrs", "trs"]),
        "--output": st.sampled_from(["out.txt", "nodir/out.txt"]),
        "--improved": st.just(None),
        "--help": st.just(None),
    }
    argv = [command, "FILE"]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=5, unique=True)):
        if flag == "--help" and draw(st.integers(0, 9)):
            continue
        value = draw(options[flag])
        argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 9)):
        # Mostly with what the command needs, so that it gets past argparse.
        needs = {"rewrite": ["--term"], "forward": ["--term"], "backward": ["--term", "--trace"],
                 "bidir": ["--args", "--new-view"]}
        for flag in needs.get(command, []):
            if flag not in argv:
                argv += [flag, draw(options[flag])]
    return argv, file, draw(_texts("trace"))


# The arguments that name a file in the example's own directory.
_PATHS = {"FILE", "TRACE", "out.txt", "nodir/out.txt", "missing.txt"}


@examples(60)
@given(_invocations())
def test_cli_fuzz_exits_0_1_or_2_without_traceback(case):
    argv, file, trace = case
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "FILE"), "wb") as handle:
            handle.write(file)
        with open(os.path.join(tmp, "TRACE"), "w", encoding="utf-8") as handle:
            handle.write(trace)
        argv = [os.path.join(tmp, a) if a in _PATHS else a for a in argv]
        recursion = False
        try:
            sys.stdin = io.StringIO(trace)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        except RecursionError:
            # Fail outside the handler: reporting a traceback this deep takes
            # pytest minutes.
            recursion = True
        finally:
            sys.stdin = stdin
    assert not recursion, argv
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv

from __future__ import annotations

import io

import pytest

import revrw.cli
from revrw import parse_system
from revrw.cli import main

from .conftest import CORPUS_DIR


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

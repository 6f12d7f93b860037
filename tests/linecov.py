"""Line coverage of `src/revrw` under the tier-1 suite, stdlib only.

    PYTHONPATH=src python tests/linecov.py [extra pytest arguments]

Runs the suite in this process under a `sys.settrace` line tracer, with
`--hypothesis-seed=0` so that every run draws the same examples. The lines
that can run are those each code object of a module reports through
`co_lines()`. Every such line of `src/revrw` that never ran is printed as
its file and stripped source text. The exit status is 1 if the suite fails
or if a line that never ran is not listed in `tests/linecov_allow.txt`,
whose entries read `file | stripped source | why it never runs`; an entry
that no longer matches a line that never ran is reported too, so the list
only shrinks. The run takes a few minutes, so CI runs it as its own step.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "revrw"
ALLOW = Path(__file__).resolve().parent / "linecov_allow.txt"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from path can run."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_suite(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit status and the lines run in each file of SOURCE."""
    files = {str(p): set() for p in SOURCE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename in files:
            files[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    import pytest

    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv])
    finally:
        sys.settrace(None)
    return int(status), files


def read_allowed() -> set[tuple[str, str]]:
    allowed = set()
    for line in ALLOW.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, source, reason = (part.strip() for part in line.split(" | "))
            assert reason, f"{ALLOW.name}: no reason given for {source!r}"
            allowed.add((name, source))
    return allowed


def main(argv: list[str]) -> int:
    if any(name == "revrw" or name.startswith("revrw.") for name in sys.modules):
        raise SystemExit("linecov: revrw was imported before the tracer started")
    os.chdir(ROOT)
    status, ran = run_suite(argv)
    missed: list[tuple[str, str]] = []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for n in sorted(executable_lines(path) - ran[str(path)]):
            missed.append((path.name, text[n - 1].strip()))
            print(f"never ran: {path.name}:{n}: {text[n - 1].strip()}")
    allowed = read_allowed()
    unlisted = [m for m in missed if m not in allowed]
    stale = sorted(allowed - set(missed))
    for name, source in unlisted:
        print(f"linecov: {name}: line never ran and is not allowed: {source}")
    for name, source in stale:
        print(f"linecov: {name}: allowed line now runs; drop it from {ALLOW.name}: {source}")
    print(f"linecov: {len(missed)} line(s) of src/revrw never ran, {len(unlisted)} not allowed")
    return 1 if status or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The scale tier: inputs far past the tier-1 sizes, each with its result
checked and a ceiling on its wall time (and, run in a child process, on its
peak memory). Skipped unless REVRW_SCALE=1:

    REVRW_SCALE=1 PYTHONPATH=src python -m pytest -q tests/test_scale.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from revrw import App, format_term, injectivize, invert, normalize, parse_system, parse_term, to_pcdctrs

from .oracles import ref_pipeline_measure
from .test_transform import synthetic_system

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    os.environ.get("REVRW_SCALE") != "1", reason="the scale tier runs with REVRW_SCALE=1"
)


def test_pipeline_on_6800_rules():
    # The benchmark's compile shape with 3,400 functions takes 10,200
    # pipeline stages, past the fixed cap of 10,000 the pipeline once had.
    # It takes about 6 s and 600 MB of RSS on a 2-core machine; the stage
    # snapshots hold most of the memory, so no memory ceiling is set yet.
    system = parse_system(synthetic_system(random.Random(1), 3400, infeasible=False))
    start = time.perf_counter()
    pc, report = to_pcdctrs(system)
    forward = injectivize(pc)
    backward = invert(forward)
    elapsed = time.perf_counter() - start
    assert len(system.rules) == 6800
    assert len(report.stages) == 10200 <= ref_pipeline_measure(system)
    assert pc.is_pcdctrs and len(forward.rules) == len(backward.rules) == 6800
    # The pcDCTRS computes what the input does, and the inverted system
    # rebuilds the arguments from the injectivized one's value and trace.
    for name in ("f1", "f2", "f3", "f1700", "f3399", "f3400"):
        call = f"{name}(s(s(0)),s(0))"
        got = normalize(pc, parse_term(call, pc), "constructor")
        assert format_term(got) == format_term(normalize(system, parse_term(call, system), "constructor"))
        pair = normalize(forward, parse_term(f"{name}^i(s(s(0)),s(0))", forward), "constructor")
        assert pair.symbol.name == "tuple#2" and format_term(pair.args[0]) == format_term(got)
        back = normalize(backward, App(backward.signature[f"{name}^-1"], pair.args), "constructor")
        assert format_term(back) == "tuple#2(s(s(0)),s(0))"
    assert elapsed < 20


# Run in a child process of its own, so that its peak RSS is the case's
# alone. It reads VmHWM, not ru_maxrss: on Linux ru_maxrss keeps across exec
# the peak of the process that forked the child (this test process, which
# may be large). The child builds its input untimed, then prints whether the
# result checked, the seconds the case took and the peak RSS in MB, as JSON.
CHILD = """
import json, sys, time
from revrw import (App, Bounds, Pair, backward_run, format_trace, forward_run, normalize,
                   parse_system, parse_term, parse_trace, to_pcdctrs, view_update)

case = sys.argv[1]
if case == "view":
    n = 100_000
    pc = to_pcdctrs(parse_system(open("corpus/view.trs").read()))[0]
    sig = pc.signature
    book, dvd = App(sig["book"]), App(sig["dvd"])
    prices = [parse_term(p, pc) for p in ("0", "s(0)", "s(s(0))", "s(s(s(0)))")]
    source = App(sig["nil"])
    for i in reversed(range(n)):
        record = App(sig["r"], (dvd if i % 3 == 2 else book, prices[i % 4]))
        source = App(sig["cons"], (record, source))
    bounds = Bounds(max_steps=20 * n, max_depth=n + 10)
    start = time.perf_counter()
    view = normalize(pc, App(sig["view"], (book, source)), "constructor", bounds)
    ok = view_update(pc, (book, source), view, bounds) == (book, source)
else:
    k = 40_000
    pc = to_pcdctrs(parse_system(open("corpus/addmult.trs").read()))[0]
    sig = pc.signature
    numeral = App(sig["0"])
    for _ in range(k):
        numeral = App(sig["s"], (numeral,))
    term = App(sig["add"], (numeral, App(sig["0"])))
    bounds = Bounds(max_steps=10 * k, max_depth=k + 2)
    start = time.perf_counter()
    out = forward_run(pc, Pair(term), "constructor", bounds=bounds)
    text = format_trace(out.trace)
    back = backward_run(pc, Pair(out.term, parse_trace(text)))
    ok = out.term == numeral and len(out.trace) == 1 and back == Pair(term)
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    rss_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps({"ok": ok, "seconds": seconds, "rss_mb": rss_mb}))
"""


def _run_child(case: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, case], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_view_put_on_100000_records_returns_the_source():
    # The view and an unchanged put, 100,000 records nested as deep: about
    # 5 s and 126 MB of peak RSS on a 2-core machine.
    got = _run_child("view")
    assert got["ok"]
    assert got["seconds"] < 15 and got["rss_mb"] < 400, got


def test_pcdctrs_add_40000_deep_round_trip():
    # add(s^40000(0),0) forward (one step whose conditions nest 40,000 deep),
    # its trace printed and read back, and undone: about 1.2 s and 53 MB.
    got = _run_child("add")
    assert got["ok"]
    assert got["seconds"] < 4 and got["rss_mb"] < 160, got

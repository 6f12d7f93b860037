"""The scale tier: inputs far past the tier-1 sizes, each with its result
checked and a ceiling on its wall time. Skipped unless REVRW_SCALE=1:

    REVRW_SCALE=1 PYTHONPATH=src python -m pytest -q tests/test_scale.py
"""

from __future__ import annotations

import os
import random
import time

import pytest

from revrw import App, format_term, injectivize, invert, normalize, parse_system, parse_term, to_pcdctrs

from .oracles import ref_pipeline_measure
from .test_transform import synthetic_system

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

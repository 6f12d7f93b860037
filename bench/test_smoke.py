"""Smoke test of the benchmark: the smallest case of every workload family
runs and passes its reference check. Time is never checked.

Run with ``python3 -m pytest -q bench/test_smoke.py``. The benchmark runs in
a child process because each set-up re-imports revrw, which must not
disturb the modules of the test process.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_every_workload_ok():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("smoke ")]
    assert {line.split()[1].rstrip(":") for line in lines} == {
        "deep", "breadth", "view", "compile"
    }

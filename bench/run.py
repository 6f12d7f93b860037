"""revrw benchmark driver: one workload, one seed, one process.

Usage (from the root of a checkout):

  python3 bench/run.py --workload deep --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --workload view --seed 1 --seconds 20 --trace 1
  python3 bench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it are a readable report and a ``meta`` JSON line. See
bench/README.md for the metrics, the workloads and the limit probes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import WrongResult  # noqa: E402
from tracing import CALLS, LAYERS, SELF, TOTAL, WORK, Tracer  # noqa: E402
from workloads import WORKLOADS, Api  # noqa: E402

MODULES = ("terms", "errors", "systems", "rewrite", "reversible", "transform", "cli")
SETUP_REPS = 7
HARD_STOP_S = 150.0  # a run ends after this many seconds of passes, whatever min_passes says
SPAN_CAP = 200_000  # traced passes stop once this many spans are held
THROUGHPUT_UNITS = {"steps_per_s": "step/s", "records_per_s": "record/s", "rules_per_s": "rule/s"}
# revrw iterates over sets of strings and symbols, so its work depends on the
# interpreter's hash seed: on `view` the median op latency moves by up to
# 20% between hash seeds for the same inputs. Every run uses this one.
HASH_SEED = "0"


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def import_revrw(root: Path) -> Api:
    """A fresh import of revrw from the checkout's src/ (earlier imports in
    this process are dropped first, so each set-up pays the import)."""
    package = root / "src" / "revrw"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no revrw package at {package}")
    if not (root / "corpus").is_dir():
        raise SetupError(f"no corpus directory at {root / 'corpus'}")
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "revrw" or m.startswith("revrw.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"revrw.{name}") for name in MODULES}
    loaded = Path(modules["terms"].__file__).resolve()
    if package.resolve() not in loaded.parents:
        raise SetupError(f"revrw was imported from {loaded}, not from {package}")
    return Api(modules)


@dataclass
class Outcome:
    case: object
    latency: float
    error: str | None  # exception type name, "WrongResult", or None
    work: dict | None
    message: str = ""


@dataclass
class PassStats:
    traced: bool
    ok: int = 0
    op_time: float = 0.0  # summed latency of the regular ops
    # Latency of each case in case order; NaN where the op failed. A typed
    # array keeps the harness's own memory small and independent of speed.
    latencies: array = field(default_factory=lambda: array("d"))
    work: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def run_op(tracer: Tracer, api: Api, case, op_id: int) -> Outcome:
    errors = (api.errors.RevrwError, RecursionError)
    # A full collection before each op (outside its time) means the
    # collections inside an op depend on what it allocates, not on where
    # the collector's counters stood after the ops before it.
    gc.collect()
    with tracer.root("op", op_id, case.tag):
        t0 = perf_counter()
        try:
            result = case.run(tracer)
        except errors as exc:
            return Outcome(case, perf_counter() - t0, type(exc).__name__, None, str(exc)[:200])
        latency = perf_counter() - t0
        try:
            work = tracer.span("bench.check", case.check, result)
        except WrongResult as exc:
            return Outcome(case, latency, "WrongResult", None, str(exc)[:200])
        for key, units in work.items():
            if "." in key and not key.startswith(("count.", "max.")):
                tracer.add_work(key, units)
    return Outcome(case, latency, None, work)


def run_pass(tracer: Tracer, api: Api, cases, first_op: int, traced: bool) -> PassStats:
    tracer.enabled = traced
    stats = PassStats(traced)
    for i, case in enumerate(cases):
        outcome = run_op(tracer, api, case, first_op + i)
        stats.op_time += outcome.latency
        if outcome.error is not None:
            stats.failures.append(outcome)
            stats.latencies.append(math.nan)
            continue
        stats.ok += 1
        stats.latencies.append(outcome.latency)
        for key, units in outcome.work.items():
            if key.startswith("max."):
                stats.work[key] = max(stats.work.get(key, 0), units)
            else:
                stats.work[key] = stats.work.get(key, 0) + units
        if traced and case.calibrate is not None:
            with tracer.root("calibrate", first_op + i, case.tag):
                case.calibrate(tracer)
    tracer.enabled = False
    return stats


def tail(sorted_values: list, p: float) -> tuple[float, int]:
    """Nearest-rank percentile of an ascending list, and the number of
    samples beyond it."""
    if not sorted_values:
        return 0.0, 0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def median(values) -> float:
    """Median, or 0 when a run ended (hard stop, every op failed) without
    the samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload, seed: int, tracer: Tracer):
    t0 = perf_counter()
    api = import_revrw(ROOT)
    tracer.api = api
    cases, probes = workload.build(api, ROOT, seed, tracer)
    return api, cases, probes, perf_counter() - t0


def smallest_per_family(cases):
    chosen = {}
    for case in cases:
        best = chosen.get(case.family)
        if best is None or case.size < best.size:
            chosen[case.family] = case
    return list(chosen.values())


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    tracer = Tracer()
    setup_times = []
    for _ in range(SETUP_REPS):
        cases = probes = api = None
        gc.collect()
        api, cases, probes, took = setup(workload, seed, tracer)
        setup_times.append(took)
    if traced:
        tracer.enabled = True
        with tracer.root("setup", -1, ""):
            api, cases, probes, _ = setup(workload, seed, tracer)
        tracer.enabled = False

    # Warm-up: the smallest case of each family, untimed, fills lazy caches.
    for case in smallest_per_family(cases):
        run_op(tracer, api, case, -1)
    # The harness's own objects (cases, inputs, earlier imports) leave the
    # cyclic collector's view, so collections during the passes traverse
    # only what the operations allocate.
    gc.collect()
    gc.freeze()

    passes: list[PassStats] = []
    started = perf_counter()
    op_id = 0
    while True:
        trace_this = traced and len(passes) % 2 == 0 and len(tracer.spans) < SPAN_CAP
        passes.append(run_pass(tracer, api, cases, op_id, trace_this))
        op_id += len(cases)
        elapsed = perf_counter() - started
        untraced = [p for p in passes if not p.traced]
        enough = len(passes) >= workload.min_passes and untraced
        if traced:
            enough = enough and any(p.traced for p in passes)
        if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
            break
    timed_s = perf_counter() - started
    # Read before the probes, so that no probe moves a reported metric.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe_outcomes = []
    for probe in probes:
        outcome = run_op(tracer, api, probe, op_id)
        op_id += 1
        probe_outcomes.append(outcome)

    return {
        "tracer": tracer,
        "passes": passes,
        "probes": probe_outcomes,
        "setup_times": setup_times,
        "timed_s": timed_s,
        "cases": cases,
        "rss_mb": rss_mb,
    }


def end_to_end(workload, run: dict) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, plus facts for meta."""
    untraced = [p for p in run["passes"] if not p.traced]
    latencies = sorted(x for p in untraced for x in p.latencies if not math.isnan(x))
    tail_value, beyond = tail(latencies, workload.tail_percentile)
    # Every case runs once per pass, so the median over cases of each case's
    # median latency is the median op latency without the per-sample noise.
    by_case = zip(*(p.latencies for p in untraced))
    case_medians = [median(x for x in column if not math.isnan(x)) for column in by_case]
    metrics = {
        "setup_s": (median(run["setup_times"]), "s"),
        "ops_per_s": (median(ratio(p.ok, p.op_time) for p in untraced), "op/s"),
        "latency_p50_ms": (1000.0 * median(x for x in case_medians if x), "ms"),
        "latency_tail_ms": (1000.0 * tail_value, "ms"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    facts = {
        "latency_samples": len(latencies),
        "latency_tail_percentile": workload.tail_percentile,
        "latency_tail_samples_beyond": beyond,
        "throughput": throughputs(untraced),
    }
    return metrics, facts


def throughputs(passes) -> dict:
    """Workload unit throughputs (median over passes); 0 where a unit does
    not apply to the workload."""
    return {
        name: median(ratio(p.work.get(name.split("_per_")[0], 0), p.op_time) for p in passes)
        for name in THROUGHPUT_UNITS
    }


def per_layer(run: dict) -> dict:
    tracer: Tracer = run["tracer"]
    passes = run["passes"]
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    ops = ("op",)

    def per_unit(name, scale, tag=None, kinds=ops):
        return scale * ratio(tracer.sum(name, TOTAL, tag, kinds), tracer.sum(name, WORK, tag, kinds))

    def per_call(name, scale, kinds=ops):
        return scale * ratio(tracer.sum(name, TOTAL, None, kinds), tracer.sum(name, CALLS, None, kinds))

    op_total = tracer.sum("root.op", TOTAL, None, ops)
    m: dict[str, tuple[float, str]] = {}
    norm = "rewrite.normalize_traced"
    m["rewrite.normalize.us_per_step"] = (per_unit(norm, 1e6), "us")
    m["rewrite.normalize.us_per_step.small"] = (per_unit(norm, 1e6, "small"), "us")
    m["rewrite.normalize.us_per_step.large"] = (per_unit(norm, 1e6, "large"), "us")
    m["rewrite.step.us_per_call"] = (per_call("rewrite.step", 1e6), "us")
    m["reversible.forward_run.us_per_step.small"] = (
        per_unit("reversible.forward_run", 1e6, "small"), "us")
    m["reversible.forward_run.us_per_step.large"] = (
        per_unit("reversible.forward_run", 1e6, "large"), "us")
    m["reversible.backward_run.us_per_step"] = (per_unit("reversible.backward_run", 1e6), "us")
    m["reversible.forward_step.us_per_call"] = (per_call("reversible.forward_step", 1e6), "us")
    m["reversible.is_safe.us_per_trace_term"] = (per_unit("reversible.is_safe", 1e6), "us")
    m["reversible.format_trace.us_per_trace_term"] = (
        per_unit("reversible.format_trace", 1e6), "us")
    m["reversible.parse_trace.us_per_trace_term"] = (
        per_unit("reversible.parse_trace", 1e6), "us")
    vu = "transform.view_update"
    m["transform.view_update.ms_per_call.small"] = (per_unit(vu, 1e3, "small"), "ms")
    m["transform.view_update.ms_per_call.large"] = (per_unit(vu, 1e3, "large"), "ms")
    calibrate = ("calibrate",)
    compile_per_put = ratio(
        tracer.sum("transform.injectivize", TOTAL, None, calibrate)
        + tracer.sum("transform.invert", TOTAL, None, calibrate),
        tracer.sum("root.calibrate", CALLS, None, calibrate),
    )
    m["transform.view_update.compile_share"] = (
        ratio(compile_per_put, per_call(vu, 1.0)), "ratio")
    m["transform.to_pcdctrs.us_per_stage.small"] = (
        per_unit("transform.to_pcdctrs", 1e6, "small"), "us")
    m["transform.to_pcdctrs.us_per_stage.large"] = (
        per_unit("transform.to_pcdctrs", 1e6, "large"), "us")
    both = ("op", "calibrate")
    m["transform.injectivize.us_per_rule"] = (
        per_unit("transform.injectivize", 1e6, None, both), "us")
    m["transform.invert.us_per_rule"] = (per_unit("transform.invert", 1e6, None, both), "us")
    with_setup = ("op", "setup")
    m["systems.parse_system.us_per_rule"] = (
        per_unit("systems.parse_system", 1e6, None, with_setup), "us")
    m["systems.format_system.us_per_rule"] = (per_unit("systems.format_system", 1e6), "us")
    m["cli.main.ms_per_call"] = (per_call("cli.main", 1e3), "ms")
    m["bench.check.share"] = (ratio(tracer.sum("bench.check", SELF, None, ops), op_total), "ratio")
    m["bench.glue.share"] = (ratio(tracer.sum("root.op", SELF, None, ops), op_total), "ratio")
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tracer.sum_layer(layer, CALLS, ops), "count")
        self_s = tracer.sum_layer(layer, SELF, ops)
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.share"] = (ratio(self_s, op_total), "ratio")
    first = passes[0].work
    m["rewrite.steps"] = (first.get("count.rewrite.steps", 0), "count")
    m["reversible.trace_terms"] = (first.get("count.reversible.trace_terms", 0), "count")
    m["reversible.max_condition_nesting"] = (
        first.get("max.reversible.max_condition_nesting", 0), "count")
    m["transform.to_pcdctrs.stages"] = (first.get("count.transform.to_pcdctrs.stages", 0), "count")
    m["transform.rules_out"] = (first.get("count.transform.rules_out", 0), "count")
    m["bench.trace_overhead"] = (
        ratio(median(p.op_time for p in traced), median(p.op_time for p in untraced)) - 1.0,
        "ratio")
    for name, value in throughputs(untraced).items():
        m[name] = (value, THROUGHPUT_UNITS[name])
    return m


def failures_by_type(outcomes) -> dict:
    tally: dict[str, int] = {}
    for o in outcomes:
        tally[o.error] = tally.get(o.error, 0) + 1
    return tally


def report(workload, seed: int, seconds: float, traced: bool, run: dict) -> int:
    passes = run["passes"]
    # attempted and failed count the regular operations only. The limit
    # probes fail at the seed by design; they are reported beside them.
    regular_failures = [o for p in passes for o in p.failures]
    probe_failures = [o for o in run["probes"] if o.error is not None]
    attempted = sum(p.ok + len(p.failures) for p in passes)
    failed = len(regular_failures)
    wrong = [o for o in regular_failures + probe_failures if o.error == "WrongResult"]
    correct = not wrong and not regular_failures

    if traced:
        metrics = per_layer(run)
        facts: dict = {}
    else:
        metrics, facts = end_to_end(workload, run)
    facts["failed_ratio"] = ratio(failed, attempted)
    facts["probe_failed_ratio"] = ratio(len(probe_failures), len(run["probes"]))

    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "cases_per_pass": len(run["cases"]),
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "timed_s": round(run["timed_s"], 3),
        "setup_s_reps": [round(x, 5) for x in run["setup_times"]],
        "attempted": attempted,
        "failed": failed,
        "failed_by_type": failures_by_type(regular_failures),
        "probes_attempted": len(run["probes"]),
        "probes_failed": len(probe_failures),
        "probe_failed_by_type": failures_by_type(probe_failures),
        "probes": [
            {"name": o.case.label, "outcome": o.error or "ok", "seconds": round(o.latency, 3)}
            for o in run["probes"]
        ],
        "failures": [
            {"name": o.case.label, "error": o.error, "message": o.message}
            for o in (regular_failures + probe_failures)[:20]
        ],
        **facts,
    }
    if traced:
        spans_path = HERE / "out" / f"spans-{workload.name}-seed{seed}.jsonl"
        run["tracer"].write(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
        meta["spans"] = len(run["tracer"].spans)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    for o in run["probes"]:
        print(f"probe {o.case.label}: {o.error or 'ok'} after {o.latency:.3f} s")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Smallest case of each workload family, checked; no timing."""
    all_ok = True
    for workload in WORKLOADS.values():
        tracer = Tracer()
        api, cases, _, _ = setup(workload, 0, tracer)
        chosen = smallest_per_family(cases)
        bad = [o for o in (run_op(tracer, api, c, i) for i, c in enumerate(chosen)) if o.error]
        for o in bad:
            print(f"smoke {workload.name}: {o.case.label}: {o.error}: {o.message}")
        print(f"smoke {workload.name}: {len(chosen) - len(bad)}/{len(chosen)} ok")
        all_ok = all_ok and not bad
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="revrw benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the smallest case of every workload and check it; no timing")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        workload = WORKLOADS[args.workload]
        run = measure(workload, args.seed, args.seconds, bool(args.trace))
        return report(workload, args.seed, args.seconds, bool(args.trace), run)
    except (SetupError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2


def pin_hash_seed() -> None:
    """Re-execute this interpreter in place (same process) with HASH_SEED
    unless it already runs with it."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())

"""The four workloads. Each builds its cases from the seed and the checkout.

A case is one timed operation: ``run(tracer)`` makes only the calls into
revrw that are timed, ``check(result)`` compares the result with a reference
that does not come from the code path under test and returns the work the
operation did. Sizes are fixed per workload; the seed chooses contents (list
elements, record types and prices, random start terms, synthetic rule
shapes) and case order, so a run's cost depends little on the seed.

Work keys returned by ``check``:
  ``module.function``  work units of that call (steps, trace terms, rules)
  ``steps``/``records``/``rules``  units for the workload throughputs
  ``count.<name>``     exact counts, summed over one pass
  ``max.<name>``       exact maxima over one pass
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import (
    WrongResult,
    expect,
    instantiate,
    is_var,
    list_items,
    load_goldens,
    nat_value,
    plant,
    same_term,
    subterm_at,
    systems_isomorphic,
    term_text,
    trace_stats,
    witness_stats,
)

CORPUS_FILES = (
    "addfst.trs",
    "addmult.trs",
    "double.trs",
    "fgh.trs",
    "firstfail.trs",
    "needvars.trs",
    "simplify.trs",
    "snd.trs",
    "view.trs",
    "zip.trs",
)


class Api:
    """The revrw modules of one import, looked up by ``module.function``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._functions: dict[str, Callable] = {}

    def function(self, qualified: str) -> Callable:
        fn = self._functions.get(qualified)
        if fn is None:
            module, name = qualified.split(".")
            fn = self._functions[qualified] = getattr(self.modules[module], name)
        return fn

    def __getattr__(self, module: str):
        try:
            return self.modules[module]
        except KeyError:
            raise AttributeError(module) from None


@dataclass
class Case:
    family: str
    size: int
    tag: str  # "small", "mid" or "large" within its family
    label: str
    run: Callable
    check: Callable
    calibrate: Callable | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (api, root, seed, tracer) -> (cases, probes)
    tail_percentile: float
    min_passes: int


def size_tag(size: int, sizes) -> str:
    if size == min(sizes):
        return "small"
    if size == max(sizes):
        return "large"
    return "mid"


def parse_corpus(api: Api, tracer, root: Path, name: str):
    text = (root / "corpus" / name).read_text(encoding="utf-8")
    system = tracer.call("systems.parse_system", text)
    tracer.add_work("systems.parse_system", len(system.rules))
    return system


def numeral(api: Api, system, n: int):
    App = api.terms.App
    t = App(system.signature["0"])
    s = system.signature["s"]
    for _ in range(n):
        t = App(s, (t,))
    return t


def cons_list(api: Api, system, items):
    App = api.terms.App
    t = App(system.signature["nil"])
    cons = system.signature["cons"]
    for x in reversed(items):
        t = App(cons, (x, t))
    return t


def constant(api: Api, name: str):
    return api.terms.App(api.terms.Symbol(name, 0))


# ---------------------------------------------------------------------------
# deep: long innermost derivations on growing terms

MULT_SIZES = (4, 6, 8, 10)  # mult(s^n(0), s^n(0))
ADD_SIZES = (16, 32, 64, 128)  # add(s^n(0), s^n(0))
DOUBLE_SIZES = (4, 8, 16, 32, 64)  # double(s^2n(0)), normal form s^4n(0)
ZIP_SIZES = (16, 32, 64, 128)  # zip of lists of n and n + 3 elements
ZIP_EXTRA = 3
# Past the seed's limits: normal forms a few hundred levels deep.
DOUBLE_PROBE = 100
ZIP_PROBE = 350


def deep_case(api, system, family, size, sizes, label, term, reference) -> Case:
    Pair = api.reversible.Pair

    def run(tr):
        nf, witnesses = tr.call("rewrite.normalize_traced", system, term, "innermost")
        out = tr.call("reversible.forward_run", system, Pair(term), "innermost")
        text = tr.call("reversible.format_trace", out.trace)
        trace = tr.call("reversible.parse_trace", text)
        back = tr.call("reversible.backward_run", system, Pair(out.term, trace))
        return nf, witnesses, out, trace, back

    def check(result):
        nf, witnesses, out, trace, back = result
        expect(reference(nf), f"{label}: normalize returned {term_text(nf)[:80]}")
        expect(reference(out.term), f"{label}: forward_run returned {term_text(out.term)[:80]}")
        expect(not back.trace and same_term(back.term, term),
               f"{label}: backward_run did not rebuild the input")
        n_norm, nest_norm = witness_stats(witnesses)
        n_fwd, nest_fwd = trace_stats(out.trace)
        expect(trace_stats(trace)[0] == n_fwd, f"{label}: parse_trace changed the trace")
        return {
            "rewrite.normalize_traced": n_norm,
            "reversible.forward_run": n_fwd,
            "reversible.format_trace": n_fwd,
            "reversible.parse_trace": n_fwd,
            "reversible.backward_run": n_fwd,
            "steps": n_norm + 2 * n_fwd,
            "count.rewrite.steps": n_norm,
            "count.reversible.trace_terms": n_fwd,
            "max.reversible.max_condition_nesting": max(nest_norm, nest_fwd),
        }

    return Case(family, size, size_tag(size, sizes), label, run, check)


def build_deep(api: Api, root: Path, seed: int, tr):
    rng = random.Random(seed)
    addmult = parse_corpus(api, tr, root, "addmult.trs")
    double = parse_corpus(api, tr, root, "double.trs")
    zip_sys = parse_corpus(api, tr, root, "zip.trs")
    App = api.terms.App

    def is_nat(n):
        return lambda t: nat_value(t) == n

    def mult(n):
        x = numeral(api, addmult, n)
        return deep_case(api, addmult, "mult", n, MULT_SIZES, f"mult({n},{n})",
                         App(addmult.signature["mult"], (x, x)), is_nat(n * n))

    def add(n):
        x = numeral(api, addmult, n)
        return deep_case(api, addmult, "add", n, ADD_SIZES, f"add({n},{n})",
                         App(addmult.signature["add"], (x, x)), is_nat(2 * n))

    def dbl(n):
        return deep_case(api, double, "double", n, DOUBLE_SIZES, f"double({2 * n})",
                         App(double.signature["double"], (numeral(api, double, 2 * n),)),
                         is_nat(4 * n))

    def zp(n):
        xs = [str(rng.randrange(10)) for _ in range(n)]
        ys = [str(rng.randrange(10)) for _ in range(n + ZIP_EXTRA)]
        term = App(zip_sys.signature["zip"], (
            cons_list(api, zip_sys, [constant(api, x) for x in xs]),
            cons_list(api, zip_sys, [constant(api, y) for y in ys]),
        ))
        want = list(zip(xs, ys))

        def reference(t):
            items = list_items(t)
            return items is not None and [
                (p.args[0].symbol.name, p.args[1].symbol.name)
                if not is_var(p) and p.symbol.name == "pair" and len(p.args) == 2
                and not p.args[0].args and not p.args[1].args else None
                for p in items
            ] == want

        return deep_case(api, zip_sys, "zip", n, ZIP_SIZES, f"zip({n},{n + ZIP_EXTRA})",
                         term, reference)

    cases = (
        [mult(n) for n in MULT_SIZES]
        + [add(n) for n in ADD_SIZES]
        + [dbl(n) for n in DOUBLE_SIZES]
        + [zp(n) for n in ZIP_SIZES]
    )
    rng.shuffle(cases)
    probes = [dbl(DOUBLE_PROBE), zp(ZIP_PROBE)]
    for probe in probes:
        probe.family += "-probe"
    return cases, probes


# ---------------------------------------------------------------------------
# breadth: criterion-3-style round trips over every corpus system/strategy

BREADTH_STARTS = 100  # start terms per (system, strategy), defined symbols in turn
BREADTH_STEPS = 6
BREADTH_ARG_DEPTH = 3


def random_constructor_term(api: Api, rng, constructors, leaves, depth: int):
    """A random constructor term of depth <= depth."""
    inner = [c for c in constructors if c.arity]
    if depth <= 1 or not inner or rng.random() < 0.4:
        return api.terms.App(rng.choice(leaves))
    c = rng.choice(inner)
    return api.terms.App(c, tuple(
        random_constructor_term(api, rng, constructors, leaves, depth - 1)
        for _ in range(c.arity)
    ))


def random_call(api: Api, rng, system, name: str, depth: int):
    """name applied to random constructor terms of the system's signature
    (a constant ``0`` stands in when the signature has no constant)."""
    constructors = [s for s in system.signature.values() if s.kind == api.terms.CONSTRUCTOR]
    leaves = [s for s in constructors if s.arity == 0] or [api.terms.Symbol("0", 0)]
    f = system.signature[name]
    return api.terms.App(f, tuple(
        random_constructor_term(api, rng, constructors, leaves, depth) for _ in range(f.arity)
    ))


def breadth_case(api, system, rules, name, strategy, start, size) -> Case:
    Pair = api.reversible.Pair
    NoStep = api.errors.NoStep
    initial = Pair(start)

    def run(tr):
        pair = initial
        first = None
        for _ in range(BREADTH_STEPS):
            try:
                pair = tr.call("reversible.forward_step", system, pair, strategy)
            except NoStep:
                break
            if first is None:
                first = pair
        report = tr.call("reversible.is_safe", system, pair.trace)
        back = tr.call("reversible.backward_run", system, pair)
        successors = tr.call("rewrite.step", system, start, strategy)
        return pair, first, report, back, successors

    def check(result):
        pair, first, report, back, successors = result
        label = f"{name} {strategy} {term_text(start)}"
        expect(report.ok, f"{label}: forward trace is not safe")
        expect(not back.trace and same_term(back.term, start),
               f"{label}: backward_run did not restore the start pair")
        expect(bool(successors) == (first is not None),
               f"{label}: step and forward_step disagree on reducibility")
        for w in successors:
            rule = rules.get(w.rule_label)
            expect(rule is not None, f"{label}: unknown rule {w.rule_label}")

            def binding(x, w=w):
                value = w.sigma.get(x)
                if value is None:
                    raise WrongResult(f"{label}: {w.rule_label} leaves {x} unbound")
                return value

            focus = subterm_at(start, w.position)
            expect(focus is not None and same_term(instantiate(rule.lhs, binding), focus),
                   f"{label}: witness lhs does not match at {w.position}")
            expect(same_term(plant(start, w.position, instantiate(rule.rhs, binding)), w.result),
                   f"{label}: witness result is not the rewritten term")
        if first is not None:
            expect(same_term(successors[0].result, first.term),
                   f"{label}: first successor differs from forward_step")
        n, nest = trace_stats(pair.trace)
        return {
            "reversible.is_safe": n,
            "reversible.backward_run": n,
            "rewrite.step": len(successors),
            "steps": 2 * n,
            "count.rewrite.steps": len(successors),
            "count.reversible.trace_terms": n,
            "max.reversible.max_condition_nesting": nest,
        }

    return Case(name, size, "mid", f"{name} {strategy}", run, check)


def build_breadth(api: Api, root: Path, seed: int, tr):
    rng = random.Random(seed)
    cases = []
    for name in CORPUS_FILES:
        system = parse_corpus(api, tr, root, name)
        rules = {r.label: r for r in system.rules}
        defined = sorted(system.defined_symbols)
        for strategy in api.rewrite.STRATEGIES:
            for i in range(BREADTH_STARTS):
                start = random_call(api, rng, system, defined[i % len(defined)], BREADTH_ARG_DEPTH)
                size = len(term_text(start))
                cases.append(breadth_case(api, system, rules, name, strategy, start, size))
    rng.shuffle(cases)
    return cases, []


# ---------------------------------------------------------------------------
# view: get and put on book/dvd record lists of growing length

VIEW_SIZES = (5, 10, 20, 40, 80)
VIEW_KEYS = ("book", "dvd")
# Past the seed's limit: default Bounds cap condition nesting at 100.
VIEW_PROBES = (("get", 100), ("put", 120))


def build_view(api: Api, root: Path, seed: int, tr):
    rng = random.Random(seed)
    source_system = parse_corpus(api, tr, root, "view.trs")
    pc, _ = tr.call("transform.to_pcdctrs", source_system)
    App = api.terms.App
    sig = pc.signature

    def calibrate(t):
        forward = t.call("transform.injectivize", pc)
        t.add_work("transform.injectivize", len(pc.rules))
        t.call("transform.invert", forward)
        t.add_work("transform.invert", len(forward.rules))

    def source(key: str, n: int):
        """Records as (type, price) with n // 2 of the key type."""
        matching = set(rng.sample(range(n), n // 2))
        other = VIEW_KEYS[1 - VIEW_KEYS.index(key)]
        return [(key if i in matching else other, str(rng.randrange(10))) for i in range(n)]

    def records_term(records):
        return cons_list(api, pc, [
            App(sig["r"], (App(sig[kind]), constant(api, price))) for kind, price in records
        ])

    def view_term(prices):
        return cons_list(api, pc, [constant(api, p) for p in prices])

    def prices_of(t):
        items = list_items(t)
        if items is None or any(is_var(x) or x.args for x in items):
            return None
        return [x.symbol.name for x in items]

    def cases_for(key: str, n: int, kinds=("get", "getput", "putget")):
        records = source(key, n)
        key_term = App(sig[key])
        src = records_term(records)
        old_prices = [p for kind, p in records if kind == key]
        new_prices = [str(rng.randrange(10)) for _ in old_prices]
        it = iter(new_prices)
        edited = records_term([(kind, next(it) if kind == key else p) for kind, p in records])
        old_view, new_view = view_term(old_prices), view_term(new_prices)
        tag = size_tag(n, VIEW_SIZES)
        out = []

        def put_check(want_source, label):
            def check(result):
                expect(len(result) == 2 and same_term(result[0], key_term),
                       f"{label}: key argument changed")
                expect(same_term(result[1], want_source), f"{label}: wrong rebuilt source")
                return {"transform.view_update": 1, "records": n}
            return check

        if "get" in kinds:
            label = f"get {key} L={n}"

            def run_get(t):
                return t.call("rewrite.normalize_traced", pc,
                              App(sig["view"], (key_term, src)), "constructor")

            def check_get(result, label=label):
                value, witnesses = result
                expect(prices_of(value) == old_prices, f"{label}: wrong view")
                steps, nest = witness_stats(witnesses)
                return {
                    "rewrite.normalize_traced": steps,
                    "records": n,
                    "count.rewrite.steps": steps,
                    "max.reversible.max_condition_nesting": nest,
                }

            out.append(Case("get", n, tag, label, run_get, check_get))
        if "getput" in kinds:
            label = f"put unchanged {key} L={n}"
            out.append(Case(
                "getput", n, tag, label,
                lambda t: t.call("transform.view_update", pc, (key_term, src), old_view),
                put_check(src, label), calibrate,
            ))
        if "putget" in kinds:
            label = f"put edited {key} L={n}"
            out.append(Case(
                "putget", n, tag, label,
                lambda t: t.call("transform.view_update", pc, (key_term, src), new_view),
                put_check(edited, label), calibrate,
            ))
        return out

    cases = [c for n in VIEW_SIZES for key in VIEW_KEYS for c in cases_for(key, n)]
    rng.shuffle(cases)
    probes = []
    for kind, n in VIEW_PROBES:
        probe = cases_for("book", n, (kind,) if kind == "get" else ("getput",))[0]
        probe.family += "-probe"
        probes.append(probe)
    return cases, probes


# ---------------------------------------------------------------------------
# compile: parse -> to_pcdctrs -> injectivize -> invert -> format_system

SYNTHETIC_RULES = (10, 20, 40, 80)
# CLI pipeline inputs: flattening, removal stages, conditions, lists. A CLI
# op also parses arguments and reads its file, so its time moves with the
# host's system-call latency; four of them keep the median op a library op.
CLI_FILES = ("addmult.trs", "simplify.trs", "view.trs", "zip.trs")
ADD_ONLY = "(VAR x y)(RULES add(0,y) -> y\n add(s(x),y) -> s(add(x,y)))"
# Golden systems of tests/test_transform.py, keyed by input and chain stage.
GOLDENS = {
    "addmult.trs": {"pc": "GOLDEN_ADDMULT_PC"},
    "view.trs": {"pc": "GOLDEN_VIEW_PC", "forward": "GOLDEN_VIEW_F", "backward": "GOLDEN_VIEW_B"},
    "needvars.trs": {"forward": "GOLDEN_NEEDVARS_F", "backward": "GOLDEN_NEEDVARS_B"},
    "zip.trs": {"improved": "GOLDEN_ZIP_F_IMPROVED"},
    "add-only": {"forward": "GOLDEN_ADD_F", "backward": "GOLDEN_ADD_B"},
}
SAMPLES_PER_FUNCTION = 3
SYNTHETIC_SAMPLES = 8


def synthetic_system(rng, functions: int) -> str:
    """A terminating constructor DCTRS of 2 * functions rules: each f_i
    recurses on its first argument and calls only f_1..f_i. The seed picks
    the callees and base values; rule shapes and sizes are fixed, so the
    seed does not change the amount of compile work (three pipeline stages
    per recursive rule)."""
    rules = []
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
    return "(VAR x y z w)\n(CONDITIONTYPE ORIENTED)\n(RULES\n  " + "\n  ".join(rules) + "\n)\n"


def mentions(t, names) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if not is_var(u):
            if u.symbol.name in names:
                return True
            stack.extend(u.args)
    return False


def chain_check(api: Api, label: str, system, pc, forward, backward, samples) -> None:
    """Constructor normal forms agree between the input and its pcDCTRS, and
    the injectivized/inverted pair maps each sample there and back."""
    normalize = api.rewrite.normalize
    parse_term = api.systems.parse_term
    defined = system.defined_symbols
    for name, args in samples:
        call = f"{name}({args})" if args else name
        try:
            want = normalize(system, parse_term(call, system), "constructor")
            got = normalize(pc, parse_term(call, pc), "constructor")
        except api.errors.RevrwError as exc:
            raise WrongResult(f"{label}: {call} raised {type(exc).__name__}") from None
        if mentions(want, defined) and mentions(got, defined):
            continue  # no constructor normal form on either side
        expect(same_term(want, got), f"{label}: {call} normalizes differently after to_pcdctrs")
        if forward is None:
            continue
        inj = f"{name}^i({args})" if args else f"{name}^i"
        pair = normalize(forward, parse_term(inj, forward), "constructor")
        expect(not is_var(pair) and pair.symbol.name == "tuple#2" and same_term(pair.args[0], got),
               f"{label}: {inj} does not return (value, trace)")
        inv = f"{name}^-1({term_text(pair.args[0])},{term_text(pair.args[1])})"
        back = normalize(backward, parse_term(inv, backward), "constructor")
        original = parse_term(call, system)
        expect(not is_var(back) and back.symbol.name.startswith("tuple#")
               and len(back.args) == len(original.args)
               and all(same_term(x, y) for x, y in zip(back.args, original.args)),
               f"{label}: {name}^-1 does not rebuild the arguments of {call}")


def build_compile(api: Api, root: Path, seed: int, tr):
    rng = random.Random(seed)
    goldens = load_goldens(root / "tests" / "test_transform.py")
    parse_system = api.systems.parse_system
    inputs = [(name, (root / "corpus" / name).read_text(encoding="utf-8")) for name in CORPUS_FILES]
    inputs.append(("add-only", ADD_ONLY))

    def parsed(text):
        system = tr.call("systems.parse_system", text)
        tr.add_work("systems.parse_system", len(system.rules))
        return system

    def corpus_samples(system):
        out = []
        for name in sorted(system.defined_symbols):
            for _ in range(SAMPLES_PER_FUNCTION):
                call = random_call(api, rng, system, name, 3)
                out.append((name, ",".join(term_text(a) for a in call.args)))
        return out

    def synthetic_samples(n_functions):
        return [
            (f"f{rng.randint(1, n_functions)}",
             f"{'s(' * a}0{')' * a},{'s(' * b}0{')' * b}")
            for a, b in ((rng.randrange(3), rng.randrange(2)) for _ in range(SYNTHETIC_SAMPLES))
        ]

    def chain(t, system, improvable):
        pc, report = t.call("transform.to_pcdctrs", system)
        forward = t.call("transform.injectivize", pc)
        backward = t.call("transform.invert", forward)
        improved = improved_back = None
        if improvable:
            improved = t.call("transform.injectivize_improved", pc, system)
            improved_back = t.call("transform.invert", improved)
        return pc, report, forward, backward, improved, improved_back

    def library_case(label, text, family, size, tag, samples, improvable):
        golden = {
            stage: parse_system(goldens[name], allow_reserved=True)
            for stage, name in GOLDENS.get(label, {}).items()
            if name in goldens
        }

        def run(t):
            system = t.call("systems.parse_system", text)
            pc, report, forward, backward, improved, improved_back = chain(t, system, improvable)
            outputs = [s for s in (pc, forward, backward, improved, improved_back) if s is not None]
            texts = [t.call("systems.format_system", s) for s in outputs]
            return system, pc, report, forward, backward, improved, improved_back, outputs, texts

        def check(result):
            system, pc, report, forward, backward, improved, improved_back, outputs, texts = result
            produced = {"pc": pc, "forward": forward, "backward": backward, "improved": improved}
            for stage, want in golden.items():
                expect(produced[stage] is not None and systems_isomorphic(produced[stage], want),
                       f"{label}: {stage} system differs from its golden")
            expect(api.systems.validate(pc, "pcdctrs").ok, f"{label}: output is not a pcDCTRS")
            for s, printed in zip(outputs, texts):
                expect(systems_isomorphic(parse_system(printed, allow_reserved=True), s),
                       f"{label}: format_system does not parse back to the same system")
            chain_check(api, label, system, pc, forward, backward, samples)
            if improved is not None:
                chain_check(api, label + " improved", system, pc, improved, improved_back, samples)
            n = len(system.rules)
            rules_out = sum(len(s.rules) for s in outputs)
            return {
                "systems.parse_system": n,
                "transform.to_pcdctrs": len(report.stages),
                "transform.injectivize": len(pc.rules),
                "transform.injectivize_improved": len(pc.rules) if improved is not None else 0,
                "transform.invert": len(forward.rules) + (len(improved.rules) if improved else 0),
                "systems.format_system": rules_out,
                "rules": n,
                "count.transform.to_pcdctrs.stages": len(report.stages),
                "count.transform.rules_out": rules_out,
            }

        return Case(family, size, tag, label, run, check)

    def cli_case(name, system):
        path = str(root / "corpus" / name)

        def run(t):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = t.call("cli.main", ["pipeline", path])
            return code, out.getvalue()

        def check(result):
            code, printed = result
            label = f"cli pipeline {name}"
            expect(code == 0, f"{label}: exit code {code}")
            blocks = []
            for line in printed.splitlines(keepends=True):
                if line.startswith("== ") and line.rstrip().endswith(" =="):
                    blocks.append("")
                elif blocks:
                    blocks[-1] += line
            expect(len(blocks) == 4, f"{label}: {len(blocks)} systems printed, expected 4")
            pc, _ = api.transform.to_pcdctrs(system)
            forward = api.transform.injectivize(pc)
            want = (system, pc, forward, api.transform.invert(forward))
            for block, expected in zip(blocks, want):
                expect(systems_isomorphic(parse_system(block, allow_reserved=True), expected),
                       f"{label}: printed system differs from the library's")
            return {"cli.main": 1, "rules": len(system.rules)}

        return Case("cli", 0, "mid", f"cli pipeline {name}", run, check)

    cases = []
    for label, text in inputs:
        system = parsed(text)
        # Only a constructor TRS qualifies for the improved injectivization.
        improvable = system.is_trs and system.is_constructor_system
        cases.append(library_case(label, text, "corpus", 0, "mid", corpus_samples(system),
                                  improvable))
        if label in CLI_FILES:
            cases.append(cli_case(label, system))
    for n in SYNTHETIC_RULES:
        text = synthetic_system(rng, n // 2)
        parsed(text)
        cases.append(library_case(f"synthetic-{n}", text, "synthetic", n,
                                  size_tag(n, SYNTHETIC_RULES), synthetic_samples(n // 2), False))
    rng.shuffle(cases)
    return cases, []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep", build_deep, tail_percentile=90.0, min_passes=6),
        Workload("breadth", build_breadth, tail_percentile=99.5, min_passes=1),
        Workload("view", build_view, tail_percentile=95.0, min_passes=10),
        Workload("compile", build_compile, tail_percentile=97.5, min_passes=22),
    )
}

"""What a pipeline stage and the systems built from another's rules share
instead of making again: a stage's change text, written only when read, and
symbols, one object per name within a transformation's output and between
the systems of one view."""

from __future__ import annotations

import sys

from revrw import (
    App,
    RewriteSystem,
    Symbol,
    injectivize,
    injectivize_improved,
    invert,
    normalize,
    parse_system,
    parse_term,
    systems,
    to_pcdctrs,
    transform,
    view_update,
)

from .conftest import load
from .test_transform import CRAFTED_DELETIONS


def test_a_stage_writes_its_change_text_only_when_read(monkeypatch):
    formatted = []
    format_rule = systems.format_rule

    def counting(rule):
        formatted.append(rule.label)
        return format_rule(rule)

    monkeypatch.setattr(systems, "format_rule", counting)
    _, report = to_pcdctrs(load("addmult.trs"))
    assert formatted == []
    assert report.stages[0].changes == ("flattening-rhs on b2: add(s(x),y) -> s(_w1) | add(x,y) == _w1 [b2]",)
    assert formatted == ["b2"]
    _, report = to_pcdctrs(parse_system(CRAFTED_DELETIONS))
    assert report.stages[0].label == "r2" and report.stages[0].new_rule is None
    assert formatted == ["b2"]


VIEW_CONSTRUCTORS = ("cons", "nil", "r", "book", "dvd", "true", "false")


def test_the_view_systems_share_their_constructor_symbols(view_sys):
    pc = to_pcdctrs(view_sys)[0]
    forward = injectivize(pc)
    backward = invert(forward)
    for name in VIEW_CONSTRUCTORS:
        assert forward.signature[name] is pc.signature[name], name
        assert backward.signature[name] is pc.signature[name], name


def test_each_generated_symbol_is_one_object_per_call(monkeypatch):
    inputs = []

    def recording(rules):
        rules = tuple(rules)
        inputs.append(rules)
        return RewriteSystem(rules)

    pc, _ = to_pcdctrs(load("zip.trs"))
    monkeypatch.setattr(transform, "RewriteSystem", recording)
    invert(injectivize(pc))
    invert(injectivize_improved(pc, load("zip.trs")))
    assert len(inputs) == 4
    for rules in inputs:
        seen: dict[str, set[int]] = {}
        stack = [t for r in rules for t in (r.lhs, r.rhs, *(x for c in r.conditions for x in (c.lhs, c.rhs)))]
        while stack:
            u = stack.pop()
            if isinstance(u, App):
                seen.setdefault(u.symbol.name, set()).add(id(u.symbol))
                stack.extend(u.args)
        generated = {n: ids for n, ids in seen.items() if n.startswith("tuple#") or n.endswith(("^i", "^-1"))}
        assert generated and all(len(ids) == 1 for ids in generated.values()), generated


class _CountingArity:
    """`Symbol.arity`, counting the reads made by generated rule code: a
    symbol test reads arities only when the subject's symbol is another
    object than the pattern's, of the same name."""

    def __init__(self, slot):
        self.slot = slot
        self.reads = 0

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.slot
        if sys._getframe(1).f_code.co_filename == "<revrw.programs>":
            self.reads += 1
        return self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)


def test_a_view_put_over_the_pcdctrs_symbols_meets_no_symbol_fallback(view_sys, monkeypatch):
    pc = to_pcdctrs(view_sys)[0]
    sig = pc.signature
    book, dvd = App(sig["book"]), App(sig["dvd"])
    prices = [parse_term(p, pc) for p in ("0", "s(0)", "s(s(0))", "s(s(s(0)))")]
    succ = prices[1].symbol
    source = App(sig["nil"])
    for i in range(12):
        source = App(sig["cons"], (App(sig["r"], (dvd if i % 3 == 2 else book, prices[i % 4])), source))
    view = normalize(pc, App(sig["view"], (book, source)), "constructor")
    # Every book's price one higher.
    new_view, items = App(sig["nil"]), []
    while view.args:
        items.append(App(succ, (view.args[0],)))
        view = view.args[1]
    for item in reversed(items):
        new_view = App(sig["cons"], (item, new_view))
    counter = _CountingArity(Symbol.__dict__["arity"])
    monkeypatch.setattr(Symbol, "arity", counter)
    updated = view_update(pc, (book, source), new_view)
    monkeypatch.undo()
    assert counter.reads == 0
    assert normalize(pc, App(sig["view"], updated), "constructor") == new_view
    assert updated[1] != source

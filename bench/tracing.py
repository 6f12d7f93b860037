"""Spans around the benchmark's calls into revrw.

One root span per operation (or per set-up, or per calibration) and one
child span per call into a layer. Spans are kept in memory and written out
when the run ends. A span's self time is its duration minus the time its
children cover. Calls, time, self time and work units are also summed per
(root kind, span name, size tag) as spans close, so the per-layer metrics
need no second pass over the spans.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

LAYERS = ("systems", "rewrite", "reversible", "transform", "cli")
CALLS, TOTAL, SELF, WORK = range(4)


class Tracer:
    """``call``/``span`` record a span while ``enabled`` and are plain calls
    otherwise. ``api`` resolves ``module.function`` names to revrw functions."""

    def __init__(self) -> None:
        self.enabled = False
        self.api = None
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self._stack: list[list] = []  # [span index, time covered by children]
        self.totals: dict[tuple[str, str, str], list] = {}
        self._root = ("", -1, "")  # (kind, op id, size tag) of the open root

    def call(self, qualified: str, *args):
        """Call the revrw function named ``module.function``."""
        return self.span(qualified, self.api.function(qualified), *args)

    def span(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()

    def root(self, kind: str, op_id: int, tag: str) -> "_Root":
        """Context manager for a root span: ``op``, ``setup`` or ``calibrate``."""
        return _Root(self, kind, op_id, tag)

    def add_work(self, name: str, units: int) -> None:
        """Credit work units (steps, trace terms, rules) to calls of ``name``
        under the open root."""
        if self.enabled:
            kind, _, tag = self._root
            self._entry(kind, name, tag)[WORK] += units

    def sum(self, name: str, field: int, tag: str | None, kinds) -> float:
        return sum(
            v[field]
            for (k, n, t), v in self.totals.items()
            if n == name and k in kinds and (tag is None or t == tag)
        )

    def sum_layer(self, layer: str, field: int, kinds) -> float:
        return sum(
            v[field]
            for (k, n, _), v in self.totals.items()
            if n.split(".")[0] == layer and k in kinds
        )

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def _entry(self, kind: str, name: str, tag: str) -> list:
        key = (kind, name, tag)
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0, 0]
        return entry

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self._root[1]))
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self) -> None:
        end = perf_counter()
        index, children = self._stack.pop()
        name, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, op_id)
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        kind, _, tag = self._root
        entry = self._entry(kind, name, tag)
        entry[CALLS] += 1
        entry[TOTAL] += duration
        entry[SELF] += duration - children


class _Root:
    def __init__(self, tracer: Tracer, kind: str, op_id: int, tag: str):
        self.tracer = tracer
        self.root = (kind, op_id, tag)

    def __enter__(self) -> None:
        t = self.tracer
        if t.enabled:
            t._root = self.root
            t._open("root." + self.root[0])

    def __exit__(self, *exc) -> None:
        t = self.tracer
        if t.enabled:
            t._close()
            t._root = ("", -1, "")

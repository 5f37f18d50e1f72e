"""In-memory spans for the traced benchmark run.

A span is ``[id, parent_id, name, start, end]`` with times from
``time.perf_counter``.  Spans stay in memory and are written once, when the
run ends.  Layers are traced from outside the program: ``patch`` swaps a
module attribute for a wrapper that opens a span around every call, and
``restore`` puts the originals back.  Counters are attached to the root span
that is open when they are counted.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[self._stack[0]][name] += value

    def patch(self, module, attr: str, name, after=None) -> None:
        """Trace every call of ``module.attr``.

        ``name`` is a span name, or a function of the bound call arguments
        that returns one.  ``after(result, arguments)`` derives counters from
        the returned object; it runs in a ``trace.count`` span of its own so
        that its cost is not charged to the caller's self time.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            if callable(name) or after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            rec = tracer._open(name(bound.arguments) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                with tracer.span("trace.count"):
                    after(result, bound.arguments)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self, root: list) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name under one root span.

        A span nested in a span of the same name is not counted again in
        the total.  Self time is a span's duration minus its children's;
        the run is single-threaded, so children never overlap.
        """
        children: dict[int, list[list]] = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append(s)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        todo = [(root, frozenset())]
        while todo:
            span, open_names = todo.pop()
            duration = span[4] - span[3]
            kids = children[span[0]]
            if span[2] not in open_names:
                total[span[2]] += duration
            self_time[span[2]] += duration - sum(k[4] - k[3] for k in kids)
            todo.extend((k, open_names | {span[2]}) for k in kids)
        return total, self_time

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median over rows; a key absent from a row counts as 0."""
    keys = set().union(*rows) if rows else set()
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}

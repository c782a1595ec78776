"""In-memory span tracer that wraps names at module boundaries.

The benchmark never edits the package: it replaces a name in the module that
*calls* it (``concatqec.ensemble._coset_map_batch``, not only the definition
in ``levelmap``), so the wrapper sees exactly the calls that cross that
boundary.  Each call becomes a span (name, start, end, parent span, op id,
self time); per-row calls are kept as counters (calls and summed time) so
that a million-call method does not produce a million spans.  A span's self
time is its duration minus the time of the calls made inside it, counted or
spanned alike.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self.paused = False
        self._stack: list[list] = []  # open frames: [span index, child seconds]
        self._undo: list[tuple] = []

    def call(self, name: str, fn, args=(), kwargs=None, *, spanless=False):
        """Run fn(*args, **kwargs) as one traced call named ``name``."""
        kwargs = kwargs or {}
        if self.paused:
            return fn(*args, **kwargs)
        frame = [None if spanless else len(self.spans), 0.0]
        parent = self._stack[-1] if self._stack else None
        if not spanless:
            self.spans.append(None)  # reserve the index for nested spans
        self._stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            if spanless:
                self.counts[name + ".calls"] += 1
                self.counts[name + ".s"] += end - start
            else:
                self.spans[frame[0]] = (
                    name, start, end, parent[0] if parent else None,
                    self.op_id, end - start - frame[1])

    def wrap(self, owner, attr: str, name: str, *, spanless=False,
             before=None, observe=None):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``observe(args, result, pre)`` runs after each traced call, with
        ``pre = before(args)`` taken just before it, and may add to
        :attr:`counts`; neither hook is timed as part of the call.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            pre = before(args) if before is not None else None
            result = self.call(name, fn, args, kwargs, spanless=spanless)
            if observe is not None:
                observe(args, result, pre)
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str):
        """Trace each ``next`` of the generators that ``owner.attr`` returns."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,))
                except StopIteration:
                    return
                yield item

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, start, end, _parent, _op, self_s in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += self_s
        return out

    def children_of(self, name: str, child: str) -> list[int]:
        """For each span named ``name``, how many direct children are ``child``."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[0] == child and s[3] in counts:
                counts[s[3]] += 1
        return list(counts.values())

    def dump(self, path: str):
        """Write the spans and counters as JSON."""
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "self_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

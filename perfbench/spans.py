"""In-memory spans for traced benchmark runs.

Workload code calls into the library through `tracer.call(name, fn, ...)`.
An untraced run uses `NullTracer`, whose `call` is a plain call; a traced run
uses `Tracer`, which records one span per call: name, start, end, parent span
and operation id.  Spans stay in memory and are written out once, at the end
of the run.  A span's self time is its duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class NullTracer:
    """Records nothing; `call` is a direct call."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or None, op id, weight]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, weight=1):
        """`weight` is the number of library calls the span covers, for spans
        that time a whole probe loop rather than a single call."""
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._op, weight]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    @contextmanager
    def operation(self, op_id):
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def self_seconds(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, total weight)."""
        covered = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _, weight) in enumerate(self.spans):
            out[name][0] += (end - start) - covered[i]
            out[name][1] += weight
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op", "weight"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )

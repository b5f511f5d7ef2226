"""In-memory spans around calls into hrlq; the run writes them out when it ends."""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records (name, parent, start_ns, end_ns) spans; parent is an index or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, self._open[-1] if self._open else -1, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._open.append(idx)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._open.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total ns, and self ns (duration minus child spans)."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[idx]
        return out

    def self_us(self, name: str) -> float:
        """Mean self time of one `name` span, in microseconds."""
        entry = self.summary()[name]
        return entry["self_ns"] / entry["calls"] / 1e3


class NoTracer:
    """The untraced run: spans cost one shared null context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

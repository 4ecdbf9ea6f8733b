"""In-memory spans recorded around the benchmark's calls into p4hat.

A span has a name, the layer (package module) it enters, start and end
times, the span that caused it, a trace id shared by every span under one
root, and the number of calls it covers (a span may time a batch of calls).
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    trace_id: int
    parent: int | None
    name: str
    layer: str
    calls: int
    start_ns: int
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records nested spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._traces = 0

    @contextmanager
    def span(self, name: str, layer: str, calls: int = 1):
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._traces += 1
        span = Span(len(self.spans), parent.trace_id if parent else self._traces,
                    parent.span_id if parent else None, name, layer, calls, 0)
        self.spans.append(span)
        self._open.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time (span time minus child spans) and ns/call."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.layer, {"calls": 0, "self_ns": 0})
            entry["calls"] += span.calls
            entry["self_ns"] += span.end_ns - span.start_ns - child_ns[span.span_id]
        return {
            layer: {
                "calls": e["calls"],
                "self_s": e["self_ns"] / 1e9,
                "ns_per_call": e["self_ns"] / e["calls"],
            }
            for layer, e in out.items()
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="ascii")

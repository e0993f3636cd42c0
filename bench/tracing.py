"""In-memory spans around the benchmark's calls into the library.

A span records its name, start and end (``perf_counter`` seconds), the span
that caused it and the operation it belongs to.  Spans are kept in a list
and written out once the timed phase is over.  Spans wrap public calls from
the benchmark's side only; nothing inside the library is patched.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    ok: bool


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        ok = False
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(self.op, sid, parent, name, start, end, ok)

    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its duration minus the time its children cover.

        Children run one after another inside their parent, so the covered
        time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [(s, s.end - s.start - covered[s.id]) for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

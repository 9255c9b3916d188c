"""In-memory spans around calls into kronfft, recorded from outside the library.

A span has a name (``<module>.<call>``), a start, an end, the index of its
parent span and the id of the op it belongs to.  Spans stay in memory and are
written out once the run ends.  A span's self time is its duration minus the
time its child spans cover; the benchmark runs in one thread, so children
never overlap and that cover is the sum of their durations.
"""
from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from time import perf_counter

SETUP = "setup"


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans; ``op`` labels the spans opened until it is changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block; counts given here, or by ``note`` after it, stay on the span."""
        parent = self._open[-1] if self._open else None
        s = Span(name, self.op, parent, counts=dict(counts))
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = perf_counter()
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            s.end = perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_time += s.duration

    def note(self, span: Span, counter, *args) -> None:
        """Add ``counter(*args)`` to a closed span's counts, outside its timed interval."""
        span.counts.update(counter(*args))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_ms": s.self_time * 1e3,
                    "failed": s.failed,
                    "counts": s.counts,
                }) + "\n")


class NullTracer:
    """Tracer that records nothing, so untraced ops run the same code without spans."""

    _cm = contextlib.nullcontext()

    def span(self, name: str, **counts):
        return self._cm

    def note(self, span, counter, *args) -> None:
        pass


NO_TRACE = NullTracer()

"""In-memory spans recorded by the benchmark around its calls into cramerkit.

A span is (name, start_ns, end_ns, parent, op).  ``name`` is
``module.function`` of the call it wraps; its layer is the part before the
first dot.  Spans are only appended to a list while the benchmark runs and
are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into Tracer.spans
    op: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Records nested spans; ``op`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_ms_by_layer(self) -> dict[str, float]:
        """Each layer's self time: span time not covered by its child spans."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_ns):
            own = s.end_ns - s.start_ns - covered
            out[s.layer] = out.get(s.layer, 0.0) + own / 1e6
        return out


_NULL = contextlib.nullcontext()


def no_span(name: str):
    """Stand-in for ``Tracer.span`` in untraced ops: records nothing."""
    return _NULL

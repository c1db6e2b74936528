"""In-memory spans and counts recorded around calls into the package.

A span is (name, start, end, parent, op): the name's first dotted part is
the layer (``waxman``, ``lanczos``, ``shooting``, ``cli``; ``op`` for the
benchmark's own operation spans).  Spans stay in memory and are reduced
when the run ends.  A disabled tracer calls straight through, so timed
runs pay nothing for it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def operation(self, kind: str):
        """Span of one benchmark operation; returns its id (None untraced)."""
        if not self.enabled:
            yield None
            return
        op_id = self._next_op
        self._next_op += 1
        self._op = op_id
        try:
            with self.span(f"op.{kind}"):
                yield op_id
        finally:
            self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        if self.enabled:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def median(self, name: str) -> float:
        durations = [s.duration for s in self.spans if s.name == name]
        if not durations:
            raise KeyError(f"no span named {name}")
        return statistics.median(durations)

    def self_times(self, ops: set[int]) -> dict[str, float]:
        """Self time per layer, over the spans of the given operations.

        A span's self time is its duration minus its children's; spans of
        one thread never overlap, so the children's durations add up.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.op in ops:
                out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time[i]
        return out

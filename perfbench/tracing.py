"""Spans around the benchmark's calls into nesypat, kept in memory.

A span has a name ``<layer>.<function>``, where the layer is the module
under ``src/nesypat/`` that the function belongs to.  Calls the program
makes internally are invisible from outside, so the traced run calls
them again afterwards on the same inputs and records those replays as
children of the call whose inner work they repeat.  A span's self time
is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    doc: int
    name: str
    start: float
    end: float
    calls: int = 1
    raised: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise ``span`` only runs the body."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.doc = 0
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, parent: int | None = None, calls: int = 1):
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        record = Span(sid, parent, self.doc, name, time.process_time(), 0.0, calls)
        self.spans.append(record)
        try:
            yield sid
        except BaseException:
            record.raised = True
            raise
        finally:
            record.end = time.process_time()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Self time per span name, never below zero per span (a replay
        can run slightly longer than the call it repeats)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s.name] = out.get(s.name, 0.0) + max(0.0, s.duration - covered)
        return out

    def busy(self, name: str) -> tuple[float, int, float]:
        """(total duration, calls, longest span) of one span name."""
        spans = [s for s in self.spans if s.name == name]
        return (sum(s.duration for s in spans), sum(s.calls for s in spans),
                max((s.duration for s in spans), default=0.0))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")

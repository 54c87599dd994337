"""Spans and counters recorded around calls into prachjam, from outside it.

A span is recorded by replacing a module attribute with a wrapper that
notes its start, end and parent span. Spans stay in memory; self times
(span minus child spans) are computed once the traced work has ended.
Counters (FFT calls and points) record no span, so the layer that calls an
FFT keeps that time in its own self time. Wrappers draw no random numbers
and pass arguments and results through unchanged, so traced runs produce
the same records as untraced ones.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock  # seconds; spans are timed with it
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tags: dict[int, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str, fn, tag=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``tag(*args, **kwargs)``, when given, is stored with the span.
        """
        names, parents, starts, ends, stack, clock = (
            self.names, self.parents, self.starts, self.ends, self._stack, self.clock
        )

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if tag is not None:
                self.tags[sid] = tag(*args, **kwargs)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return wrapper

    def counter(self, name: str, fn, size):
        """Wrap ``fn`` to count its calls and ``size(*args)`` per call."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            counts[name + ".points"] += size(*args)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, spans, counters=()):
        """Patch module attributes for the duration of the block.

        ``spans`` holds ``(module, attribute, span_name, tag)`` and
        ``counters`` holds ``(module, attribute, counter_name, size)``.
        """
        saved = []
        try:
            for module, attr, name, tag in spans:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.span(name, getattr(module, attr), tag))
            for module, attr, name, size in counters:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.counter(name, getattr(module, attr), size))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return dur - child

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total self seconds)``."""
        own = self.self_times()
        out: dict[str, tuple[int, float]] = {}
        for name, t in zip(self.names, own):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + float(t))
        return out

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        dur = self.durations()
        return float(sum(d for d, p in zip(dur, self.parents) if p < 0))

    def write(self, path: Path) -> None:
        """One JSON object per span: id, parent, name, start and end (s)."""
        with Path(path).open("w") as fh:
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start_s": start, "end_s": end}
                    )
                    + "\n"
                )

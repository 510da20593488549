"""In-memory span recorder, parser-iterator timer and collector-pause monitor.

Spans sit only around calls into mvsum's public API; a span holds its name,
start, end, parent span, op id and free-form attributes. A layer's self time
is its span minus the spans of its children.
"""

from __future__ import annotations

import gc
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans in memory; `spans` is written out when the run ends."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the block; yields the span record, whose `attrs` the caller fills.

        The parent is the innermost open span of the calling thread, or
        `parent` for a thread that has none open (a merge worker thread).
        """
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        rec = {"id": sid, "name": name, "parent": stack[-1] if stack else parent, "op": self.op, "attrs": {}}
        stack.append(sid)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def timed_iter(self, it):
        return TimedIter(it)


class NullTracer:
    """The untraced path: same calls, no spans, the parser iterator unwrapped."""

    enabled = False
    op = None

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        yield {"attrs": {}}

    def timed_iter(self, it):
        return it


class TimedIter:
    """Wraps an iterator and sums the time spent in its `next()` calls.

    Used on `parse_ntriples(fh)` inside `build_graph(...)`, so parse time is
    separated from graph building without materialising the triples.
    """

    def __init__(self, it):
        self._it = it
        self.seconds = 0.0
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        t = perf_counter()
        try:
            item = next(self._it)
        finally:
            self.seconds += perf_counter() - t
        self.count += 1
        return item


class GcMonitor:
    """Collector pauses and generation-2 collections, via `gc.callbacks`."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.pause_s += perf_counter() - self._started
        self.collections += 1
        if info["generation"] == 2:
            self.gen2 += 1

    def reset(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self.gen2 = 0

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


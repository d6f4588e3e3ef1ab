"""In-memory spans around the calls into each layer.

The benchmark's own code opens a span around each call it makes into a
layer; for calls a layer makes into another (``run_sweep`` into the
store, the pool, ``SimJob.key``) :meth:`Tracer.wrap` installs a
wrapper on the public callable for the length of the traced run and
:meth:`Tracer.unwrap_all` puts the original back. Nothing inside
``src/`` is touched, and end-to-end numbers never come from a traced
run: a disabled tracer hands out a shared no-op span.

A span records name, start, end, the span that caused it (its parent
on the same thread) and the run id all spans of one workload share.
Counts are taken at the same boundaries. Self time is a span's
duration minus the part its child spans cover; children of one thread
nest, so that is the sum of their durations. Everything is written
out when the run ends, in the Chrome trace-event subset that
``repro.observability.export.validate_chrome_trace`` checks, so
Perfetto shows a benchmark trace beside a machine trace.
"""

from __future__ import annotations

import functools
import gc
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    parent_id: int | None
    thread: int
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def self_s(self) -> float:
        return (self.end_ns - self.start_ns - self.child_ns) / 1e9


class Stopwatch:
    """What :meth:`Tracer.timed` yields."""

    seconds = 0.0


class Tracer:
    """Span and count recorder for one workload run."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._origin_ns = time.perf_counter_ns()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}
        self._wrapped: list[tuple[object, str, object]] = []
        self._next_id = 0

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        """Time the enclosed block as one span (a no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
            thread = self._threads.setdefault(threading.get_ident(),
                                              len(self._threads))
        span = Span(span_id, name, parent.span_id if parent else None,
                    thread, time.perf_counter_ns(), args=args)
        stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += span.end_ns - span.start_ns
            self.spans.append(span)      # list.append is atomic

    @contextmanager
    def timed(self, name: str, **args):
        """A span around the enclosed block that also hands back its
        wall time (``.seconds``, set on exit), recording or not."""
        watch = Stopwatch()
        with self.span(name, **args):
            start = time.perf_counter()
            try:
                yield watch
            finally:
                watch.seconds = time.perf_counter() - start

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a count taken at a layer boundary."""
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    # ------------------------------------------------------------- wrappers

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Route ``owner.attribute`` (a public function of a module or
        method of a class) through a span until :meth:`unwrap_all`."""
        if not self.enabled:
            return
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._wrapped.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        """Restore every callable :meth:`wrap` replaced."""
        while self._wrapped:
            owner, attribute, original = self._wrapped.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- reading

    def durations(self, name: str) -> list[float]:
        """Durations (s) of every finished span called ``name``."""
        return [s.duration_s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(span.name,
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration_s
            row["self_s"] += span.self_s
        return table

    def self_s(self, name: str) -> float:
        """Summed self time (s) of the spans called ``name``."""
        return sum(s.self_s for s in self.spans if s.name == name)

    # --------------------------------------------------------------- export

    def chrome_trace(self) -> dict:
        """The run as Chrome trace-event JSON (``M``/``X``/``C`` phases,
        integer microsecond timestamps)."""
        events: list[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": f"perf {self.run_id}"}}]
        for ident, tid in sorted(self._threads.items(), key=lambda kv: kv[1]):
            events.append({"ph": "M", "pid": 0, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": f"bench thread {tid}"}})
        end_us = 0
        for span in sorted(self.spans, key=lambda s: s.start_ns):
            ts = max(0, (span.start_ns - self._origin_ns) // 1000)
            dur = max(0, (span.end_ns - span.start_ns) // 1000)
            end_us = max(end_us, ts + dur)
            args = {"run_id": self.run_id, "span_id": span.span_id,
                    "self_us": max(0, (span.end_ns - span.start_ns
                                       - span.child_ns) // 1000)}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.args)
            events.append({"ph": "X", "pid": 0, "tid": span.thread,
                           "cat": "perf", "name": span.name,
                           "ts": int(ts), "dur": int(dur), "args": args})
        for name, value in sorted(self.counts.items()):
            events.append({"ph": "C", "pid": 0, "tid": 0, "name": name,
                           "ts": int(end_us), "args": {"count": value}})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"run_id": self.run_id}}


def trace_overhead(repeats: int, section) -> float:
    """Traced / untraced wall of ``section(traced)`` - 1: ``repeats``
    runs a side, alternating which side goes, medians compared."""
    walls = {True: [], False: []}
    for repeat in range(2 * repeats):
        traced = repeat % 2 == 0
        gc.collect()
        start = time.perf_counter()
        section(traced)
        walls[traced].append(time.perf_counter() - start)
    return statistics.median(walls[True]) / statistics.median(walls[False]) \
        - 1.0

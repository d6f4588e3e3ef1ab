"""Structured observability for the simulator.

Three pieces, layered on the machine models without touching their
timing behavior:

* :mod:`repro.observability.events` — a zero-cost-when-disabled
  structured event bus. Instrumentation points in the pipeline, the
  sequencer/core, the ARB, and the memory system emit ``__slots__``
  event records through an attached :class:`EventBus`; when no bus is
  attached every site is a single ``is not None`` check.
* :mod:`repro.observability.metrics` — a :class:`MetricsRegistry` of
  counters, gauges, and histograms. :func:`collect_metrics` builds one
  from a finished processor's stat objects; the registry serializes
  through the engine result envelope so ``repro sweep`` can aggregate
  metrics across cached runs.
* :mod:`repro.observability.export` — exporters: Chrome trace-event
  JSON (loadable in Perfetto or ``chrome://tracing``, one track per
  processing unit plus sequencer/ring/ARB/memory tracks), a terminal
  cycle-attribution flamegraph, and the per-unit task timeline folded
  from the ``task`` events.

The user-facing entry point is ``python -m repro trace <workload>``;
see docs/OBSERVABILITY.md for the event taxonomy and a Perfetto
walkthrough.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Category",
    "EventBus",
    "TraceEvent",
    "MetricsRegistry",
    "Histogram",
    "collect_metrics",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "render_flamegraph",
    "render_timeline",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "events": ("Category", "EventBus", "TraceEvent"),
    "export": (
        "chrome_trace", "render_flamegraph", "render_timeline",
        "validate_chrome_trace", "write_chrome_trace",
    ),
    "metrics": ("Histogram", "MetricsRegistry", "collect_metrics"),
})

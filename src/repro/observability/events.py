"""The structured event bus (zero-cost when disabled).

Every instrumented component — ``MultiscalarProcessor``,
``UnitPipeline``, ``BankedDataCache``/``ScalarDataCache``,
``SplitTransactionBus`` — carries a ``trace`` attribute that defaults
to ``None``; an emission site is then a single ``is not None`` check,
which is what keeps tracing out of the simulator's hot-path budget
(tier-1 holds an attached-but-masked bus to <= 0.2% extra Python calls
and zero events built, counted by
``repro.harness.bench.measure_trace_overhead``). :meth:`EventBus.attach`
plants one bus into every component of a processor, mirroring how
``repro.core.tracer.TaskTracer`` attaches as an observer.

Events are emitted only at *discrete state transitions* that both the
fast-path and the reference per-cycle simulator execute at identical
cycles (task lifecycle edges, ring messages, ARB violations, cache
misses, bank conflicts, bus transactions, and pipeline stall-reason
*changes*). The quiescence-aware cycle skip only elides cycles whose
stall reason is provably stable, so the event stream is bit-identical
under ``--no-fast-path`` and across a snapshot/resume boundary —
both are pinned by tests/test_observability.py.
"""

from __future__ import annotations

import enum


class Category(enum.IntFlag):
    """Bitmask event categories (see docs/OBSERVABILITY.md)."""

    TASK = 1       #: task lifecycle: assign / stop / retire / squash
    PIPE = 2       #: per-unit pipeline stall-reason transitions
    RING = 4       #: register forwarding ring sends and deliveries
    ARB = 8        #: ARB violations, overflow squashes, occupancy
    MEM = 16       #: dcache bank conflicts, misses, bus transactions
    SEQ = 32       #: sequencer: descriptor fetches
    PREDICT = 64   #: task predictor: predictions and validations
    ALL = 127      #: every category

    @classmethod
    def parse(cls, spec: str) -> "Category":
        """Parse a comma-separated category list (``"task,ring,arb"``).

        ``"all"`` (or an empty string) selects every category; names
        are case-insensitive. Raises ``ValueError`` on unknown names.
        """
        spec = spec.strip()
        if not spec or spec.lower() == "all":
            return cls.ALL
        mask = cls(0)
        for part in spec.split(","):
            name = part.strip().upper()
            if not name:
                continue
            try:
                mask |= cls[name]
            except KeyError:
                valid = ", ".join(m.name.lower() for m in _MEMBERS)
                raise ValueError(
                    f"unknown event category {part.strip()!r} "
                    f"(valid: {valid}, all)") from None
        return mask


#: Individual members, in definition order (excludes the ALL alias).
_MEMBERS = tuple(m for m in Category if m.name != "ALL")


class TraceEvent:
    """One structured event: a timestamped, categorized record.

    ``ts`` is the simulated cycle, ``tid`` the processing-unit index
    the event belongs to (``-1`` for machine-wide events: sequencer,
    ARB, memory system), ``args`` an optional payload dict.
    """

    __slots__ = ("ts", "cat", "name", "tid", "args")

    def __init__(self, ts: int, cat: int, name: str, tid: int,
                 args: dict | None) -> None:
        self.ts = ts
        self.cat = cat
        self.name = name
        self.tid = tid
        self.args = args

    def key(self) -> tuple:
        """Canonical comparison key (args in sorted-item order)."""
        args = None if self.args is None else tuple(sorted(self.args.items()))
        return (self.ts, int(self.cat), self.name, self.tid, args)

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceEvent) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        cat = Category(self.cat)
        return (f"TraceEvent(ts={self.ts}, cat={cat.name or int(cat)}, "
                f"name={self.name!r}, tid={self.tid}, args={self.args!r})")


class EventBus:
    """Collects :class:`TraceEvent` records, filtered at the source.

    ``categories`` is a :class:`Category` bitmask; events outside it
    (or outside the optional ``[window_start, window_end)`` cycle
    window) are counted in :attr:`dropped` and never materialized.
    """

    __slots__ = ("mask", "window", "events", "dropped")

    def __init__(self, categories: Category = Category.ALL,
                 window: tuple[int, int] | None = None) -> None:
        self.mask = int(categories)
        self.window = window
        self.events: list[TraceEvent] = []
        self.dropped = 0

    def emit(self, cat: int, name: str, ts: int, tid: int = -1,
             args: dict | None = None) -> None:
        """Record one event (dropped if filtered by mask or window)."""
        if not (cat & self.mask):
            self.dropped += 1
            return
        window = self.window
        if window is not None and not (window[0] <= ts < window[1]):
            self.dropped += 1
            return
        self.events.append(TraceEvent(ts, cat, name, tid, args))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def clear(self) -> None:
        """Drop all collected events and reset the dropped counter."""
        self.events.clear()
        self.dropped = 0

    # -------------------------------------------------------- attachment

    def attach(self, processor) -> "EventBus":
        """Plant this bus into every instrumented component.

        Accepts a ``MultiscalarProcessor`` or a ``ScalarProcessor``
        (duck-typed on the ``units`` attribute). Returns ``self`` so
        ``EventBus().attach(p)`` reads naturally.
        """
        return self._set(processor, self)

    @staticmethod
    def detach(processor) -> None:
        """Remove any attached bus from the processor's components."""
        EventBus._set(processor, None)

    @staticmethod
    def _set(processor, bus: "EventBus | None"):
        processor.trace = bus
        units = getattr(processor, "units", None)
        if units is not None:
            for slot in units:
                slot.pipeline.trace = bus
                slot.pipeline.trace_tid = slot.index
        else:
            processor.pipeline.trace = bus
            processor.pipeline.trace_tid = 0
        processor.dcache.trace = bus
        processor.bus.trace = bus
        return bus

"""Trace exporters: Chrome trace-event JSON and a terminal flamegraph.

:func:`chrome_trace` turns an :class:`~repro.observability.events.EventBus`
event stream into the Chrome trace-event JSON object format — load the
file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
One timeline track per processing unit carries task slices ("X"
complete events, one per task occupancy) stacked over pipeline-state
slices (issue/stall windows rebuilt from stall-reason transition
events); machine-wide tracks carry sequencer, ring, ARB, and memory
events. Simulated cycles map 1:1 to trace microseconds.

:func:`validate_chrome_trace` is the schema check used by the tests,
``repro.tools.validate_trace``, and the CI trace-smoke job.
:func:`render_flamegraph` prints the paper's Section-3 cycle
taxonomy as an indented terminal bar chart, and
:func:`render_timeline` folds the task-lifecycle events into an ASCII
Gantt chart of the unit queue (``repro run --timeline``).
"""

from __future__ import annotations

import json

from repro.observability.events import Category

#: Fixed thread ids for the machine-wide tracks (units use 0..N-1).
SEQUENCER_TID = 100
RING_TID = 101
ARB_TID = 102
MEMORY_TID = 103

_TRACK_NAMES = {SEQUENCER_TID: "sequencer", RING_TID: "ring",
                ARB_TID: "ARB", MEMORY_TID: "memory"}

_INSTANT_TRACK = {int(Category.RING): RING_TID,
                  int(Category.ARB): ARB_TID,
                  int(Category.MEM): MEMORY_TID,
                  int(Category.SEQ): SEQUENCER_TID,
                  int(Category.PREDICT): SEQUENCER_TID}


def _meta(name: str, tid: int, value: str, sort_index: int) -> list[dict]:
    return [
        {"ph": "M", "pid": 0, "tid": tid, "name": name,
         "args": {"name": value}},
        {"ph": "M", "pid": 0, "tid": tid, "name": "thread_sort_index",
         "args": {"sort_index": sort_index}},
    ]


def chrome_trace(events, *, num_units: int, total_cycles: int,
                 label: str = "repro") -> dict:
    """Build a Chrome trace-event JSON object from an event stream.

    ``events`` is an iterable of :class:`TraceEvent` (an
    :class:`EventBus` works directly); ``num_units`` sizes the per-unit
    tracks and ``total_cycles`` closes any still-open slices at the end
    of the run. Returns the JSON-able dict; see
    :func:`write_chrome_trace` for stable serialization.
    """
    out: list[dict] = [{"ph": "M", "pid": 0, "tid": 0,
                        "name": "process_name",
                        "args": {"name": f"repro: {label}"}}]
    for unit in range(num_units):
        out.extend(_meta("thread_name", unit, f"unit {unit}", unit))
    for tid, name in _TRACK_NAMES.items():
        out.extend(_meta("thread_name", tid, name, tid))

    cat_task, cat_pipe = int(Category.TASK), int(Category.PIPE)
    cat_arb, cat_mem = int(Category.ARB), int(Category.MEM)
    # Per-unit open slices: tid -> [start_ts, name, args].
    open_task: dict[int, list] = {}
    open_pipe: dict[int, list] = {}

    def close_pipe(tid: int, ts: int) -> None:
        slice_ = open_pipe.pop(tid, None)
        if slice_ is None or ts <= slice_[0]:
            return
        out.append({"ph": "X", "pid": 0, "tid": tid, "cat": "pipe",
                    "name": slice_[1], "ts": slice_[0],
                    "dur": ts - slice_[0]})

    def close_task(tid: int, ts: int, how: str) -> None:
        close_pipe(tid, ts)
        slice_ = open_task.pop(tid, None)
        if slice_ is None:
            return
        args = dict(slice_[2])
        args["end"] = how
        out.append({"ph": "X", "pid": 0, "tid": tid, "cat": "task",
                    "name": slice_[1], "ts": slice_[0],
                    "dur": max(0, ts - slice_[0]), "args": args})

    for event in events:
        cat, name, ts, tid = event.cat, event.name, event.ts, event.tid
        args = event.args or {}
        if cat == cat_task:
            if name == "assign":
                task_name = str(args.get("task", "task"))
                open_task[tid] = [ts, f"{task_name} #{args.get('seq')}",
                                  args]
                open_pipe[tid] = [ts, "fetch"]
            elif name in ("retire", "squash"):
                close_task(tid, ts, name)
                if name == "squash":
                    out.append({"ph": "i", "pid": 0, "tid": tid, "s": "t",
                                "cat": "task", "name": "squash", "ts": ts,
                                "args": args})
            else:  # stop
                out.append({"ph": "i", "pid": 0, "tid": tid, "s": "t",
                            "cat": "task", "name": name, "ts": ts,
                            "args": args})
        elif cat == cat_pipe:
            close_pipe(tid, ts)
            state = "issue" if name == "NONE" else name.lower()
            open_pipe[tid] = [ts, state]
        elif cat == cat_arb and name == "occupancy":
            out.append({"ph": "C", "pid": 0, "tid": ARB_TID,
                        "name": "arb_entries", "ts": ts,
                        "args": {"entries": args.get("entries", 0)}})
        elif cat == cat_mem and name == "bus":
            start = args.get("start", ts)
            out.append({"ph": "X", "pid": 0, "tid": MEMORY_TID,
                        "cat": "mem", "name": "bus", "ts": start,
                        "dur": max(1, args.get("beats", 1)),
                        "args": {"words": args.get("words", 0),
                                 "requested": ts}})
        else:
            track = _INSTANT_TRACK.get(cat, tid if tid >= 0 else 0)
            out.append({"ph": "i", "pid": 0, "tid": track, "s": "t",
                        "cat": Category(cat).name.lower(), "name": name,
                        "ts": ts, "args": dict(args)})
    for tid in sorted(open_task):
        close_task(tid, total_cycles, "running")
    for tid in sorted(open_pipe):
        close_pipe(tid, total_cycles)
    return {"displayTimeUnit": "ms", "traceEvents": out,
            "otherData": {"tool": "repro trace", "label": label,
                          "cycles": total_cycles, "units": num_units}}


def write_chrome_trace(path, data: dict) -> None:
    """Serialize a trace dict to ``path`` with stable byte output.

    Sorted keys and fixed separators make the file bit-identical for
    identical event streams (the checkpoint/resume acceptance check).
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


_ALLOWED_PH = {"M", "X", "i", "C"}


def validate_chrome_trace(data) -> list[str]:
    """Validate trace-event JSON structure; returns a list of problems.

    An empty list means the object conforms to the subset of the Chrome
    trace-event format this package emits (M/X/i/C phases with the
    required per-phase fields and integer, non-negative timestamps).
    """
    errors: list[str] = []
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["top level must be an object with a 'traceEvents' array"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _ALLOWED_PH:
            errors.append(f"{where}: bad or missing ph {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        if not isinstance(event.get("name"), str) or not event.get("name"):
            errors.append(f"{where}: name must be a non-empty string")
        if ph == "M":
            if not isinstance(event.get("args"), dict):
                errors.append(f"{where}: metadata event needs args object")
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative integer")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                errors.append(f"{where}: X event needs integer dur >= 0")
        elif ph == "i":
            if event.get("s", "t") not in ("t", "p", "g"):
                errors.append(f"{where}: instant scope must be t/p/g")
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                errors.append(f"{where}: counter needs numeric args")
    return errors


def render_flamegraph(source, width: int = 36) -> str:
    """Render the cycle-attribution taxonomy as a terminal bar chart.

    ``source`` may be a ``MultiscalarResult`` (or anything with a
    ``distribution``), a ``CycleDistribution``, or its ``as_dict()``
    form. Rows follow the paper's Section-3 taxonomy: useful,
    non-useful, no-computation (split by stall cause), idle.
    """
    dist = getattr(source, "distribution", source)
    data = dist if isinstance(dist, dict) else dist.as_dict()
    no_comp_keys = [k for k in ("no_comp_inter_task", "no_comp_intra_task",
                                "no_comp_wait_retire", "no_comp_syscall")
                    if k in data]
    no_comp = sum(data[k] for k in no_comp_keys)
    total = max(1, sum(data.values()))
    rows: list[tuple[int, str, int]] = [
        (0, "useful", data.get("useful", 0)),
        (0, "non_useful", data.get("non_useful", 0)),
        (0, "no_computation", no_comp),
    ]
    rows.extend((1, key.removeprefix("no_comp_"), data[key])
                for key in no_comp_keys)
    rows.append((0, "idle", data.get("idle", 0)))
    lines = [f"cycle attribution ({total:,} unit-cycles)"]
    for depth, name, value in rows:
        bar = "#" * round(width * value / total)
        indent = "  " * depth
        lines.append(f"{indent}{name:<{18 - 2 * depth}} "
                     f"{100.0 * value / total:5.1f}% |{bar:<{width}}| "
                     f"{value:,}")
    return "\n".join(lines)


def render_timeline(events, num_units: int,
                    width: int = 100) -> tuple[str, str]:
    """Fold a task-lifecycle stream into an ASCII Gantt chart of the
    unit queue and a one-line summary; returns ``(chart, summary)``.

    ``events`` is an iterable of :class:`TraceEvent` (an
    :class:`EventBus` recording :attr:`Category.TASK` works directly;
    other categories are skipped, as is the end of a task whose
    ``assign`` was never seen). The chart has one row per unit, more
    if an event names a unit past ``num_units``, and at most ``width``
    columns, each a slice of simulated time::

        unit  0 |=====R|===========R|xxxx|====R|
        unit  1 |......|======R|xxxxxx|=====R|

    ``=`` a task executing that eventually retires, ``R`` its
    retirement, ``x`` a task eventually squashed, ``.`` no task
    assigned.
    """
    cat_task = int(Category.TASK)
    # seq -> [unit, assigned, ended, fate]; fate is None while running.
    tasks: dict[int, list] = {}
    for event in events:
        if event.cat != cat_task:
            continue
        seq = event.args["seq"]
        if event.name == "assign":
            tasks[seq] = [event.tid, event.ts, None, None]
        elif event.name in ("retire", "squash") and seq in tasks:
            tasks[seq][2:] = [event.ts, event.name]
    retired = [t for t in tasks.values() if t[3] == "retire"]
    squashed = sum(t[3] == "squash" for t in tasks.values())
    mean = sum(t[2] - t[1] for t in retired) / len(retired) \
        if retired else 0.0
    summary = (f"{len(retired)} tasks retired, {squashed} squashed; "
               f"mean retired-task lifetime {mean:.1f} cycles")
    if not tasks:
        return "(no tasks traced)", summary
    end = max(t[1] if t[2] is None else t[2] for t in tasks.values()) + 1
    scale = max(1, -(-end // width))
    columns = -(-end // scale)
    units = max(num_units, max(t[0] for t in tasks.values()) + 1)
    rows = [["."] * columns for _ in range(units)]
    for seq in sorted(tasks):
        unit, assigned, ended, fate = tasks[seq]
        stop = end if ended is None else ended
        glyph = "x" if fate == "squash" else "="
        for col in range(assigned // scale,
                         min(columns, stop // scale + 1)):
            rows[unit][col] = glyph
        if fate == "retire":
            rows[unit][stop // scale] = "R"
    lines = [f"timeline ({scale} cycles/column, {end} cycles total)"]
    lines.extend(f"unit {unit:2d} |{''.join(row)}|"
                 for unit, row in enumerate(rows))
    return "\n".join(lines), summary

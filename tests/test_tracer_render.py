"""Direct tests for the task-timeline renderer and its event fold.

These build ``task``-category event streams by hand, so every
rendering branch — squash glyphs, retire markers, scale compression,
units with no events — is pinned down without running a simulation.
"""

from repro.observability import Category, TraceEvent, render_timeline


def _event(name, seq, unit, cycle):
    args = {"seq": seq}
    if name == "assign":
        args["task"] = "loop"
    return TraceEvent(cycle, int(Category.TASK), name, unit, args)


def assign(seq, unit, cycle):
    return _event("assign", seq, unit, cycle)


def retire(seq, unit, cycle):
    return _event("retire", seq, unit, cycle)


def squash(seq, unit, cycle):
    return _event("squash", seq, unit, cycle)


def rows(chart):
    return [line.split("|")[1] for line in chart.splitlines()
            if line.startswith("unit")]


def test_filters_partition_events_by_fate():
    chart, summary = render_timeline(
        [assign(0, 0, 0), assign(1, 1, 0), assign(2, 0, 5),
         retire(0, 0, 4), squash(1, 1, 3)], num_units=2, width=100)
    assert summary.startswith("1 tasks retired, 1 squashed; ")
    unit0, unit1 = rows(chart)
    # Task 2 is still active: it runs to the end unmarked.
    assert unit0 == "====R="
    assert unit1 == "xxxx.."
    # Non-task events (here a ring send) are not part of the fold.
    ring = TraceEvent(2, int(Category.RING), "send", 0, {"seq": 0})
    assert render_timeline([ring], 2) == render_timeline([], 2)


def test_lifecycle_callbacks_ignore_unknown_tasks():
    chart, summary = render_timeline(
        [retire(99, 0, 10),    # never assigned
         squash(98, 0, 10),
         _event("stop", 97, 0, 10)], num_units=2)
    assert chart == "(no tasks traced)"
    assert summary.startswith("0 tasks retired, 0 squashed")


def test_render_marks_squashed_and_retired_distinctly():
    chart, _ = render_timeline(
        [assign(0, 0, 0), retire(0, 0, 10), assign(1, 1, 2),
         squash(1, 1, 8)], num_units=2, width=50)
    unit0, unit1 = rows(chart)
    assert "R" in unit0 and "x" not in unit0
    assert "x" in unit1 and "R" not in unit1
    assert "=" in unit0


def test_render_scales_long_timelines_to_width():
    chart, _ = render_timeline([assign(0, 0, 0), retire(0, 0, 999)],
                               num_units=1, width=10)
    assert "timeline (100 cycles/column, 1000 cycles total)" in chart
    assert len(rows(chart)[0]) == 10


def test_render_includes_units_that_never_ran_a_task():
    chart, _ = render_timeline([assign(0, 1, 0), retire(0, 1, 4)],
                               num_units=3)
    lines = rows(chart)
    assert len(lines) == 3
    assert set(lines[0]) == {"."}    # unit 0 always idle
    assert set(lines[2]) == {"."}    # unit 2 always idle


def test_render_without_attach_falls_back_to_max_unit():
    # An event naming a unit past num_units still gets its row.
    chart, _ = render_timeline([assign(0, 2, 0), retire(0, 2, 3)],
                               num_units=0)
    assert len(rows(chart)) == 3    # units 0..2 inferred from events


def test_render_active_task_extends_to_end_without_marker():
    chart, _ = render_timeline([assign(0, 0, 0)], num_units=1, width=20)
    body = rows(chart)[0]
    assert "=" in body and "R" not in body and "x" not in body


def test_empty_render_and_summary():
    chart, summary = render_timeline([], num_units=4)
    assert chart == "(no tasks traced)"
    assert summary == ("0 tasks retired, 0 squashed; "
                       "mean retired-task lifetime 0.0 cycles")

"""The observability layer's contracts.

Four things are pinned here:

* **Stream identity** — the structured event stream is part of the
  simulator's deterministic surface: fast path vs reference, and a
  checkpoint/resume boundary, must produce bit-identical streams.
* **Export** — ``chrome_trace`` output validates against the
  trace-event schema, names every track, and serializes to identical
  bytes run over run; a committed golden file pins the exact trace of
  a tiny hand-annotated program.
* **Metrics** — histograms/registries merge with the documented
  semantics (counters add, gauges keep maxima, buckets align), and a
  registry survives the engine's payload round-trip and sweep
  aggregation.
* **Cost** — with tracing disabled the instrumentation adds at most
  0.2% Python-level calls and builds no event (a count that repeats
  exactly, so it gates here rather than as a wall-clock ratio).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.isa import assemble
from repro.observability import (
    Category,
    EventBus,
    Histogram,
    MetricsRegistry,
    chrome_trace,
    collect_metrics,
    render_flamegraph,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.workloads import WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"

# A loop with a memory recurrence through one location: exercises task
# assignment, ring forwards, ARB activity, and (timing-dependent)
# memory-order squashes — so the golden trace pins every event family.
RECURRENCE = """
        .data
cell:   .word 1
        .text
        .task init targets=loop creates=$t0,$t1,$t9
        .task loop targets=loop,done creates=$t0
        .task done targets=halt creates=$v0,$a0,$t2
init:   la $t9, cell
        li $t1, 30
        li $t0, 0 !fwd
        j loop !stop
loop:   lw $t2, 0($t9)
        addi $t2, $t2, 3
        sw $t2, 0($t9)
        addi $t0, $t0, 1 !fwd
        bne $t0, $t1, loop !stop
done:   lw $t2, 0($t9)
        li $v0, 1
        move $a0, $t2
        syscall
        halt
        .entry init
"""


def _traced_multiscalar(program, units=4, fast_path=True, jit=True,
                        categories=Category.ALL, window=None):
    processor = MultiscalarProcessor(
        program, multiscalar_config(units, fast_path=fast_path, jit=jit))
    bus = EventBus(categories, window=window).attach(processor)
    result = processor.run()
    return processor, bus, result


def _golden_trace():
    program = assemble(RECURRENCE)
    processor, bus, result = _traced_multiscalar(program, units=2)
    return chrome_trace(bus, num_units=2, total_cycles=result.cycles,
                        label="golden")


# ------------------------------------------------------------ categories

def test_category_parse():
    assert Category.parse("all") is Category.ALL
    assert Category.parse("") is Category.ALL
    assert Category.parse("task,ring") == Category.TASK | Category.RING
    with pytest.raises(ValueError, match="unknown event category"):
        Category.parse("task,bogus")


def test_mask_and_window_filtering():
    program = WORKLOADS["cmp"].multiscalar_program()
    _, full, result = _traced_multiscalar(program)
    _, task_only, _ = _traced_multiscalar(program,
                                          categories=Category.TASK)
    assert 0 < len(task_only) < len(full)
    assert all(event.cat == int(Category.TASK) for event in task_only)
    mid = result.cycles // 2
    _, windowed, _ = _traced_multiscalar(program, window=(0, mid))
    assert 0 < len(windowed) < len(full)
    assert all(event.ts < mid for event in windowed)
    assert windowed.dropped > 0
    expected = [event.key() for event in full
                if event.ts < mid]
    assert [event.key() for event in windowed] == expected


# -------------------------------------------------------- stream identity

@pytest.mark.parametrize("name", ["cmp", "wc"])
def test_event_stream_identical_fast_vs_reference(name):
    program = WORKLOADS[name].multiscalar_program()
    _, fast, _ = _traced_multiscalar(program, fast_path=True)
    _, ref, _ = _traced_multiscalar(program, fast_path=False)
    assert [e.key() for e in fast] == [e.key() for e in ref]


def _scalar_stream(name, **mode):
    processor = ScalarProcessor(WORKLOADS[name].scalar_program(),
                                scalar_config(**mode))
    bus = EventBus(Category.ALL).attach(processor)
    processor.run()
    return [e.key() for e in bus]


def test_scalar_event_stream_identical_fast_vs_reference():
    fast = _scalar_stream("wc")
    assert fast == _scalar_stream("wc", fast_path=False) and fast


@pytest.mark.parametrize("name", ["cmp", "wc"])
def test_event_stream_identical_jit_vs_interpreter(name):
    # Three-way, on the one machine that has compiled bodies: the
    # scalar core's jit windows, its no-jit fast path, and the
    # per-cycle reference must emit byte-identical event streams.
    jit = _scalar_stream(name)
    assert jit == _scalar_stream(name, jit=False)
    assert jit == _scalar_stream(name, fast_path=False)
    assert jit


def test_scalar_event_stream_identical_jit_vs_interpreter():
    # The kernel that misses most: windows compiled with the load/store
    # arms, and d-cache miss events emitted from inside them.
    jit = _scalar_stream("compress")
    assert jit == _scalar_stream("compress", jit=False)
    assert sum(key[2] == "dcache_miss" for key in jit) > 100


def test_event_stream_identical_across_checkpoint_resume():
    program = WORKLOADS["wc"].multiscalar_program()
    config = multiscalar_config(4)
    _, whole, full_result = _traced_multiscalar(program)
    cut = full_result.cycles // 2

    first = MultiscalarProcessor(program, config)
    bus_a = EventBus(Category.ALL).attach(first)
    while not first.halted and first.cycle < cut:
        first.step()
    snapshot = first.state_dict()

    second = MultiscalarProcessor(program, config)
    second.load_state(snapshot)
    bus_b = EventBus(Category.ALL).attach(second)
    resumed = second.run()

    stitched = [e.key() for e in bus_a] + [e.key() for e in bus_b]
    assert stitched == [e.key() for e in whole]
    assert resumed.to_dict() == full_result.to_dict()


# ----------------------------------------------------------------- export

def test_chrome_trace_schema_and_tracks():
    program = WORKLOADS["wc"].multiscalar_program()
    _, bus, result = _traced_multiscalar(program)
    trace = chrome_trace(bus, num_units=4, total_cycles=result.cycles,
                         label="wc")
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    track_names = {(e["tid"], e["args"]["name"]) for e in events
                   if e.get("ph") == "M" and e["name"] == "thread_name"}
    named = {name for _, name in track_names}
    for unit in range(4):
        assert f"unit {unit}" in named
    for machine_track in ("sequencer", "ring", "ARB", "memory"):
        assert any(machine_track in name for name in named)
    names = {e["name"] for e in events}
    assert "send" in names and "deliver" in names
    # Retires close task slices rather than emitting instants.
    assert any(e["ph"] == "X" and e.get("args", {}).get("end") == "retire"
               for e in events)
    assert any(e["name"] == "arb_entries" and e["ph"] == "C"
               for e in events)


def test_trace_bytes_deterministic(tmp_path):
    program = assemble(RECURRENCE)
    paths = []
    for index in range(2):
        _, bus, result = _traced_multiscalar(program, units=2)
        trace = chrome_trace(bus, num_units=2,
                             total_cycles=result.cycles, label="golden")
        path = tmp_path / f"t{index}.json"
        write_chrome_trace(path, trace)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_golden_trace_matches_committed_file():
    # Regenerate with:
    #   PYTHONPATH=src python tests/make_golden_trace.py
    produced = _golden_trace()
    assert validate_chrome_trace(produced) == []
    golden = json.loads(GOLDEN_PATH.read_text())
    assert produced == golden, (
        "trace output drifted from tests/data/golden_trace.json; if "
        "the change is intentional, regenerate with "
        "PYTHONPATH=src python tests/make_golden_trace.py")


def test_golden_trace_stable_under_fast_path_toggle():
    program = assemble(RECURRENCE)
    _, fast, fast_result = _traced_multiscalar(program, units=2)
    _, ref, ref_result = _traced_multiscalar(program, units=2,
                                             fast_path=False)
    fast_trace = chrome_trace(fast, num_units=2,
                              total_cycles=fast_result.cycles,
                              label="golden")
    ref_trace = chrome_trace(ref, num_units=2,
                             total_cycles=ref_result.cycles,
                             label="golden")
    assert fast_trace == ref_trace


def test_golden_trace_stable_under_jit_toggle():
    # The golden machine is multiscalar, which is interpreter-only:
    # the ``jit`` field must select nothing there, so the committed
    # bytes hold with it off as they do with it on (the default).
    program = assemble(RECURRENCE)
    _, bus, result = _traced_multiscalar(program, units=2, jit=False)
    nojit_trace = chrome_trace(bus, num_units=2,
                               total_cycles=result.cycles,
                               label="golden")
    assert nojit_trace == json.loads(GOLDEN_PATH.read_text())


def test_flamegraph_renders_section3_rows():
    program = WORKLOADS["wc"].multiscalar_program()
    _, _, result = _traced_multiscalar(program)
    text = render_flamegraph(result)
    for row in ("useful", "non_useful", "no_computation", "idle",
                "inter_task", "intra_task"):
        assert row in text


# ---------------------------------------------------------------- metrics

def test_histogram_buckets_and_merge():
    h = Histogram()
    for value in (0, 1, 5, 1000):
        h.observe(value)
    other = Histogram()
    other.observe(5)
    h.merge(other)
    assert h.count == 5
    assert h.mean == pytest.approx((0 + 1 + 5 + 1000 + 5) / 5)
    assert Histogram.from_dict(h.to_dict()).to_dict() == h.to_dict()


def test_registry_merge_semantics():
    a = MetricsRegistry()
    a.count("events", 3)
    a.gauge("peak", 10)
    a.observe("lat", 4)
    b = MetricsRegistry()
    b.count("events", 2)
    b.gauge("peak", 7)
    b.observe("lat", 9)
    a.merge(b)
    assert a.counters["events"] == 5
    assert a.gauges["peak"] == 10          # gauges keep the maximum
    assert a.histograms["lat"].count == 2
    round_tripped = MetricsRegistry.from_dict(a.to_dict())
    assert round_tripped.to_dict() == a.to_dict()
    assert "events" in a.render()


def test_collect_metrics_covers_the_machine():
    program = WORKLOADS["wc"].multiscalar_program()
    processor = MultiscalarProcessor(program, multiscalar_config(4))
    result = processor.run()
    registry = collect_metrics(processor)
    assert registry.gauges["sim.cycles"] == result.cycles
    for key in ("task.retired", "ring.sends", "arb.loads",
                "predict.predictions", "bus.requests",
                "cycles.useful", "pipe.committed"):
        assert key in registry.counters, key
    assert registry.histograms["unit.committed"].count == 4


def test_metrics_round_trip_through_engine_payload():
    from repro.engine.job import (
        execute,
        metrics_from_payload,
        multiscalar_job,
    )

    payload = execute(multiscalar_job("cmp", units=2))
    registry = metrics_from_payload(payload)
    assert registry is not None
    assert registry.counters["task.retired"] > 0
    # Payloads written before metrics existed read back as "none".
    assert metrics_from_payload({"type": "multiscalar", "result": {}}) \
        is None
    rehydrated = json.loads(json.dumps(payload))
    assert metrics_from_payload(rehydrated).to_dict() \
        == registry.to_dict()


def test_sweep_aggregates_metrics_across_grid():
    from repro.engine.store import ResultStore
    from repro.engine.sweep import SweepRequest, run_sweep

    request = SweepRequest(workloads=("cmp",), units=(2,))
    store = ResultStore()
    summary = run_sweep(request, store)
    assert summary.ok and summary.metrics is not None
    fresh_total = summary.metrics.counters["task.retired"]
    assert fresh_total > 0
    # A warm re-run aggregates the same totals from cached payloads.
    warm = run_sweep(request, store)
    assert warm.cache_hits == warm.total_jobs
    assert warm.metrics.counters["task.retired"] == fresh_total


# ------------------------------------------------------------------- cost

def test_disabled_tracing_overhead_within_budget():
    """The tracing-cost gate: a count of Python-level calls for wc on 4
    units, jit off, with no bus and with a bus whose mask is empty. An
    attached-but-masked bus may add at most 0.2% more calls (measured
    0.06-0.10% — the cold emission sites' ``emit()`` calls that filter
    immediately) and must construct no event at all."""
    from repro.harness.bench import measure_trace_overhead

    measured = measure_trace_overhead()
    assert measured["events_constructed"] == 0
    assert 0 <= measured["overhead"] <= 0.002, measured


# ------------------------------------------------------------------ tools

def test_doccheck_passes_on_this_tree():
    from repro.tools.doccheck import run_doccheck

    assert run_doccheck() == []


def test_validate_trace_tool(tmp_path):
    from repro.tools.validate_trace import validate_file

    good = tmp_path / "good.json"
    write_chrome_trace(good, _golden_trace())
    assert validate_file(str(good)) == []
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
    assert validate_file(str(bad))
    assert validate_file(str(tmp_path / "missing.json"))

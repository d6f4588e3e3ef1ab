"""Checks of the benchmark itself (not of the simulator).

Run with ``python -m pytest perf -q``; tier-1 (``testpaths = tests``)
does not collect this file. The smoke fixture runs every workload once,
end to end and traced, on the quick kernels (about 45 s).
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import compare, run  # noqa: E402
from perf.common import percentile, sizing, tail_percentile  # noqa: E402
from perf.metrics import (  # noqa: E402
    END_TO_END,
    END_TO_END_NAMES,
    PER_LAYER,
    PER_LAYER_NAMES,
    WORKLOAD_NAMES,
    benchmark_json,
)
from perf.trace import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------- declarations

def test_benchmark_json_is_the_declared_one():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()


def test_benchmark_json_meets_the_contract():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"] and spec["command"][-1] == "perf/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024


def test_interaction_table_names_only_declared_things():
    for layer in PER_LAYER:
        assert layer.on and set(layer.on) <= set(WORKLOAD_NAMES), layer.name
        for pair in layer.moves:
            metric, _, workload = pair.partition("@")
            assert metric in END_TO_END_NAMES, (layer.name, pair)
            assert workload in WORKLOAD_NAMES, (layer.name, pair)
    for workload in WORKLOAD_NAMES:
        assert f"perf.trace_overhead.{workload}" in PER_LAYER_NAMES


# ---------------------------------------------------------------- statistics

def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(2000) == 99
    assert tail_percentile(1000) == 99
    assert tail_percentile(50) == 80
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None
    for count in (20, 37, 50, 200, 999):
        q = tail_percentile(count)
        assert count - count * q / 100.0 >= 10
        assert q == 99 or count - count * (q + 1) / 100.0 < 10


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([7], 90) == 7
    assert percentile(range(101), 90) == 90


def test_sizing_scales_in_one_place():
    nominal, smoke = sizing(20), sizing(1)
    assert nominal.ms_passes >= 3 and nominal.sweep_rounds >= 3
    assert nominal.explore_rounds >= 3 and nominal.serve_rounds >= 3
    assert smoke.smoke and smoke.ms_passes == 1
    assert set(smoke.kernels) < set(nominal.kernels)
    assert sizing(10).scalar_passes == nominal.scalar_passes // 2
    assert sizing(10).kernels == nominal.kernels


# -------------------------------------------------------------------- spans

def test_self_time_never_exceeds_the_span_or_its_parent():
    tracer = Tracer("t")
    with tracer.span("outer"):
        for _ in range(3):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    time.sleep(0.002)
        time.sleep(0.002)
    by_id = {span.span_id: span for span in tracer.spans}
    assert len(by_id) == 7
    for span in tracer.spans:
        assert 0 <= span.self_s <= span.duration_s
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert span.duration_s <= parent.duration_s
            assert parent.start_ns <= span.start_ns
            assert span.end_ns <= parent.end_ns
    table = tracer.self_times()
    assert table["inner"]["calls"] == 3
    assert table["outer"]["self_s"] < table["outer"]["total_s"]
    assert abs(sum(row["self_s"] for row in table.values())
               - table["outer"]["total_s"]) < 1e-6


def test_wrappers_are_installed_and_removed():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.__dict__["work"]
    tracer = Tracer("t")
    tracer.wrap(Layer, "work", "layer.work")
    assert Layer().work(1) == 2 and Layer.__dict__["work"] is not original
    tracer.unwrap_all()
    assert Layer.__dict__["work"] is original
    assert tracer.durations("layer.work") and len(tracer.spans) == 1
    off = Tracer("t", enabled=False)
    off.wrap(Layer, "work", "layer.work")
    assert Layer.__dict__["work"] is original
    with off.span("nothing") as span:
        assert span is None
    assert off.spans == []


def test_chrome_trace_is_the_format_the_repo_validates():
    from repro.observability import validate_chrome_trace

    tracer = Tracer("w#1")
    with tracer.span("a", kernel="gcc"):
        with tracer.span("b"):
            pass
    tracer.count("ops", 3)
    data = tracer.chrome_trace()
    assert validate_chrome_trace(data) == []
    slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in slices} == {"a", "b"}
    child = next(e for e in slices if e["name"] == "b")
    parent = next(e for e in slices if e["name"] == "a")
    assert child["args"]["parent_id"] == parent["args"]["span_id"]
    assert all(e["args"]["run_id"] == "w#1" for e in slices)


# ------------------------------------------------------------------ compare

def _metric(name):
    return next(m for m in END_TO_END if m.name == name)


def test_compare_needs_ten_pairs_nine_wins_and_a_real_gap():
    rate = _metric("sim_cycles_per_s")
    a = [100.0 + i % 3 for i in range(10)]
    assert compare.judge(rate, a, [x * 1.3 for x in a], True)["verdict"] \
        == "better"
    assert compare.judge(rate, a[:9], [x * 1.3 for x in a[:9]], True)[
        "verdict"] == "unchanged"            # nine pairs are not enough
    b = [x * 1.3 for x in a]
    b[0], b[1] = a[0] * 0.99, a[1] * 0.99    # only 8 of 10 wins
    assert compare.judge(rate, a, b, True)["verdict"] == "unchanged"
    assert compare.judge(rate, a, [x + 0.5 for x in a], True)["verdict"] \
        == "unchanged"                       # gap inside A's own quartiles
    assert compare.judge(rate, a, [x * 0.7 for x in a], True)["verdict"] \
        == "worse-than-bound"


def test_compare_reports_unresolved_when_spread_exceeds_the_bound():
    latency = _metric("op_p50_ms")
    noisy = [10.0, 14.0, 9.0, 15.0, 10.5, 13.5, 9.5, 14.5, 10.0, 14.0]
    row = compare.judge(latency, noisy, [x * 1.02 for x in noisy], True)
    assert row["spread"] > latency.bound and row["verdict"] == "unresolved"
    row = compare.judge(latency, noisy, [x * 0.5 for x in noisy], True)
    assert row["verdict"] == "better"        # every B run beats every A run


def test_compare_exact_metrics_use_equality():
    err = _metric("paper_err")
    assert compare.judge(err, [0.139], [0.139], False)["verdict"] \
        == "unchanged"
    assert compare.judge(err, [0.139], [0.1390001], False)["verdict"] \
        == "worse-than-bound"
    assert compare.judge(err, [0.139], [0.120], False)["verdict"] == "better"


# -------------------------------------------------------------------- runs

@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-out")
    code = run.main(["--smoke", "--seed", "5", "--out", str(out)])
    return code, out, json.loads((out / "result.json").read_text())


def test_smoke_emits_every_declared_metric_and_no_other(smoke):
    from repro.observability import validate_chrome_trace

    code, out, envelope = smoke
    assert code == 0
    for key in ("git_revision", "git_dirty", "python", "nproc",
                "calibration_score", "seed", "started", "ended"):
        assert key in envelope
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    for workload in WORKLOAD_NAMES:
        e2e = envelope["workloads"][workload]["e2e"]
        layers = envelope["workloads"][workload]["layers"]
        assert e2e["correct"] and layers["correct"], (e2e.get("problems"),
                                                      layers.get("problems"))
        assert e2e["failed"] == 0 and e2e["attempted"] >= 1
        assert set(e2e["metrics"]) == set(END_TO_END_NAMES)
        assert set(layers["metrics"]) == set(PER_LAYER_NAMES)
        for name, cell in {**e2e["metrics"], **layers["metrics"]}.items():
            assert cell["unit"] == units[name]
            assert isinstance(cell["value"], (int, float))
        assert all(e2e["metrics"][name]["value"] > 0
                   for name in END_TO_END_NAMES)
        assert set(e2e["samples"]) == set(END_TO_END_NAMES) - {"peak_rss_mb"}
        declared_here = {m.name for m in PER_LAYER if workload in m.on}
        skipped = declared_here - set(layers["measured_here"])
        assert set(layers["measured_here"]) <= declared_here
        # A smoke run leaves out only the kernels it does not simulate.
        assert all(re.match(r"core\.ms8\.\w+\.us_per_cycle$", name)
                   for name in skipped), skipped
        trace = json.loads((out / f"trace-{workload}.json").read_text())
        assert validate_chrome_trace(trace) == []
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
    text = run.render(envelope)
    for name in END_TO_END_NAMES + PER_LAYER_NAMES:
        assert name in text
    assert not list(out.glob("tmp-*"))       # private stores are removed


def test_smoke_result_compares_unchanged_with_itself(smoke, capsys):
    _, out, _ = smoke
    result = str(out / "result.json")
    assert compare.main([result, result]) == 0
    table = capsys.readouterr().out
    assert "worse-than-bound" not in table and "better" not in table
    assert table.count("\n") >= len(END_TO_END) * len(WORKLOAD_NAMES)


def test_a_wrong_simulation_output_fails_the_run(tmp_path, monkeypatch,
                                                 capsys):
    from repro.workloads import WORKLOADS

    monkeypatch.setitem(WORKLOADS, "gcc", dataclasses.replace(
        WORKLOADS["gcc"], expected_output="not what gcc prints"))
    code = run.main(["--workload", "scalar-grid", "--seconds", "1",
                     "--trace", "0", "--out", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_without_the_simulator_the_command_exits_non_zero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "scalar-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout.strip() == ""

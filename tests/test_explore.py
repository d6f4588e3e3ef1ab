"""The design-space autopilot: determinism, caching, keys, reports.

The load-bearing promises of ``repro explore``:

* the same (seed, budget, workload) produces a byte-identical report;
* a warm re-run is served entirely from the content-addressed store —
  zero fresh simulations;
* compiler-knob axes round-trip through ``SimJob`` keys without
  colliding (a knob point can never be served another point's cached
  cycles);
* knob settings stay *output-correct* — including the task-size
  splitter's refusal to cut at a suppressed call's return point;
* reports validate against the schema the docs promise, and the
  committed example under ``docs/reports/`` actually validates.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.compiler import CompilerKnobs
from repro.config import multiscalar_config
from repro.core.processor import MultiscalarProcessor
from repro.engine.store import ResultStore
from repro.explore import (
    AXES,
    DesignPoint,
    ExploreRequest,
    LocalEvaluator,
    PointResult,
    build_report,
    default_point,
    hardware_cost,
    knob_probes,
    mutate,
    pareto_frontier,
    render_markdown,
    run_explore,
    sample,
    validate_report,
    write_report,
)
from repro.engine.job import SimJob, multiscalar_job
from repro.workloads import WORKLOADS

REPO = Path(__file__).parent.parent


# --------------------------------------------------------------- space

def test_default_point_is_the_papers_machine():
    point = default_point()
    job = point.to_job("gcc")
    cfg = job.machine_config()
    assert cfg.num_units == 4
    assert cfg.ring_hop_latency == 1
    assert cfg.memory.arb_entries_per_bank == 256
    assert cfg.memory.dcache_bank_size == 8 * 1024
    assert cfg.predictor.history_entries == 64
    assert cfg.predictor.pattern_entries == 4096
    assert job.compiler_knobs() is None


def test_sample_and_mutate_are_seed_deterministic():
    import random

    a = [sample(random.Random("7:x")) for _ in range(20)]
    b = [sample(random.Random("7:x")) for _ in range(20)]
    assert a == b
    pa = mutate(a[0], random.Random("9:y"))
    pb = mutate(a[0], random.Random("9:y"))
    assert pa == pb and pa != a[0]
    # A mutation flips exactly one axis.
    diffs = [name for name in AXES
             if getattr(pa, name) != getattr(a[0], name)]
    assert len(diffs) == 1


def test_knob_probes_share_default_hardware():
    probes = knob_probes()
    assert probes[0] == default_point()
    assert len(probes) == len(set(probes))
    assert {p.hardware_id() for p in probes} == \
        {default_point().hardware_id()}


def test_point_dict_round_trip_rejects_unknown_axes():
    point = sample(__import__("random").Random("3:z"))
    assert DesignPoint.from_dict(point.to_dict()) == point
    with pytest.raises(TypeError):
        DesignPoint.from_dict({**point.to_dict(), "bogus": 1})
    with pytest.raises(ValueError):
        DesignPoint(units=3)


# ---------------------------------------------------------------- cost

def test_cost_model_is_deterministic_and_monotone_in_units():
    assert hardware_cost(default_point()) == hardware_cost(default_point())
    costs = [hardware_cost(DesignPoint(units=u)) for u in (1, 2, 4, 8, 16)]
    assert costs == sorted(costs) and len(set(costs)) == 5


def test_compiler_knobs_are_free():
    base = hardware_cost(default_point())
    for probe in knob_probes()[1:]:
        assert hardware_cost(probe) == base


def test_faster_ring_costs_more():
    slow = hardware_cost(DesignPoint(ring_hop=3))
    fast = hardware_cost(DesignPoint(ring_hop=1))
    assert fast > slow


# ------------------------------------------------------------ job keys

def test_knob_axes_round_trip_through_simjob_keys_without_colliding():
    jobs = []
    for task_size, loop_cut, create_mask in itertools.product(
            AXES["task_size"], AXES["loop_cut"], AXES["create_mask"]):
        jobs.append(multiscalar_job(
            "wc", 4, knobs=CompilerKnobs(task_size=task_size,
                                         loop_cut=loop_cut,
                                         create_mask=create_mask)))
    keys = [job.key() for job in jobs]
    assert len(set(keys)) == len(jobs)
    for job in jobs:
        clone = SimJob.from_spec(job.spec())
        assert clone == job and clone.key() == job.key()


def test_hardware_axes_are_keyed_and_spec_round_trips():
    points = [default_point()] \
        + [sample(__import__("random").Random(f"11:{i}")) for i in range(12)]
    keys = set()
    for point in points:
        job = point.to_job("wc")
        keys.add(job.key())
        assert SimJob.from_spec(job.spec()).key() == job.key()
    assert len(keys) == len(set(points))


def test_scalar_jobs_reject_hardware_axes_and_knobs():
    with pytest.raises(ValueError):
        SimJob(kind="scalar", workload="wc", ring_hop=2)
    with pytest.raises(ValueError):
        SimJob(kind="scalar", workload="wc", task_size=8)


# --------------------------------------------- knob output correctness

@pytest.mark.parametrize("name,knobs", [
    # Regression: task_size splitting must not cut at the return point
    # of a suppressed call (sc/xlisp used to die with "no task
    # descriptor" at a callee prologue).
    ("sc", CompilerKnobs(task_size=16)),
    ("example", CompilerKnobs(task_size=8, loop_cut="all")),
    ("gcc", CompilerKnobs(task_size=32, create_mask="maydef")),
    ("wc", CompilerKnobs(loop_cut="none")),
])
def test_knob_settings_stay_output_correct(name, knobs):
    spec = WORKLOADS[name]
    program = spec.multiscalar_program(knobs=knobs)
    result = MultiscalarProcessor(program, multiscalar_config(4)).run()
    assert result.output == spec.expected_output


# -------------------------------------------------------------- pareto

def _pr(cost, cycles, label="p"):
    point = default_point()
    result = PointResult(point=point, cost=cost)
    result.cycles = cycles
    result.speedup = 1000.0 / cycles
    return result


def test_pareto_frontier_drops_dominated_points():
    results = [_pr(100, 50), _pr(100, 40), _pr(200, 40), _pr(150, 30),
               _pr(50, 90), PointResult(point=default_point(), cost=10)]
    frontier = pareto_frontier(results)
    assert [(r.cost, r.cycles) for r in frontier] == \
        [(50, 90), (100, 40), (150, 30)]


def test_pareto_frontier_of_nothing_is_empty():
    assert pareto_frontier([]) == []
    assert pareto_frontier(
        [PointResult(point=default_point(), cost=1.0)]) == []


# ----------------------------------------------- search + determinism

def _run(request, store):
    evaluator = LocalEvaluator(store, jobs=1,
                               max_cycles=request.max_cycles)
    summary = run_explore(request, evaluator)
    return summary, build_report(summary)


def test_same_seed_and_budget_give_byte_identical_reports(tmp_path):
    request = ExploreRequest(workloads=("gcc",), budget=6, seed=7)
    store = ResultStore(tmp_path / "store")
    first, report_a = _run(request, store)
    second, report_b = _run(request, store)
    validate_report(report_a)
    blob_a = json.dumps(report_a, sort_keys=True)
    blob_b = json.dumps(report_b, sort_keys=True)
    assert blob_a == blob_b
    assert render_markdown(report_a) == render_markdown(report_b)
    # Warm re-run: every point (and the scalar baseline) from cache.
    assert first.fresh_runs > 0
    assert second.fresh_runs == 0
    assert second.cache_hits == first.fresh_runs + first.cache_hits


def test_written_reports_are_byte_identical_files(tmp_path):
    request = ExploreRequest(workloads=("gcc",), budget=4, seed=3)
    store = ResultStore(tmp_path / "store")
    _, report_a = _run(request, store)
    _, report_b = _run(request, store)
    a_json, a_md = write_report(report_a, tmp_path / "a")
    b_json, b_md = write_report(report_b, tmp_path / "b")
    assert a_json.read_bytes() == b_json.read_bytes()
    assert a_md.read_bytes() == b_md.read_bytes()


def test_different_seeds_diverge_after_the_probe_phase(tmp_path):
    # Budget beyond the probe count forces random sampling, which must
    # depend on the seed (trajectories may coincide only in the probes).
    store = ResultStore(tmp_path / "store")
    req_a = ExploreRequest(workloads=("gcc",), budget=12, seed=1)
    req_b = ExploreRequest(workloads=("gcc",), budget=12, seed=2)
    summary_a, _ = _run(req_a, store)
    summary_b, _ = _run(req_b, store)
    points_a = [r.point for r in summary_a.searches[0].evaluated]
    points_b = [r.point for r in summary_b.searches[0].evaluated]
    assert points_a != points_b


def test_search_reports_knob_wins_on_matched_hardware(tmp_path):
    # gcc's default partitioning is the paper's weak spot; the probe
    # phase alone must surface a task-size win on default hardware.
    request = ExploreRequest(workloads=("gcc",), budget=8, seed=0)
    store = ResultStore(tmp_path / "store")
    _, report = _run(request, store)
    wins = report["workloads"][0]["knob_wins"]
    assert wins, "expected at least one compiler-knob win on gcc"
    assert all(win["cycles"] < win["default_cycles"] for win in wins)


# ------------------------------------- evaluation order: store first

#: wc under this knob setting has a task with five successor targets,
#: which the annotator rejects.
_REJECTED = dict(task_size=32, loop_cut="none")


def _break_toolchain(monkeypatch, error=AssertionError):
    """Make every binding of the compile entry points raise: a run that
    still completes provably compiled nothing."""
    def broken(*args, **kwargs):
        raise error("the toolchain must not run here")

    for target in ("repro.minic.codegen.compile_minic",
                   "repro.minic.driver.compile_minic",
                   "repro.compiler.annotate.annotate_program",
                   "repro.minic.driver.annotate_program"):
        monkeypatch.setattr(target, broken)
    # Compiles memoized by earlier tests would mask the sabotage.
    from repro.workloads import base

    for cached in (base._front_end, base._compile_scalar,
                   base._compile_multiscalar):
        cached.cache_clear()


def test_warm_evaluation_reads_the_store_and_never_compiles(
        tmp_path, monkeypatch):
    request = ExploreRequest(workloads=("cmp",), budget=9, seed=4)
    store = ResultStore(tmp_path / "store")
    cold, report_cold = _run(request, store)
    assert cold.fresh_runs > 0 and cold.searches[0].infeasible == 0
    _break_toolchain(monkeypatch)
    warm, report_warm = _run(request, store)
    assert warm.fresh_runs == 0 and warm.hit_rate == 1.0
    assert warm.cache_hits == cold.fresh_runs + cold.cache_hits
    assert json.dumps(report_warm, sort_keys=True) \
        == json.dumps(report_cold, sort_keys=True)
    # One level down: every point of a repeated batch is a hit.
    evaluator = LocalEvaluator(store, jobs=1)
    points = [r.point for r in cold.searches[0].evaluated]
    results = evaluator.evaluate("cmp", points)
    assert all(r.cached and r.ok for r in results)
    assert evaluator.cache_hits == len(points) + 1     # + scalar baseline


def test_rejected_knobs_are_infeasible_cold_and_warm(tmp_path):
    from dataclasses import replace

    store = ResultStore(tmp_path / "store")
    points = [default_point(), replace(default_point(), **_REJECTED)]
    for run in ("cold", "warm"):
        evaluator = LocalEvaluator(store, jobs=1)
        good, bad = evaluator.evaluate("wc", points)
        assert good.ok and good.cached == (run == "warm")
        assert bad.infeasible and not bad.ok and not bad.cached
        assert bad.error.startswith("AnnotationError:")
        # Never stored, so the warm run asks the compiler again; the
        # stored point is pre-checked only while it is still a miss.
        assert store.get(evaluator._job("wc", points[1]).key()) is None
        assert evaluator._feasible[("wc", 32, "none", "pruned")] == bad.error
        assert (("wc", 0, "marked", "pruned") in evaluator._feasible) \
            == (run == "cold")


def test_infeasible_points_do_not_break_require_hit_rate(tmp_path, capsys):
    from repro.cli import main

    # Seed 5 draws the rejected wc knob setting in its explore phase.
    argv = ["explore", "wc", "--budget", "15", "--seed", "5",
            "--cache-dir", str(tmp_path / "store")]
    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    assert main(argv + ["--out", str(tmp_path / "warm"),
                        "--require-hit-rate", "1.0"]) == 0
    assert "0 fresh simulations" in capsys.readouterr().err
    cold = (tmp_path / "cold" / "explore.json").read_bytes()
    assert cold == (tmp_path / "warm" / "explore.json").read_bytes()
    assert json.loads(cold)["workloads"][0]["infeasible"] >= 1


def test_precheck_lets_program_bugs_propagate(tmp_path, monkeypatch):
    # A broken import inside the compile path is not "the annotator
    # rejected the knobs": filing it under infeasible would quietly
    # shrink every search to nothing.
    _break_toolchain(monkeypatch, error=ImportError)
    evaluator = LocalEvaluator(ResultStore(tmp_path / "store"), jobs=1)
    evaluator._scalar_cycles["wc"] = 1      # skip the baseline run
    with pytest.raises(ImportError, match="toolchain must not run"):
        evaluator.evaluate("wc", [default_point()])


def test_server_evaluator_still_prechecks_before_submitting():
    from dataclasses import replace

    from repro.explore import ServerEvaluator

    from repro.server import ServerError

    class NoServer:
        def result(self, key):
            raise ServerError(404, f"unknown job {key}")

        def submit(self, *args, **kwargs):
            raise AssertionError("an infeasible point was submitted")

    evaluator = ServerEvaluator("http://127.0.0.1:1")
    evaluator.resolver.client = NoServer()
    evaluator._scalar_cycles["wc"] = 1
    (bad,) = evaluator.evaluate(
        "wc", [replace(default_point(), **_REJECTED)])
    assert bad.infeasible and bad.error.startswith("AnnotationError:")


# ------------------------------------------------------------- reports

def test_validate_report_rejects_tampered_reports(tmp_path):
    request = ExploreRequest(workloads=("gcc",), budget=4, seed=3)
    _, report = _run(request, ResultStore(tmp_path / "store"))
    validate_report(report)
    bad = json.loads(json.dumps(report))
    bad["version"] = 99
    with pytest.raises(ValueError, match="version"):
        validate_report(bad)
    bad = json.loads(json.dumps(report))
    bad["workloads"][0]["pareto"] = []
    with pytest.raises(ValueError, match="empty"):
        validate_report(bad)
    bad = json.loads(json.dumps(report))
    bad["workloads"][0]["pareto"][0]["point"]["units"] = 3
    with pytest.raises(ValueError, match="bad point"):
        validate_report(bad)


def test_committed_example_report_validates():
    paths = sorted((REPO / "docs" / "reports").glob("*.json"))
    assert paths, "docs/reports/ must hold at least one example report"
    for path in paths:
        validate_report(json.loads(path.read_text()))


# --------------------------------------------------- sweep metrics fix

def test_sweep_counts_payloads_without_metrics():
    from repro.engine.job import execute, scalar_job
    from repro.engine.sweep import SweepRequest, SweepSummary, _tabulate

    request = SweepRequest(workloads=("wc",), units=(4,))
    scalar = scalar_job("wc")
    multi = multiscalar_job("wc", 4)
    by_key = {scalar.key(): scalar, multi.key(): multi}
    payloads = {scalar.key(): execute(scalar),
                multi.key(): execute(multi)}
    # Simulate a pre-metrics cache entry.
    payloads[scalar.key()].pop("metrics", None)
    summary = SweepSummary(request=request, total_jobs=2)
    _tabulate(summary, by_key, payloads)
    assert summary.cells_without_metrics == 1
    assert summary.metrics is not None
    assert "metrics: 1 payloads without metrics" in summary.render()

"""``explore-search``: what an ``explore`` user waits for.

``python -m repro explore gcc,cmp --budget 16 --seed N --jobs 2
--cache-dir TMP --out TMP/report`` on an empty private store and then
on the full one. The only workload that compiles one binary per
compiler-knob point, runs non-default hardware axes (up to 16 units,
small ARB and d-cache banks) and exercises LocalEvaluator, the cost
model, the Pareto filter and the report; warm is pure search + report.
The search seed is fixed in ``perf/common.py`` so that every run
simulates the same design points; ``--seed`` orders the targets.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from repro.compiler import CompilerKnobs, annotate_program
from repro.engine import ResultStore, SimJob, WorkerPool
from repro.explore import (
    ExploreRequest,
    LocalEvaluator,
    build_report,
    default_point,
    hardware_cost,
    knob_probes,
    run_explore,
    sample,
    validate_report,
)
from repro.harness.paper_data import PAPER_TABLE3
from repro.isa import assemble
from repro.minic import compile_minic
from repro.workloads import WORKLOADS

from perf.common import (
    Checks,
    Measured,
    Sizing,
    fresh_dir,
    median,
    run_cli,
)
from perf.grids import relative_error
from perf.sweep import cli_startup_metrics
from perf.trace import Tracer, trace_overhead

_TALLY = re.compile(r"(\d+) fresh simulations, (\d+) cache hits")


class ExploreSearch:
    name = "explore-search"

    def __init__(self) -> None:
        self.area: Path | None = None
        self.store_dir: Path | None = None

    def setup(self, area: Path, size: Sizing, tracer: Tracer) -> None:
        self.area = area
        with tracer.span("engine.store.create"):
            self.store_dir = fresh_dir(area / "store")

    def teardown(self, checks: Checks) -> None:
        pass

    # ------------------------------------------------------------------ cli

    def _targets(self, size: Sizing, seed: int) -> list[str]:
        targets = list(size.explore_targets)
        random.Random(f"{seed}:{self.name}").shuffle(targets)
        return targets

    def _search(self, size: Sizing, seed: int, cold: bool, checks: Checks,
                tracer: Tracer):
        """One CLI search; (run, fresh simulations, report bytes)."""
        span = "cli.explore.cold" if cold else "cli.explore.warm"
        report_dir = self.area / "report"
        with tracer.span(span):
            run = run_cli(["-m", "repro", "explore",
                           ",".join(self._targets(size, seed)),
                           "--budget", str(size.explore_budget),
                           "--seed", str(size.explore_search_seed),
                           "--jobs", "2",
                           "--cache-dir", str(self.store_dir),
                           "--out", str(report_dir)], self.area)
        checks.ok(run.returncode == 0,
                  f"{span}: exit {run.returncode}: {run.stderr[-300:]}")
        found = _TALLY.search(run.stderr)
        fresh, hits = (int(found.group(1)), int(found.group(2))) \
            if found else (-1, -1)
        checks.ok((fresh > 0 and hits == 0) if cold
                  else (fresh == 0 and hits > 0),
                  f"{span}: {fresh} fresh simulations, {hits} cache hits")
        try:
            report = (report_dir / "explore.json").read_bytes()
        except OSError:
            report = b""
        return run, fresh, report

    def _rounds(self, size: Sizing, seed: int, checks: Checks,
                tracer: Tracer, rounds: int, warm_per_round: int):
        """``rounds`` x {purge, one cold search, some warm searches};
        every report must be the same bytes and validate."""
        cold, warm, fresh_counts, reports = [], [], [], []
        for _ in range(rounds):
            fresh_dir(self.store_dir)
            run, fresh, report = self._search(size, seed, True, checks, tracer)
            cold.append(run)
            fresh_counts.append(fresh)
            reports.append(report)
            for _ in range(warm_per_round):
                run, _, report = self._search(size, seed, False, checks,
                                              tracer)
                warm.append(run)
                reports.append(report)
        checks.ok(len(set(reports)) == 1 and reports[0] != b"",
                  "explore reports differ between cold and warm runs")
        checks.ok(len(set(fresh_counts)) == 1,
                  f"cold searches simulated {fresh_counts} points")
        return cold, warm, fresh_counts[0], reports[0]

    def _in_process(self, size: Sizing, seed: int, tracer: Tracer):
        """The same search on the full store, in process."""
        request = ExploreRequest(workloads=tuple(self._targets(size, seed)),
                                 budget=size.explore_budget,
                                 seed=size.explore_search_seed, jobs=2)
        evaluator = LocalEvaluator(ResultStore(self.store_dir), jobs=2)
        with tracer.span("explore.run_explore"):
            summary = run_explore(request, evaluator)
        with tracer.span("explore.report"):
            report = build_report(summary)
            validate_report(report)
        return summary, report

    # ----------------------------------------------------------- end to end

    def measure(self, size: Sizing, seed: int,
                checks: Checks) -> dict[str, Measured]:
        tracer = Tracer(self.name, enabled=False)
        cold, warm, fresh, report_bytes = self._rounds(
            size, seed, checks, tracer, size.explore_rounds,
            size.explore_warm_per_round)
        summary, report = self._in_process(size, seed, tracer)
        checks.ok(summary.fresh_runs == 0 and summary.ok,
                  f"in-process warm search simulated {summary.fresh_runs}")
        checks.ok(report_bytes
                  == (json.dumps(report, indent=2, sort_keys=True)
                      + "\n").encode(),
                  "CLI report differs from in-process build_report()")
        cycles = _simulated_cycles(summary)
        cold_walls = [run.wall for run in cold]
        warm_walls = [run.wall for run in warm]
        mid = median(cold_walls)
        return {
            "sim_cycles_per_s": Measured(cycles / mid,
                                         [cycles / w for w in cold_walls]),
            "jobs_per_s": Measured(fresh / mid,
                                   [fresh / w for w in cold_walls]),
            "op_p50_ms": Measured(median(warm_walls) * 1e3,
                                  [w * 1e3 for w in warm_walls]),
            "paper_err": Measured(_default_machine_err(summary)),
        }

    # --------------------------------------------------------------- layers

    def layers(self, size: Sizing, seed: int, checks: Checks,
               tracer: Tracer) -> dict[str, float]:
        out = cli_startup_metrics(self.area, size, tracer)
        cold, warm, fresh, _ = self._rounds(size, seed, checks, tracer, 1, 1)
        out["explore.point_eval_ms"] = cold[0].wall * 1e3 / max(1, fresh)
        out["explore.fresh_points"] = fresh

        # The span-dense section: the warm search in process, with the
        # layers it calls into wrapped; traced / untraced, alternating.
        summary, _ = self._in_process(size, seed,
                                      Tracer("warm-up", enabled=False))

        def section(traced: bool) -> None:
            probe = tracer if traced else Tracer("probe", enabled=False)
            probe.wrap(LocalEvaluator, "evaluate", "explore.evaluate")
            probe.wrap(ResultStore, "get", "engine.store.get")
            probe.wrap(SimJob, "key", "engine.job.key")
            probe.wrap(WorkerPool, "run", "engine.scheduler.pool.run")
            try:
                again, _ = self._in_process(size, seed, probe)
            finally:
                probe.unwrap_all()
            checks.ok(again.fresh_runs == 0,
                      f"traced warm search simulated {again.fresh_runs}")

        out[f"perf.trace_overhead.{self.name}"] = \
            trace_overhead(size.probe_repeats, section)
        out["explore.search_overhead_ms"] = \
            median(tracer.durations("explore.run_explore")) * 1e3
        out["explore.report_ms"] = \
            median(tracer.durations("explore.report")) * 1e3
        out["explore.cache_hits"] = summary.cache_hits
        drawn = sum(len(s.evaluated) for s in summary.searches)
        out["explore.rejected_points"] = \
            sum(s.infeasible for s in summary.searches) / max(1, drawn)
        first = summary.searches[0]
        by_name = {s.workload: s for s in summary.searches}
        best = by_name.get("gcc", first).best
        out["explore.best_speedup_gcc"] = best.speedup if best else 0.0

        rng = random.Random(seed)
        points = [sample(rng) for _ in range(size.micro_ops)]
        costs = []
        for point in points:
            with tracer.timed("explore.cost") as watch:
                hardware_cost(point)
            costs.append(watch.seconds)
        out["explore.cost_us"] = median(costs) * 1e6
        out["compiler.annotate_knobs_ms"] = _annotate_knobs_ms(tracer)
        return out


def _simulated_cycles(summary) -> int:
    """Cycles of every simulation the search dispatched."""
    total = 0
    for search in summary.searches:
        total += search.scalar_cycles
        total += sum(r.cycles for r in search.evaluated if r.ok)
    return total


def _default_machine_err(summary) -> float:
    """The paper's 4-unit machine with default knobs is always probed,
    whatever the seed: its speedup against Table 3's 1-way 4u column."""
    errors = []
    for search in sorted(summary.searches, key=lambda s: s.workload):
        for result in search.evaluated:
            if result.point == default_point():
                errors.append(relative_error(
                    result.speedup,
                    PAPER_TABLE3[search.workload].speedup_4u_1w))
    return sum(errors) / len(errors)


def _annotate_knobs_ms(tracer: Tracer) -> float:
    """gcc annotated under every single-knob deviation from the default
    (what a cold search compiles beyond the default binary)."""
    spec = WORKLOADS["gcc"]
    unit = compile_minic(spec.source, "gcc")
    entries = list(unit.task_labels) + list(spec.extra_entries)
    total = 0.0
    for point in knob_probes()[1:]:
        knobs = CompilerKnobs(task_size=point.task_size,
                              loop_cut=point.loop_cut,
                              create_mask=point.create_mask)
        program = assemble(unit.asm, "gcc")
        with tracer.timed("compiler.annotate",
                          knobs=point.knob_label()) as watch:
            annotate_program(program, task_entries=entries, knobs=knobs)
        total += watch.seconds
    return total * 1e3

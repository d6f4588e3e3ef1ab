"""``sweep-cold-warm``: what a Table-3 user waits for.

``python -m repro sweep --jobs 2 --cache-dir TMP`` on the default grid
(every kernel x scalar/4u/8u, 1-way in-order), first on an empty
private store and then on the full one. Cold is WorkerPool fork and
dispatch, simulation and store writes; warm is interpreter start,
``import repro.cli``, key hashing, store reads and tabulation — the
same engine layer used two opposite ways.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time
from pathlib import Path

from repro.engine import ResultStore, SimJob, WorkerPool, scalar_job
from repro.engine.scheduler import PoolJob
from repro.engine.sweep import SweepRequest, build_grid, run_sweep
from repro.harness.paper_data import PAPER_TABLE3
from repro.observability import (
    Category,
    EventBus,
    chrome_trace,
    collect_metrics,
)
from repro.resilience import CheckpointManager, capture_state, restore_state

from perf.common import (
    Checks,
    Measured,
    Sizing,
    fresh_dir,
    median,
    run_cli,
)
from perf.grids import build_processor, build_program, relative_error
from perf.trace import Tracer, trace_overhead

UNITS = (4, 8)
_CACHE_LINE = re.compile(r"cache: (\d+) hits / (\d+) misses")
_FAULT_LINE = re.compile(
    r"(\d+) retries, (\d+) worker deaths, (\d+) timeouts")


def cli_startup_metrics(area: Path, size: Sizing, tracer: Tracer) -> dict:
    """What every ``python -m repro`` invocation pays before it works."""
    imports, startups = [], []
    for _ in range(size.probe_repeats):
        with tracer.span("cli.import"):
            imports.append(run_cli(["-c", "import repro.cli"], area).wall)
        with tracer.span("cli.startup"):
            startups.append(run_cli(["-m", "repro", "--help"], area).wall)
    return {"cli.import_ms": median(imports) * 1e3,
            "cli.startup_ms": median(startups) * 1e3}


def _noop(payload, attempt):
    return payload


class SweepColdWarm:
    name = "sweep-cold-warm"

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

    def _argv(self, order) -> list[str]:
        return ["-m", "repro", "sweep", "--jobs", "2",
                "--cache-dir", str(self.store_dir),
                "--workloads", ",".join(order)]

    def _sweep(self, order, expect_hits: int, expect_misses: int,
               checks: Checks, tracer: Tracer, span: str):
        with tracer.span(span):
            run = run_cli(self._argv(order), self.area)
        checks.ok(run.returncode == 0,
                  f"{span}: exit {run.returncode}: {run.stderr[-300:]}")
        found = _CACHE_LINE.search(run.stdout)
        counts = (int(found.group(1)), int(found.group(2))) if found else None
        checks.ok(counts == (expect_hits, expect_misses),
                  f"{span}: hits/misses {counts}, expected "
                  f"({expect_hits}, {expect_misses})")
        return run

    def _order(self, size: Sizing, seed: int, index: int) -> list[str]:
        order = list(size.kernels)
        random.Random(f"{seed}:{self.name}:{index}").shuffle(order)
        return order

    def _rounds(self, size: Sizing, seed: int, checks: Checks,
                tracer: Tracer, rounds: int, warm_per_round: int):
        """``rounds`` x {purge, one cold sweep, some warm sweeps}."""
        jobs = 3 * len(size.kernels)
        cold, warm, order, last_warm = [], [], [], None
        for index in range(rounds):
            order = self._order(size, seed, index)
            fresh_dir(self.store_dir)
            cold.append(self._sweep(order, 0, jobs, checks, tracer,
                                    "cli.sweep.cold"))
            for _ in range(warm_per_round):
                last_warm = self._sweep(order, jobs, 0, checks, tracer,
                                        "cli.sweep.warm")
                warm.append(last_warm)
        return cold, warm, order, last_warm

    def _in_process(self, order, tracer: Tracer, jobs: int = 2):
        request = SweepRequest(workloads=tuple(order), units=UNITS, jobs=jobs)
        with tracer.span("engine.run_sweep"):
            return run_sweep(request, ResultStore(self.store_dir))

    # ----------------------------------------------------------- end to end

    def measure(self, size: Sizing, seed: int,
                checks: Checks) -> dict[str, Measured]:
        tracer = Tracer(self.name, enabled=False)
        cold, warm, order, last_warm = self._rounds(
            size, seed, checks, tracer, size.sweep_rounds,
            size.sweep_warm_per_round)
        # The full store read back in process: the table the CLI printed
        # must be the one run_sweep renders, from hits only.
        summary = self._in_process(order, tracer)
        checks.ok(summary.hit_rate == 1.0 and summary.ok,
                  f"in-process warm sweep: hit rate {summary.hit_rate}, "
                  f"{summary.failures} failures")
        checks.ok(last_warm.stdout.rstrip("\n") == summary.render(),
                  "CLI table differs from in-process run_sweep().render()")
        cycles = sum(summary.scalar_cycles.values()) + \
            sum(cell.cycles or 0 for cell in summary.cells)
        jobs = summary.total_jobs
        cold_walls = [run.wall for run in cold]
        warm_walls = [run.wall for run in warm]
        mid = median(cold_walls)
        return {
            "sim_cycles_per_s": Measured(cycles / mid,
                                         [cycles / w for w in cold_walls]),
            "jobs_per_s": Measured(jobs / mid, [jobs / w for w in cold_walls]),
            "op_p50_ms": Measured(median(warm_walls) * 1e3,
                                  [w * 1e3 for w in warm_walls]),
            "paper_err": Measured(speedup_mae(summary.cells, "1w")),
        }

    # --------------------------------------------------------------- layers

    def layers(self, size: Sizing, seed: int, checks: Checks,
               tracer: Tracer) -> dict[str, float]:
        out = cli_startup_metrics(self.area, size, tracer)
        cold, warm, order, _ = self._rounds(size, seed, checks, tracer, 1, 2)
        out["engine.scheduler.pool_utilization"] = \
            cold[0].cpu / (2 * cold[0].wall)
        faults = _FAULT_LINE.search(cold[0].stdout)
        for index, name in enumerate(("retries", "worker_deaths",
                                      "timeouts")):
            out[f"engine.sweep.{name}"] = \
                int(faults.group(index + 1)) if faults else -1
        out.update(self._engine_layers(size, order, checks, tracer))
        out.update(self._machine_services(size, checks, tracer))
        return out

    def _engine_layers(self, size, order, checks, tracer) -> dict[str, float]:
        out: dict[str, float] = {}
        # First key() of the process hashes the simulator's sources.
        with tracer.timed("engine.job.fingerprint") as watch:
            scalar_job(order[0]).key()
        out["engine.job.fingerprint_ms"] = watch.seconds * 1e3
        grid = build_grid(SweepRequest(workloads=tuple(order), units=UNITS))
        # The span-dense section: run_sweep on the full store, with the
        # layers it calls into wrapped; traced / untraced, alternating.
        summary = self._in_process(order, Tracer("warm-up", enabled=False))
        out.update(_fidelity(summary.cells))

        def section(traced: bool) -> None:
            probe = tracer if traced else Tracer("probe", enabled=False)
            probe.wrap(ResultStore, "get", "engine.store.get")
            probe.wrap(ResultStore, "put", "engine.store.put")
            probe.wrap(SimJob, "key", "engine.job.key")
            probe.wrap(WorkerPool, "run", "engine.scheduler.pool.run")
            try:
                summary = self._in_process(order, probe)
            finally:
                probe.unwrap_all()
            checks.ok(summary.hit_rate == 1.0,
                      f"traced warm run_sweep: hit rate {summary.hit_rate}")

        out[f"perf.trace_overhead.{self.name}"] = \
            trace_overhead(size.probe_repeats, section)
        out["engine.sweep.tabulate_ms"] = \
            tracer.self_s("engine.run_sweep") * 1e3 / size.probe_repeats
        out["engine.job.key_us"] = \
            median(tracer.durations("engine.job.key")) * 1e6
        # Store reads, writes and misses on a scratch copy of the store.
        source = ResultStore(self.store_dir)
        stats = source.stats()
        out["engine.store.bytes_per_entry"] = \
            stats["bytes"] / max(1, stats["entries"])
        scratch = ResultStore(fresh_dir(self.area / "store-scratch"))
        keys = [job.key() for job in grid][:size.micro_ops]
        payloads = {key: source.get(key) for key in keys}
        for metric, span, operation in (
                ("engine.store.put_us", "engine.store.put",
                 lambda key: scratch.put(key, payloads[key])),
                ("engine.store.get_us", "engine.store.get",
                 lambda key: checks.ok(scratch.get(key) == payloads[key],
                                       "store returned another payload")),
                ("engine.store.miss_us", "engine.store.miss",
                 lambda key: checks.ok(scratch.get(key[::-1]) is None,
                                       "absent key was found"))):
            walls = []
            for key in keys:
                with tracer.timed(span) as watch:
                    operation(key)
                walls.append(watch.seconds)
            out[metric] = median(walls) * 1e6
        # No-op jobs through the pool: fork + pipe + reap per job.
        pool = WorkerPool(_noop, jobs=2)
        with tracer.timed("engine.scheduler.pool.run", noop=True) as watch:
            outcomes = pool.run([PoolJob(job_id=str(i), payload=i)
                                 for i in range(size.micro_ops)])
        checks.ok(all(o.ok for o in outcomes.values()),
                  "a no-op pool job failed")
        out["engine.scheduler.pool_dispatch_ms"] = \
            watch.seconds * 1e3 / size.micro_ops
        return out

    def _machine_services(self, size: Sizing, checks: Checks,
                          tracer: Tracer) -> dict[str, float]:
        """The simulator services the engine switches on for a job: the
        4-unit core itself, checkpoints, and metrics collection."""
        out: dict[str, float] = {}
        programs = {kernel: build_program(kernel, True, tracer)
                    for kernel in size.kernels}

        def timed(kernel, units, checkpointer=None, bus=None, **knobs):
            processor = build_processor(programs[kernel], units, **knobs)
            if bus is not None:
                bus.clear()
                bus.attach(processor)
            gc.collect()
            with tracer.timed("core.run", kernel=kernel, units=units) as watch:
                result = processor.run(checkpointer=checkpointer)
            return watch.seconds, result, processor

        passes = [timed(kernel, 4) for kernel in size.kernels]
        out["core.ms4.us_per_cycle"] = \
            sum(p[0] for p in passes) * 1e6 / sum(p[1].cycles for p in passes)

        # Checkpoints: one snapshot mid-run, and a run that takes many.
        big = "espresso" if "espresso" in programs else size.kernels[0]
        probe = _SnapshotProbe(at=20_000 if not size.smoke else 2_000)
        _, reference, _ = timed(big, 8, checkpointer=probe)
        checks.ok(probe.snapshot is not None, "no snapshot was captured")
        out["resilience.capture_ms"] = probe.capture_s * 1e3
        out["resilience.snapshot_kb"] = \
            len(json.dumps(probe.snapshot)) / 1024.0
        resumed = build_processor(programs[big], 8)
        with tracer.timed("resilience.restore") as watch:
            restore_state(resumed, probe.snapshot)
        out["resilience.restore_ms"] = watch.seconds * 1e3
        checks.ok(resumed.run().cycles == reference.cycles,
                  "resumed run's cycle count differs")
        long = "tomcatv" if "tomcatv" in programs else size.kernels[-1]
        ckpt_dir = fresh_dir(self.area / "ckpt")
        plain = min(timed(long, 8)[0] for _ in range(2))
        saved = min(timed(long, 8, checkpointer=CheckpointManager(
            ckpt_dir, "perf", every=5000))[0] for _ in range(2))
        out["resilience.checkpoint_overhead"] = saved / plain - 1.0

        # Observability: recording cost, metrics collection, export.
        bus = EventBus(Category.ALL)
        off, runs = [], []
        for _ in range(size.probe_repeats):     # interleaved, best of N
            off.append(timed("wc", 4, jit=False)[0])
            runs.append(timed("wc", 4, bus=bus, jit=False))
        out["observability.record_overhead"] = \
            min(r[0] for r in runs) / min(off) - 1.0
        result = runs[-1][1]
        with tracer.timed("observability.export") as watch:
            chrome_trace(bus, num_units=4, total_cycles=result.cycles,
                         label="wc:ms4")
        out["observability.export_ms"] = watch.seconds * 1e3
        finished = timed(big, 8)[2]
        walls = []
        for _ in range(size.micro_ops):
            with tracer.timed("observability.collect_metrics") as watch:
                collect_metrics(finished)
            walls.append(watch.seconds)
        out["observability.collect_metrics_ms"] = median(walls) * 1e3
        return out


class _SnapshotProbe:
    """A checkpointer that captures once, at or after cycle ``at``."""

    def __init__(self, at: int) -> None:
        self.next_cycle = at
        self.snapshot = None
        self.capture_s = 0.0

    def capture(self, processor) -> None:
        start = time.perf_counter()
        self.snapshot = capture_state(processor)
        self.capture_s = time.perf_counter() - start
        self.next_cycle = 10 ** 18


def _fidelity(cells) -> dict[str, float]:
    """Table-3 error of a default-grid sweep, split the way ROADMAP
    item 4 will want to watch it."""
    preds = [abs(cell.prediction_accuracy
                 - getattr(PAPER_TABLE3[cell.workload],
                           f"pred_{cell.units}u_1w")) for cell in cells]
    signs = sum(
        (cell.speedup >= 1.0) != (getattr(
            PAPER_TABLE3[cell.workload],
            f"speedup_{cell.units}u_1w") >= 1.0) for cell in cells)
    return {
        "harness.speedup_mae_4u": speedup_mae(
            [c for c in cells if c.units == 4], "1w"),
        "harness.speedup_mae_8u": speedup_mae(
            [c for c in cells if c.units == 8], "1w"),
        "harness.pred_mae": sum(preds) / len(preds),
        "harness.sign_mismatches": signs,
    }


def speedup_mae(cells, width: str, table=PAPER_TABLE3) -> float:
    """Mean |sim - paper| / paper speedup over ``cells`` (anything with
    ``workload``, ``units``, ``speedup``), in a fixed order so the sum
    repeats exactly whatever order the jobs ran in."""
    errors = [relative_error(
        cell.speedup,
        getattr(table[cell.workload], f"speedup_{cell.units}u_{width}"))
        for cell in sorted(cells, key=lambda c: (c.workload, c.units))]
    return sum(errors) / len(errors)

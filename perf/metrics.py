"""What the benchmark measures: workloads, metrics, and how they interact.

This file is declarations only. ``BENCHMARK.json`` at the repo root is
:func:`benchmark_json` written out; ``perf/test_perf.py`` holds the two
in step and checks that every name declared here is emitted by
``perf/run.py`` and vice versa.

Host time and simulated time are never mixed: ``kind`` says which a
metric is (``host`` = wall clock of the simulator and the layers around
it, ``sim`` = a property of the modelled machine that repeats exactly
between two runs of one commit, ``count`` = an exact count of work done
by a layer).
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``--seconds`` at which the counts in :class:`perf.common.Sizing`
#: apply unscaled; also ``run_seconds`` in ``BENCHMARK.json``.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "scalar-grid",
        "10 kernels on the 1-way in-order scalar core, run() timed: the only "
        "place the trace-JIT is resident; ring, ARB, engine, server idle"),
    Workload(
        "ms-grid",
        "10 kernels on the 8-unit multiscalar core, run() timed: pipeline, "
        "ring, ARB, banked d-cache and sequencer do the work, the JIT ~none"),
    Workload(
        "sweep-cold-warm",
        "repro sweep CLI on the default 30-job grid, empty store then full "
        "store: WorkerPool + store writes vs import + key hashing + reads"),
    Workload(
        "serve-mixed",
        "repro serve driven over HTTP: fresh 2-way out-of-order jobs through "
        "LeaseQueue+WorkerDaemon, then cached submit+result at 2 clients"),
    Workload(
        "explore-search",
        "repro explore gcc,cmp --budget 16 CLI, cold then warm: compiles per "
        "knob point, non-default hardware axes, search + Pareto + report"),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    """One user-visible metric. Every workload reports every one of
    them (the benchmark contract), so ``doc`` says what each workload
    measures under the name; ``bound`` is the share of the parent's
    median by which it may worsen before a change counts as a
    regression."""

    name: str
    unit: str
    better: str
    bound: float
    kind: str
    doc: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, "host",
        "process start to ready-for-the-first-timed-operation (imports, "
        "toolchain for the kernels, processors built, temp store, server "
        "answering /healthz); median over repeated set-ups in child "
        "processes"),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10, "host",
        "largest resident set of any one process of the run (the bench "
        "process or a reaped descendant: CLI, server, workers)"),
    EndToEnd(
        "sim_cycles_per_s", "cycles/s", "higher", 0.25, "host",
        "simulated cycles of fresh simulations / host seconds waited for "
        "them, per pass or round, at the median pass or round"),
    EndToEnd(
        "jobs_per_s", "1/s", "higher", 0.25, "host",
        "fresh simulations (kernel runs, grid jobs, design-point jobs) "
        "completed / host seconds, at the median pass or round; unlike "
        "sim_cycles_per_s it falls when the model simulates more cycles"),
    EndToEnd(
        "op_p50_ms", "ms", "lower", 0.25, "host",
        "median host latency of the operation a user repeats and waits on: "
        "one kernel run() (grids), one warm CLI invocation (sweep, "
        "explore), one cached submit+result (serve)"),
    EndToEnd(
        "paper_err", "ratio", "lower", 0.001, "sim",
        "mean |sim - paper| / paper over the cells the workload simulates: "
        "scalar IPC (scalar-grid), 8-unit task-prediction accuracy "
        "(ms-grid), Table-3 1-way 4u/8u speedup (sweep), Table-4 2-way "
        "4u/8u speedup (serve), default-machine 4u speedup (explore); "
        "repeats exactly, so any change is a model change"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)


@dataclass(frozen=True)
class Layer:
    """One single-layer metric, taken in the traced run.

    ``on`` names the workloads whose traced run measures it; the traced
    run of any other workload reports 0 for it (that layer did no work
    there, or is not measured there). ``moves`` is the prediction made
    before measuring: the ``metric@workload`` pairs this layer metric
    should move. Every pair not listed is predicted *not* to move."""

    name: str
    unit: str
    better: str
    kind: str
    on: tuple[str, ...]
    moves: tuple[str, ...]
    doc: str


_GRIDS = ("scalar-grid", "ms-grid")
_CLI = ("sweep-cold-warm", "explore-search")
_KERNELS = ("compress", "eqntott", "espresso", "gcc", "sc", "xlisp",
            "tomcatv", "cmp", "wc", "example")
_SHARES = ("useful", "non_useful", "no_comp_inter_task",
           "no_comp_intra_task", "no_comp_wait_retire", "no_comp_syscall",
           "idle")
_PACKAGES = ("pipeline", "core", "arb", "memory", "isa", "jit",
             "observability", "resilience")


def _layers() -> tuple[Layer, ...]:
    ms = ("ms-grid",)
    sc = ("scalar-grid",)
    sw = ("sweep-cold-warm",)
    sv = ("serve-mixed",)
    ex = ("explore-search",)
    out: list[Layer] = []
    add = lambda *a: out.append(Layer(*a))  # noqa: E731

    # ---------------------------------------------------------- toolchain
    for name, doc in (
            ("minic.compile_ms", "compile_minic"),
            ("isa.assemble_ms", "assemble"),
            ("compiler.annotate_ms", "annotate_program (0 on scalar-grid: "
             "scalar binaries are never annotated)"),
            ("isa.predecode_ms", "Program.uops() pre-decode")):
        add(name, "ms", "lower", "host", _GRIDS,
            ("setup_s@scalar-grid", "setup_s@ms-grid"),
            f"self time in {doc}, summed over the workload's kernels")
    add("compiler.annotate_knobs_ms", "ms", "lower", "host", ex,
        ("sim_cycles_per_s@explore-search", "jobs_per_s@explore-search"),
        "annotate_program on gcc under every single-knob deviation from "
        "the default CompilerKnobs, summed")
    add("compiler.instr_overhead_pct", "%", "lower", "sim", sc, (),
        "Table-2 style: dynamic instructions of the annotated binaries "
        "over the scalar ones - 1, summed over the kernels (count_job)")

    # ------------------------------------------------- simulator host cost
    add("core.scalar.us_per_cycle", "us", "lower", "host", sc,
        ("sim_cycles_per_s@scalar-grid", "jobs_per_s@scalar-grid",
         "op_p50_ms@scalar-grid"),
        "host us per simulated cycle, scalar core, JIT on, one pass")
    add("core.scalar_nojit.us_per_cycle", "us", "lower", "host", sc, (),
        "the same with jit=False (production never runs this)")
    add("jit.scalar_speedup", "ratio", "higher", "host", sc,
        ("sim_cycles_per_s@scalar-grid",),
        "scalar_nojit / scalar host cost per cycle")
    add("core.ms4.us_per_cycle", "us", "lower", "host", sw,
        ("sim_cycles_per_s@sweep-cold-warm", "jobs_per_s@sweep-cold-warm"),
        "host us per simulated cycle at 4 units, one pass")
    add("core.ms8.us_per_cycle", "us", "lower", "host", ms,
        ("sim_cycles_per_s@ms-grid", "jobs_per_s@ms-grid",
         "op_p50_ms@ms-grid", "sim_cycles_per_s@sweep-cold-warm",
         "jobs_per_s@sweep-cold-warm"),
        "host us per simulated cycle at 8 units, one pass")
    for kernel in _KERNELS:
        add(f"core.ms8.{kernel}.us_per_cycle", "us", "lower", "host", ms,
            ("sim_cycles_per_s@ms-grid",),
            f"host us per simulated cycle of {kernel} at 8 units")
    add("core.ms8_over_ms4_cost", "ratio", "lower", "host", ms,
        ("sim_cycles_per_s@ms-grid",),
        "per-cycle host cost at 8 units / at 4 units on tomcatv and cmp "
        "(ROADMAP 2a: the extra units are mostly asleep, so ~1 is the goal)")
    add("core.ms8_nojit.us_per_cycle", "us", "lower", "host", ms, (),
        "8 units with jit=False, one pass")
    add("jit.ms8_speedup", "ratio", "higher", "host", ms,
        ("sim_cycles_per_s@ms-grid",),
        "ms8_nojit / ms8 host cost per cycle: ROADMAP item 2 in one number")
    add("core.fastpath_speedup_ms4", "ratio", "higher", "host", ms,
        ("sim_cycles_per_s@ms-grid",),
        "reference interpreter / fast path wall on gcc, wc, example at "
        "4 units, jit=False on both")
    add("core.scalar_ooo2.us_per_cycle", "us", "lower", "host", sv,
        ("sim_cycles_per_s@serve-mixed", "jobs_per_s@serve-mixed"),
        "host us per simulated cycle, 2-way out-of-order scalar jobs")
    add("core.ms8_ooo2.us_per_cycle", "us", "lower", "host", sv,
        ("sim_cycles_per_s@serve-mixed", "jobs_per_s@serve-mixed"),
        "host us per simulated cycle, 2-way out-of-order 8-unit jobs")
    for package in _PACKAGES:
        add(f"hostshare.{package}", "ratio", "lower", "host", ms,
            ("sim_cycles_per_s@ms-grid",),
            f"share of cProfile tottime inside repro.{package}, tomcatv + "
            "cmp at 8 units (profiling shifts proportions: a pointer to "
            "candidates, not a measurement)")

    # ------------------------------------- modelled machine (exact, 8 units)
    sim = (("core.sim_cycles_total", "cycles", "lower",
            "simulated cycles summed over the kernels"),
           ("core.ipc_8u", "1/cycle", "higher",
            "retired instructions / cycles over the kernels"),
           ("core.pred_accuracy_8u", "%", "higher",
            "validated-correct task predictions / validated"),
           ("core.task_squash_ratio", "ratio", "lower",
            "tasks squashed / tasks started (wasted / attempted)"),
           ("core.squashed_instr_ratio", "ratio", "lower",
            "squashed instructions / (retired + squashed)"),
           ("arb.violations", "count", "lower", "memory-order violations"),
           ("arb.full_events", "count", "lower", "ARB-full stalls"),
           ("arb.peak_entries", "count", "lower",
            "largest ARB occupancy of any kernel"),
           ("arb.forward_ratio", "ratio", "higher",
            "loads served by an earlier task's store / ARB loads"),
           ("ring.sends", "count", "lower", "register values sent"),
           ("ring.bandwidth_delay_cycles", "cycles", "lower",
            "cycles values waited for ring bandwidth"),
           ("ring.dropped_stale", "count", "lower",
            "ring values dropped as stale"),
           ("memory.dcache_miss_rate", "ratio", "lower",
            "d-cache misses / accesses"),
           ("memory.dcache_bank_wait_cycles", "cycles", "lower",
            "cycles accesses waited for a busy bank"),
           ("memory.icache_miss_rate", "ratio", "lower",
            "i-cache misses / accesses"),
           ("memory.bus_wait_cycles", "cycles", "lower",
            "cycles requests waited for the memory bus"),
           ("pipeline.issued_per_cycle", "1/cycle", "higher",
            "instructions issued / cycles"),
           ("pipeline.flushed_ratio", "ratio", "lower",
            "instructions flushed / fetched"))
    for name, unit, better, doc in sim:
        add(name, unit, better, "sim", ms, ("paper_err@ms-grid",),
            doc + " (10 kernels, 8 units, caches start empty)")
    for share in _SHARES:
        add(f"core.cycles.{share}_share", "ratio",
            "higher" if share == "useful" else "lower", "sim", ms,
            ("paper_err@ms-grid",),
            f"Section-3 attribution: unit-cycles charged to {share} / all "
            "unit-cycles; each lost cycle has one cause, the shares sum to 1")
    for name, doc in (
            ("harness.speedup_mae_4u", "mean |sim - paper| / paper speedup, "
             "Table 3 1-way 4 units, 10 cells"),
            ("harness.speedup_mae_8u", "the same at 8 units"),
            ("harness.pred_mae", "mean |sim - paper| task-prediction "
             "accuracy, percentage points, Table 3 1-way 4u/8u, 20 cells")):
        add(name, "ratio" if "speedup" in name else "pp", "lower", "sim", sw,
            ("paper_err@sweep-cold-warm",), doc)
    add("harness.sign_mismatches", "count", "lower", "sim", sw,
        ("paper_err@sweep-cold-warm",),
        "Table-3 cells on the wrong side of speedup 1.0 against the paper")
    add("harness.pred_mae_2w", "pp", "lower", "sim", sv,
        ("paper_err@serve-mixed",),
        "mean |sim - paper| task-prediction accuracy, percentage points, "
        "Table 4 2-way 4u/8u, 12 cells")

    # ------------------------------------------ resilience / observability
    add("resilience.capture_ms", "ms", "lower", "host", sw, (),
        "capture_state of espresso at 8 units at cycle 20000")
    add("resilience.restore_ms", "ms", "lower", "host", sw, (),
        "restore_state of that snapshot into a fresh processor")
    add("resilience.snapshot_kb", "KB", "lower", "count", sw, (),
        "size of that snapshot as JSON")
    add("resilience.checkpoint_overhead", "ratio", "lower", "host", sw, (),
        "tomcatv at 8 units with CheckpointManager(every=5000) / without, "
        "- 1; moves nothing today: no benchmark job reaches the 2M-cycle "
        "default interval")
    add("observability.attach_overhead", "ratio", "lower", "host", ms,
        ("sim_cycles_per_s@ms-grid",),
        "wc at 4 units, jit=False: masked EventBus(0) attached / none, - 1 "
        "(the existing repro bench gate's definition, best of N)")
    add("observability.record_overhead", "ratio", "lower", "host", sw, (),
        "wc at 4 units, jit=False: EventBus recording every category / "
        "none, - 1")
    add("observability.collect_metrics_ms", "ms", "lower", "host", sw,
        ("sim_cycles_per_s@sweep-cold-warm",),
        "collect_metrics of a finished 8-unit processor (every engine job "
        "pays it once)")
    add("observability.export_ms", "ms", "lower", "host", sw, (),
        "chrome_trace of the recorded wc run")

    # --------------------------------------------------------- engine / cli
    add("cli.import_ms", "ms", "lower", "host", _CLI,
        ("op_p50_ms@sweep-cold-warm", "op_p50_ms@explore-search"),
        "python -c 'import repro.cli', median")
    add("cli.startup_ms", "ms", "lower", "host", _CLI,
        ("op_p50_ms@sweep-cold-warm", "op_p50_ms@explore-search"),
        "python -m repro --help, median: interpreter + import + parser")
    add("engine.job.fingerprint_ms", "ms", "lower", "host", sw,
        ("op_p50_ms@sweep-cold-warm",),
        "first SimJob.key() of a process (hashes every repro source file)")
    add("engine.job.key_us", "us", "lower", "host", sw,
        ("op_p50_ms@sweep-cold-warm",), "SimJob.key() after that, median")
    for name, doc in (("put_us", "ResultStore.put, median"),
                      ("get_us", "ResultStore.get of a stored key, median"),
                      ("miss_us", "ResultStore.get of an absent key, median")):
        add(f"engine.store.{name}", "us", "lower", "host", sw, (),
            doc + "; 30 reads or writes per sweep, so predicted to move no "
            "end-to-end metric at this grid size")
    add("engine.store.bytes_per_entry", "B", "lower", "count", sw, (),
        "bytes on disk / entries of the full default-grid store")
    add("engine.scheduler.pool_dispatch_ms", "ms", "lower", "host", sw,
        ("sim_cycles_per_s@sweep-cold-warm", "jobs_per_s@sweep-cold-warm",
         "jobs_per_s@explore-search"),
        "wall per no-op job through WorkerPool(jobs=2): fork + pipe + reap")
    add("engine.scheduler.pool_utilization", "ratio", "higher", "host", sw,
        ("sim_cycles_per_s@sweep-cold-warm", "jobs_per_s@sweep-cold-warm"),
        "CPU seconds of the cold sweep CLI and its workers / (2 x its wall)")
    add("engine.scheduler.daemon_dispatch_ms", "ms", "lower", "host", sv,
        ("jobs_per_s@serve-mixed",),
        "wall per no-op job through WorkerDaemon(workers=2)")
    add("engine.sweep.tabulate_ms", "ms", "lower", "host", sw,
        ("op_p50_ms@sweep-cold-warm",),
        "run_sweep self time on a full store: tabulate + metrics merge")
    for name in ("retries", "worker_deaths", "timeouts"):
        add(f"engine.sweep.{name}", "count", "lower", "count", sw, (),
            f"{name} over the traced cold sweep (expect 0)")

    # --------------------------------------------------------------- server
    for name, doc in (("healthz_ms", "GET /healthz: the HTTP floor"),
                      ("submit_cached_ms", "POST /v1/jobs of a cached key"),
                      ("result_ms", "GET result of a cached key"),
                      ("status_ms", "GET status of a finished key")):
        add(f"server.{name}", "ms", "lower", "host", sv,
            ("op_p50_ms@serve-mixed",), doc + ", median")
    add("server.cached.p90_ms", "ms", "lower", "host", sv, (),
        "cached submit+result at 2 clients, 90th percentile")
    add("server.cached.p99_ms", "ms", "lower", "host", sv, (),
        "the same, 99th percentile (10 samples beyond it at n=1000)")
    add("server.cached.rps", "1/s", "higher", "host", sv,
        ("op_p50_ms@serve-mixed",),
        "cached submit+result operations / s at 2 closed-loop clients")
    add("server.fresh.p50_ms", "ms", "lower", "host", sv, (),
        "submit gcc-scalar fresh -> wait() at the default poll -> result")
    add("server.fresh.p80_ms", "ms", "lower", "host", sv, (),
        "the same, highest percentile with samples beyond it at this n")
    add("server.dispatch_ms", "ms", "lower", "host", sv,
        ("jobs_per_s@serve-mixed",),
        "that round trip at poll=0.005 - in-process execute of the job: "
        "queue + lease + pipe + store write + HTTP")
    add("server.client_poll_wait_ms", "ms", "lower", "host", sv, (),
        "that round trip at the default poll - at poll=0.005: what "
        "ServerClient.wait's 0.2 s poll costs a small job")
    add("server.fresh_scaling", "ratio", "higher", "host", sv,
        ("jobs_per_s@serve-mixed",),
        "fresh-grid jobs/s over serial in-process jobs/s (at most 2)")
    for name in ("backpressure_429", "dedup_hits", "requeues",
                 "jobs_failed"):
        add(f"server.{name}", "count", "lower", "count", sv, (),
            f"/metrics counter server.{name} at the end of the run")

    # -------------------------------------------------------------- explore
    add("explore.point_eval_ms", "ms", "lower", "host", ex,
        ("jobs_per_s@explore-search",), "cold CLI wall / fresh simulations")
    add("explore.fresh_points", "count", "lower", "count", ex, (),
        "simulations the cold search dispatched")
    add("explore.cache_hits", "count", "higher", "count", ex, (),
        "store hits of the warm search")
    add("explore.rejected_points", "ratio", "lower", "count", ex, (),
        "design points found infeasible / points drawn")
    add("explore.search_overhead_ms", "ms", "lower", "host", ex,
        ("op_p50_ms@explore-search",),
        "in-process run_explore on a full store: search + store reads")
    add("explore.report_ms", "ms", "lower", "host", ex,
        ("op_p50_ms@explore-search",), "build_report + validate_report")
    add("explore.cost_us", "us", "lower", "host", ex, (),
        "hardware_cost of one design point, median")
    add("explore.best_speedup_gcc", "ratio", "higher", "sim", ex, (),
        "best speedup the search found for gcc")

    # ---------------------------------------------------------------- trace
    for workload in WORKLOAD_NAMES:
        add(f"perf.trace_overhead.{workload}", "ratio", "lower", "host",
            (workload,), (),
            "traced / untraced wall of the workload's span-dense section, "
            "- 1")
    return tuple(out)


PER_LAYER: tuple[Layer, ...] = _layers()
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
KERNELS = _KERNELS
SHARES = _SHARES
PACKAGES = _PACKAGES


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }

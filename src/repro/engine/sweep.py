"""Grid sweeps: shard a workload × configuration grid across workers.

A sweep expands ``workloads × widths × orders`` into one scalar
baseline job per (workload, width, order) plus one multiscalar job per
requested unit count, then resolves the grid
(:mod:`repro.engine.resolve`) through the persistent store and the
fault-tolerant pool:

* jobs whose key is already in the store are *hits* and never dispatch;
* misses are sharded across ``jobs`` worker processes, and fresh
  payloads are persisted by the parent (workers never touch the store,
  so there is exactly one writer);
* a job that fails (mismatch, timeout after retries, dead workers) is
  counted and reported, but never takes the sweep down.

The summary holds the speedup of every cell —
``scalar.cycles / multiscalar.cycles``, divided only in
:func:`_tabulate` — next to each job's native result and the engine's
cache and fault accounting; the paper tables
(:mod:`repro.harness.runner`) are views of it.
:func:`run_sweep_via_server` resolves the identical grid as a thin HTTP
client of a ``repro serve`` instance instead of a local pool — same
keys, same table, shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.job import (
    SimJob,
    metrics_from_payload,
    multiscalar_job,
    result_from_payload,
    scalar_job,
)
from repro.engine.resolve import LocalResolver, ServerResolver
from repro.engine.store import ResultStore


@dataclass(frozen=True)
class SweepRequest:
    workloads: tuple[str, ...]
    units: tuple[int, ...] = (4, 8)
    widths: tuple[int, ...] = (1,)
    orders: tuple[bool, ...] = (False,)
    jobs: int = 1
    timeout: float = 600.0
    retries: int = 2
    use_cache: bool = True
    self_test: bool = False        # kill one worker mid-job, require retry
    max_cycles: int = 20_000_000
    fast_path: bool = True         # False: reference per-cycle simulator
    jit: bool = True               # False: fast path without the trace-JIT


@dataclass
class SweepCell:
    """One multiscalar grid point joined with its scalar baseline."""

    workload: str
    units: int
    issue_width: int
    out_of_order: bool
    cycles: int | None = None
    speedup: float | None = None
    prediction_accuracy: float | None = None
    error: str = ""


@dataclass
class SweepSummary:
    request: SweepRequest
    cells: list[SweepCell] = field(default_factory=list)
    scalar_cycles: dict[tuple[str, int, bool], int] = \
        field(default_factory=dict)
    #: The native result of every grid job that finished, keyed
    #: ``(kind, workload, units, issue_width, out_of_order)``.
    results: dict[tuple, object] = field(default_factory=dict)
    total_jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    failures: int = 0
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    errors: list[str] = field(default_factory=list)
    #: Ctrl-C cut the sweep short: completed cells are still tabulated
    #: and persisted, unfinished jobs read "interrupted".
    interrupted: bool = False
    #: Per-run MetricsRegistry payloads merged across the whole grid
    #: (cache hits and fresh runs alike); ``None`` until tabulation, or
    #: when no payload carried metrics (pre-metrics cache entries).
    metrics: "object | None" = None
    #: Payloads that carried no metrics (pre-metrics cache entries and
    #: count jobs) — surfaced so a ``--metrics`` reader knows the merged
    #: registry under-counts instead of silently missing cells.
    cells_without_metrics: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total_jobs if self.total_jobs else 0.0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def render(self) -> str:
        req = self.request
        lines = [
            f"sweep: {len(req.workloads)} workloads x "
            f"units {{{','.join(map(str, req.units))}}} x "
            f"widths {{{','.join(map(str, req.widths))}}} x "
            f"orders {{{','.join('ooo' if o else 'io' for o in req.orders)}}}"
            f" -- {self.total_jobs} jobs",
        ]
        header = (f"{'workload':10} {'width':5} {'order':5} "
                  f"{'scalar-cyc':>10}")
        for units in req.units:
            header += f" {f'{units}u speedup':>12} {f'{units}u pred':>8}"
        lines.append(header)
        for name in req.workloads:
            for width in req.widths:
                for ooo in req.orders:
                    scalar = self.scalar_cycles.get((name, width, ooo))
                    row = (f"{name:10} {width:5} "
                           f"{'ooo' if ooo else 'io':5} "
                           f"{scalar if scalar is not None else '-':>10}")
                    for units in req.units:
                        cell = self.cell(name, units, width, ooo)
                        if cell is None or cell.speedup is None:
                            row += f" {'-':>12} {'-':>8}"
                        else:
                            row += (f" {cell.speedup:>12.2f}"
                                    f" {cell.prediction_accuracy:>7.1f}%")
                    lines.append(row)
        lines.append(
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"(hit rate {100.0 * self.hit_rate:.1f}%); "
            f"{self.failures} failures, {self.retries} retries, "
            f"{self.worker_deaths} worker deaths, "
            f"{self.timeouts} timeouts")
        if self.cells_without_metrics:
            lines.append(f"metrics: {self.cells_without_metrics} payloads "
                         "without metrics (pre-metrics cache entries)")
        if self.interrupted:
            lines.append("sweep interrupted: partial results above were "
                         "flushed; unfinished jobs read 'interrupted'")
        for error in self.errors:
            lines.append(f"  failed: {error}")
        return "\n".join(lines)

    def cell(self, name: str, units: int, width: int,
             ooo: bool) -> SweepCell | None:
        """The grid cell of one multiscalar machine, if requested."""
        for cell in self.cells:
            if (cell.workload, cell.units, cell.issue_width,
                    cell.out_of_order) == (name, units, width, ooo):
                return cell
        return None


def build_grid(request: SweepRequest) -> list[SimJob]:
    """Expand a sweep request into its (deduplicated) job list."""
    grid: list[SimJob] = []
    for name in request.workloads:
        for width in request.widths:
            for ooo in request.orders:
                grid.append(scalar_job(name, width, ooo,
                                       max_cycles=request.max_cycles,
                                       fast_path=request.fast_path,
                                       jit=request.jit))
                for units in request.units:
                    grid.append(multiscalar_job(
                        name, units, width, ooo,
                        max_cycles=request.max_cycles,
                        fast_path=request.fast_path,
                        jit=request.jit))
    return list({job.key(): job for job in grid}.values())


def _run_grid(request: SweepRequest, resolver,
              faults: dict[str, dict] | None = None) -> SweepSummary:
    """``build_grid`` -> ``resolver.resolve`` -> ``_tabulate``."""
    grid = build_grid(request)
    by_key = {job.key(): job for job in grid}
    faults = dict(faults or {})
    # Self-test: the first multiscalar job must survive a SIGKILLed
    # worker mid-run; faulted keys bypass the read path, so it always
    # dispatches.
    if request.self_test:
        for key, job in by_key.items():
            if job.kind == "multiscalar":
                faults.setdefault(key, {}) \
                    .setdefault("kill_on_attempts", (0,))
                break
    resolution = resolver.resolve(grid, faults=faults)
    summary = SweepSummary(
        request=request, total_jobs=len(grid),
        cache_hits=len(resolution.cached),
        cache_misses=len(grid) - len(resolution.cached),
        failures=len(resolution.errors),
        retries=resolution.retries,
        worker_deaths=resolution.worker_deaths,
        timeouts=resolution.timeouts,
        errors=[f"{job.label()}: {resolution.errors[key]}"
                for key, job in by_key.items() if key in resolution.errors],
        interrupted=resolution.interrupted)
    _tabulate(summary, by_key, resolution.payloads)
    return summary


def run_sweep(request: SweepRequest, store: ResultStore | None,
              progress=None, faults: dict[str, dict] | None = None
              ) -> SweepSummary:
    """Run a sweep grid through the store and a local worker pool.

    ``faults`` (chaos harness) maps job keys to injections (see
    :mod:`repro.engine.resolve`); a faulted key always bypasses the
    cache read so the injection actually runs.
    """
    summary = _run_grid(
        request,
        LocalResolver(store, jobs=request.jobs, timeout=request.timeout,
                      retries=request.retries, progress=progress),
        faults)
    if store is not None:
        store.flush_counters()
    return summary


def run_sweep_via_server(request: SweepRequest, url: str,
                         progress=None,
                         client_id: str = "sweep") -> SweepSummary:
    """Run the same sweep grid as a thin client of ``repro serve``:
    same keys, same table, the server's store and its job records'
    accounting. ``self_test`` needs a server running ``--chaos``; an
    unreachable server raises :class:`ConnectionError`."""
    return _run_grid(
        request,
        ServerResolver(url, client_id=client_id, timeout=request.timeout,
                       fresh=not request.use_cache, progress=progress))


def _tabulate(summary: SweepSummary, by_key: dict[str, SimJob],
              payloads: dict[str, dict]) -> None:
    request = summary.request
    for payload in payloads.values():
        registry = metrics_from_payload(payload)
        if registry is None:
            summary.cells_without_metrics += 1
        elif summary.metrics is None:
            summary.metrics = registry
        else:
            summary.metrics.merge(registry)
    results = summary.results = {
        (job.kind, job.workload, job.units, job.issue_width,
         job.out_of_order): result_from_payload(payloads[key])
        for key, job in by_key.items() if key in payloads}
    for name in request.workloads:
        for width in request.widths:
            for ooo in request.orders:
                scalar = results.get(("scalar", name, 1, width, ooo))
                if scalar is not None:
                    summary.scalar_cycles[(name, width, ooo)] = scalar.cycles
                for units in request.units:
                    cell = SweepCell(workload=name, units=units,
                                     issue_width=width, out_of_order=ooo)
                    multi = results.get(
                        ("multiscalar", name, units, width, ooo))
                    if multi is None:
                        cell.error = "job failed"
                    else:
                        cell.cycles = multi.cycles
                        cell.prediction_accuracy = \
                            100.0 * multi.prediction_accuracy
                        if scalar is not None:
                            cell.speedup = scalar.cycles / multi.cycles
                    summary.cells.append(cell)


def render_timelines(request: SweepRequest, width: int = 72) -> str:
    """Re-run the widest configuration of each workload with a
    ``task``-category :class:`~repro.observability.EventBus` attached
    and render the per-unit task timelines (serial; timing only,
    results ignored)."""
    from repro.observability import Category, EventBus, render_timeline

    units = max(request.units) if request.units else 4
    lines = []
    for name in request.workloads:
        job = SimJob(kind="multiscalar", workload=name, units=units,
                     issue_width=max(request.widths),
                     out_of_order=request.orders[-1])
        processor = job.processor(job.program()[0])
        bus = EventBus(Category.TASK).attach(processor)
        processor.run(max_cycles=request.max_cycles)
        lines.append(f"-- {name} ({units} units) --")
        lines.extend(render_timeline(bus, units, width))
    return "\n".join(lines)

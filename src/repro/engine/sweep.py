"""Grid sweeps: shard a workload × configuration grid across workers.

A sweep expands ``workloads × widths × orders`` into one scalar
baseline job per (workload, width, order) plus one multiscalar job per
requested unit count, then runs the grid through the persistent store
and the fault-tolerant pool:

* jobs whose key is already in the store are *hits* and never dispatch;
* misses are sharded across ``jobs`` worker processes, and fresh
  payloads are persisted by the parent (workers never touch the store,
  so there is exactly one writer);
* a job that fails (mismatch, timeout after retries, dead workers) is
  counted and reported, but never takes the sweep down.

The summary renders the same speedup numbers as the serial harness —
``scalar.cycles / multiscalar.cycles`` per cell — plus the engine's
cache and fault accounting. :func:`run_sweep_via_server` runs the
identical grid as a thin HTTP client of a ``repro serve`` instance
instead of a local pool — same keys, same table, shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.job import (
    SimJob,
    execute,
    import_execution_modules,
    metrics_from_payload,
    multiscalar_job,
    result_from_payload,
    scalar_job,
)
from repro.engine.store import ResultStore

# The scheduler, the checkpoint layer and (through ``execute``) the
# simulator are imported by ``_dispatch``, i.e. only when a job misses
# the store: a sweep answered from the store pays for none of them.


@dataclass(frozen=True)
class SweepRequest:
    workloads: tuple[str, ...]
    units: tuple[int, ...] = (4, 8)
    widths: tuple[int, ...] = (1,)
    orders: tuple[bool, ...] = (False,)
    jobs: int = 1
    timeout: float = 600.0
    retries: int = 2
    backoff: float = 0.25
    use_cache: bool = True
    self_test: bool = False        # kill one worker mid-job, require retry
    max_cycles: int = 20_000_000
    fast_path: bool = True         # False: reference per-cycle simulator
    jit: bool = True               # False: fast path without the trace-JIT
    #: Simulated cycles between worker checkpoints (timing jobs only);
    #: long jobs killed mid-run resume from the last good checkpoint.
    checkpoint_every: int = 2_000_000


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
                        cell = self._cell(name, units, width, ooo)
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

    def _cell(self, name: str, units: int, width: int,
              ooo: bool) -> SweepCell | None:
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
    seen: set[str] = set()
    unique = []
    for job in grid:
        if job.key() not in seen:
            seen.add(job.key())
            unique.append(job)
    return unique


def _pool_entrypoint(payload, attempt: int) -> dict:
    """Module-level worker entrypoint (picklable under any start
    method). ``payload`` is a bare :class:`SimJob` or a
    ``(SimJob, CheckpointPolicy)`` pair; returns the job's JSON-able
    payload."""
    if isinstance(payload, tuple):
        job, policy = payload
        return execute(job, checkpoints=policy, attempt=attempt)
    return execute(payload)


def _dispatch(request: SweepRequest, store: ResultStore | None,
              misses: list[tuple[str, SimJob, dict | None]],
              summary: SweepSummary, payloads: dict[str, dict],
              progress) -> None:
    """Run the store misses on the worker pool, persist what finishes
    and fold the fault accounting into ``summary``."""
    from repro.engine.scheduler import PoolJob, WorkerPool
    from repro.resilience.checkpoint import CheckpointPolicy

    # Before the first fork: the pool forks one child per job, and a
    # child that finds the simulator missing imports it all over again.
    import_execution_modules()
    policy = None
    if store is not None:
        policy = CheckpointPolicy(directory=str(store.root / "ckpt"),
                                  every=request.checkpoint_every)
    by_key = {key: job for key, job, _ in misses}
    to_run: list[PoolJob] = []
    for key, job, fault in misses:
        job_policy = policy
        if policy is not None and fault is not None \
                and fault.get("kill_after_checkpoint"):
            job_policy = CheckpointPolicy(
                directory=policy.directory, every=policy.every,
                kill_after_checkpoint_on_attempts=tuple(
                    fault["kill_after_checkpoint"]))
        to_run.append(PoolJob(
            job_id=key,
            payload=job if job_policy is None else (job, job_policy),
            kill_on_attempts=tuple(
                fault.get("kill_on_attempts", ())) if fault else ()))
    pool = WorkerPool(_pool_entrypoint, jobs=request.jobs,
                      timeout=request.timeout, retries=request.retries,
                      backoff=request.backoff, progress=progress)
    outcomes = pool.run(to_run)
    summary.interrupted = pool.interrupted
    for key, outcome in outcomes.items():
        summary.retries += outcome.retries
        summary.worker_deaths += outcome.worker_deaths
        summary.timeouts += outcome.timeouts
        if outcome.ok:
            payloads[key] = outcome.value
            if store is not None:
                store.put(key, outcome.value, job=by_key[key].describe())
        else:
            summary.failures += 1
            summary.errors.append(f"{by_key[key].label()}: {outcome.error}")


def run_sweep(request: SweepRequest, store: ResultStore | None,
              progress=None, faults: dict[str, dict] | None = None
              ) -> SweepSummary:
    """Run a sweep grid through the store and the worker pool.

    ``faults`` (chaos harness) maps job keys to injections:
    ``{"kill_on_attempts": (...)}`` SIGKILLs the worker mid-job on
    those attempts, ``{"kill_after_checkpoint": (...)}`` kills it right
    after its first durable checkpoint. Faulted keys always bypass the
    cache read so the injection actually runs.
    """
    progress = progress or (lambda message: None)
    faults = dict(faults or {})
    grid = build_grid(request)
    summary = SweepSummary(request=request, total_jobs=len(grid))
    by_key = {job.key(): job for job in grid}
    payloads: dict[str, dict] = {}

    # Self-test: the first multiscalar job must survive a SIGKILLed
    # worker mid-run; it bypasses the read path so it always dispatches.
    if request.self_test:
        for job in grid:
            if job.kind == "multiscalar":
                faults.setdefault(job.key(), {}) \
                    .setdefault("kill_on_attempts", (0,))
                break

    misses: list[tuple[str, SimJob, dict | None]] = []
    for job in grid:
        key = job.key()
        fault = faults.get(key)
        payload = None if (store is None or fault is not None) \
            else store.get(key)
        if payload is not None:
            summary.cache_hits += 1
            payloads[key] = payload
        else:
            summary.cache_misses += 1
            misses.append((key, job, fault))
    if misses:
        progress(f"{summary.cache_hits} cached, "
                 f"{len(misses)} jobs to run on {request.jobs} workers")
        _dispatch(request, store, misses, summary, payloads, progress)
    _tabulate(summary, by_key, payloads)
    if store is not None:
        store.flush_counters()
    return summary


def _tabulate(summary: SweepSummary, by_key: dict[str, SimJob],
              payloads: dict[str, dict]) -> None:
    request = summary.request
    results = {key: result_from_payload(payload)
               for key, payload in payloads.items()}
    for payload in payloads.values():
        registry = metrics_from_payload(payload)
        if registry is None:
            summary.cells_without_metrics += 1
            continue
        if summary.metrics is None:
            summary.metrics = registry
        else:
            summary.metrics.merge(registry)
    scalar_keys = {(job.workload, job.issue_width, job.out_of_order): key
                   for key, job in by_key.items() if job.kind == "scalar"}
    for name in request.workloads:
        for width in request.widths:
            for ooo in request.orders:
                scalar_key = scalar_keys.get((name, width, ooo))
                scalar = results.get(scalar_key)
                if scalar is not None:
                    summary.scalar_cycles[(name, width, ooo)] = scalar.cycles
                for units in request.units:
                    cell = SweepCell(workload=name, units=units,
                                     issue_width=width, out_of_order=ooo)
                    key = multiscalar_job(
                        name, units, width, ooo,
                        max_cycles=request.max_cycles,
                        fast_path=request.fast_path,
                        jit=request.jit).key()
                    multi = results.get(key)
                    if multi is None:
                        cell.error = "job failed"
                    else:
                        cell.cycles = multi.cycles
                        cell.prediction_accuracy = \
                            100.0 * multi.prediction_accuracy
                        if scalar is not None:
                            cell.speedup = scalar.cycles / multi.cycles
                    summary.cells.append(cell)


def run_sweep_via_server(request: SweepRequest, url: str,
                         progress=None,
                         client_id: str = "sweep") -> SweepSummary:
    """Run the same sweep grid as a thin client of ``repro serve``.

    Every grid job is submitted as a ``sim`` envelope built from
    :meth:`SimJob.spec`, so the server's content-addressed keys are
    exactly the local ones — whatever a standalone sweep already
    cached on that server's store is an instant hit, and the summary's
    hit/retry/death accounting comes from the server's job records.
    ``self_test`` submits the first multiscalar job with a
    kill-the-worker fault (the server must be running ``--chaos``).
    """
    from repro.server.client import ServerClient, ServerError

    progress = progress or (lambda message: None)
    client = ServerClient(url, client_id=client_id)
    grid = build_grid(request)
    summary = SweepSummary(request=request, total_jobs=len(grid))
    by_key = {job.key(): job for job in grid}

    faults: dict[str, dict] = {}
    if request.self_test:
        for job in grid:
            if job.kind == "multiscalar":
                faults[job.key()] = {"kill_on_attempts": [0]}
                break
    keys: list[str] = []
    for job in grid:
        key = job.key()
        try:
            answer = client.submit({"type": "sim", "spec": job.spec()},
                                   priority="batch",
                                   fresh=not request.use_cache,
                                   fault=faults.get(key))
        except ServerError as exc:
            if exc.status == 0:  # unreachable, not a rejected job
                raise
            summary.failures += 1
            summary.errors.append(f"{job.label()}: {exc}")
            continue
        if answer.get("cached"):
            summary.cache_hits += 1
        else:
            summary.cache_misses += 1
        keys.append(answer["key"])
    progress(f"{summary.cache_hits} cached on the server, "
             f"{summary.cache_misses} submitted to {url}")
    records = client.wait(
        keys, timeout=request.timeout * max(1, len(keys)),
        progress=lambda done, total: progress(f"{done}/{total} jobs "
                                              "settled"))
    payloads: dict[str, dict] = {}
    for key in keys:
        record = records[key]
        summary.retries += record.get("requeues", 0)
        summary.worker_deaths += record.get("worker_deaths", 0)
        if record["status"] == "done":
            payload = client.result(key)
            if payload is not None:
                payloads[key] = payload
                continue
        summary.failures += 1
        label = by_key[key].label() if key in by_key else key[:12]
        summary.errors.append(
            f"{label}: {record.get('error') or 'no result'}")
    _tabulate(summary, by_key, payloads)
    return summary


def render_timelines(request: SweepRequest, width: int = 72) -> str:
    """Re-run the widest configuration of each workload with a
    :class:`~repro.core.tracer.TaskTracer` attached and render the
    per-unit task timelines (serial; timing only, results ignored)."""
    from repro.config import multiscalar_config
    from repro.core.processor import MultiscalarProcessor
    from repro.core.tracer import TaskTracer
    from repro.workloads import WORKLOADS

    units = max(request.units) if request.units else 4
    lines = []
    for name in request.workloads:
        spec = WORKLOADS[name]
        processor = MultiscalarProcessor(
            spec.multiscalar_program(),
            multiscalar_config(units, max(request.widths),
                               request.orders[-1]))
        tracer = TaskTracer().attach(processor)
        processor.run(max_cycles=request.max_cycles)
        lines.append(f"-- {name} ({units} units) --")
        lines.append(tracer.render(width=width))
        lines.append(tracer.summary())
    return "\n".join(lines)

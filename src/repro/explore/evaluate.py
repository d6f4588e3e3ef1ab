"""Point evaluation: design points -> (cycles, speedup, stalls).

Both evaluators speak the same content-addressed :class:`SimJob`
language as ``repro sweep``, so every evaluated point lands in (and is
served from) the shared result store — a search resumed tomorrow, or
pointed at a ``repro serve`` instance another client already warmed,
re-simulates nothing.

Evaluation order is store -> pre-check -> dispatch. A stored payload
proves the point compiled under this exact code fingerprint, so a hit
needs neither the toolchain nor the simulator; only misses are
pre-checked. The pre-check filters infeasible points *before* any job
is dispatched: the compiler knobs are tried in-process (a compile, no
simulation), and a point whose knob combination the annotator rejects
is reported as ``infeasible`` without consuming a simulation. This
matters for cache accounting — failed jobs are never cached, so
submitting doomed points would make a warm re-run do fresh work. (An
infeasible point is never stored either, so it is re-checked on every
run; it counts as neither a hit nor a fresh simulation.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.job import (
    SimJob,
    execute,
    import_execution_modules,
    metrics_from_payload,
    result_from_payload,
    scalar_job,
)
from repro.engine.store import ResultStore
from repro.explore.cost import hardware_cost
from repro.explore.space import DesignPoint

__all__ = [
    "PointResult",
    "LocalEvaluator",
    "ServerEvaluator",
]


@dataclass
class PointResult:
    """One evaluated design point for one workload."""

    point: DesignPoint
    cost: float
    cycles: int | None = None
    speedup: float | None = None
    prediction_accuracy: float | None = None
    #: ``cycles.*`` stall-attribution counters (empty for payloads
    #: without metrics).
    stalls: dict[str, int] = field(default_factory=dict)
    cached: bool = False
    infeasible: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the point simulated to completion."""
        return self.cycles is not None


def _stalls(payload: dict) -> dict[str, int]:
    registry = metrics_from_payload(payload)
    if registry is None:
        return {}
    prefix = "cycles."
    return {name[len(prefix):]: count
            for name, count in sorted(registry.counters.items())
            if name.startswith(prefix)}


class _EvaluatorBase:
    """Shared accounting + feasibility precheck."""

    def __init__(self, max_cycles: int, fast_path: bool, jit: bool) -> None:
        self.max_cycles = max_cycles
        self.fast_path = fast_path
        self.jit = jit
        self.cache_hits = 0
        self.fresh_runs = 0
        self.failures = 0
        self.points_without_metrics = 0
        self._scalar_cycles: dict[str, int] = {}
        self._feasible: dict[tuple, str | None] = {}

    def _job(self, workload: str, point: DesignPoint) -> SimJob:
        return point.to_job(workload, max_cycles=self.max_cycles,
                            fast_path=self.fast_path, jit=self.jit)

    def _precheck(self, workload: str, point: DesignPoint) -> str | None:
        """``None`` when the point's knobs compile for ``workload``,
        else the compile error (memoized per knob setting)."""
        key = (workload, point.task_size, point.loop_cut, point.create_mask)
        if key not in self._feasible:
            from repro.compiler.annotate import AnnotationError
            from repro.compiler.regions import RegionError
            from repro.isa.assembler import AssemblerError
            from repro.minic.codegen import CodegenError
            from repro.minic.lexer import LexError
            from repro.minic.parser import ParseError
            from repro.workloads import WORKLOADS

            job = self._job(workload, point)
            # The toolchain's own rejections only: anything else (an
            # ImportError, an AttributeError) is a bug in this program
            # and must fail the search, not shrink it.
            try:
                WORKLOADS[workload].multiscalar_program(
                    knobs=job.compiler_knobs())
            except (AnnotationError, RegionError, AssemblerError,
                    CodegenError, LexError, ParseError,
                    ValueError) as exc:
                self._feasible[key] = f"{type(exc).__name__}: {exc}"
            else:
                self._feasible[key] = None
        return self._feasible[key]

    def _finish(self, result: PointResult, payload: dict,
                scalar_cycles: int) -> PointResult:
        sim = result_from_payload(payload)
        result.cycles = sim.cycles
        result.speedup = scalar_cycles / sim.cycles
        result.prediction_accuracy = sim.prediction_accuracy
        result.stalls = _stalls(payload)
        if not result.stalls:
            self.points_without_metrics += 1
        return result


class LocalEvaluator(_EvaluatorBase):
    """Evaluate points through the persistent store and a local
    :class:`~repro.engine.scheduler.WorkerPool` (``jobs=1`` executes
    in-process, no pool)."""

    def __init__(self, store: ResultStore | None, jobs: int = 1,
                 timeout: float = 600.0, retries: int = 2,
                 max_cycles: int = 20_000_000, fast_path: bool = True,
                 jit: bool = True, progress=None) -> None:
        super().__init__(max_cycles, fast_path, jit)
        self.store = store
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.progress = progress or (lambda message: None)

    def _run_job(self, job: SimJob) -> tuple[dict | None, bool, str]:
        """(payload, cached, error) for one job via store + execute."""
        key = job.key()
        if self.store is not None:
            payload = self.store.get(key)
            if payload is not None:
                return payload, True, ""
        try:
            payload = execute(job)
        except Exception as exc:
            return None, False, f"{type(exc).__name__}: {exc}"
        if self.store is not None:
            self.store.put(key, payload, job=job.describe())
        return payload, False, ""

    def scalar_cycles(self, workload: str) -> int:
        """The workload's scalar-baseline cycle count (cache-backed,
        memoized)."""
        if workload not in self._scalar_cycles:
            job = scalar_job(workload, max_cycles=self.max_cycles,
                             fast_path=self.fast_path, jit=self.jit)
            payload, cached, error = self._run_job(job)
            if payload is None:
                raise RuntimeError(f"scalar baseline failed: {error}")
            self.cache_hits += cached
            self.fresh_runs += not cached
            self._scalar_cycles[workload] = \
                result_from_payload(payload).cycles
        return self._scalar_cycles[workload]

    def evaluate(self, workload: str,
                 points: list[DesignPoint]) -> list[PointResult]:
        """Evaluate ``points`` for ``workload``; results align with the
        input order. Cache hits and infeasible points never dispatch."""
        scalar = self.scalar_cycles(workload)
        results = [PointResult(point=p, cost=hardware_cost(p))
                   for p in points]
        to_run: dict[str, SimJob] = {}
        by_key: dict[str, list[int]] = {}
        for index, result in enumerate(results):
            job = self._job(workload, result.point)
            key = job.key()
            if self.store is not None:
                payload = self.store.get(key)
                if payload is not None:
                    self.cache_hits += 1
                    result.cached = True
                    self._finish(result, payload, scalar)
                    continue
            error = self._precheck(workload, result.point)
            if error is not None:
                result.infeasible = True
                result.error = error
                continue
            by_key.setdefault(key, []).append(index)
            to_run[key] = job
        for key, outcome in self._dispatch(to_run).items():
            self.fresh_runs += 1
            for index in by_key[key]:
                result = results[index]
                if outcome.ok:
                    payload = outcome.value
                    if self.store is not None:
                        self.store.put(key, payload,
                                       job=to_run[key].describe())
                    self._finish(result, payload, scalar)
                else:
                    self.failures += 1
                    result.error = outcome.error
        return results

    def _dispatch(self, to_run: dict[str, SimJob]) -> dict:
        """key -> outcome (``ok``/``value``/``error``) for the store
        misses, in ``to_run`` order: on the pool when ``jobs > 1``,
        else in-process."""
        if not to_run or self.jobs <= 1:
            return {key: _inline(job) for key, job in to_run.items()}
        from repro.engine.scheduler import PoolJob, WorkerPool

        # Before the first fork: the pool forks one child per job, and
        # a child that finds the simulator missing imports it again.
        import_execution_modules()
        pool = WorkerPool(_entrypoint, jobs=self.jobs,
                          timeout=self.timeout, retries=self.retries,
                          progress=self.progress)
        return pool.run([PoolJob(job_id=key, payload=job)
                         for key, job in to_run.items()])


class _Outcome:
    __slots__ = ("ok", "value", "error")

    def __init__(self, ok, value, error):
        self.ok, self.value, self.error = ok, value, error


def _inline(job: SimJob) -> _Outcome:
    try:
        return _Outcome(True, execute(job), "")
    except Exception as exc:
        return _Outcome(False, None, f"{type(exc).__name__}: {exc}")


def _entrypoint(payload, attempt: int) -> dict:
    """Module-level pool entrypoint (picklable)."""
    return execute(payload)


class ServerEvaluator(_EvaluatorBase):
    """Evaluate points as a thin client of a ``repro serve`` instance —
    same keys as :class:`LocalEvaluator`, shared server-side cache."""

    def __init__(self, url: str, client_id: str = "explore",
                 timeout: float = 600.0, max_cycles: int = 20_000_000,
                 fast_path: bool = True, jit: bool = True,
                 progress=None) -> None:
        super().__init__(max_cycles, fast_path, jit)
        from repro.server.client import ServerClient

        self.client = ServerClient(url, client_id=client_id)
        self.timeout = timeout
        self.progress = progress or (lambda message: None)

    def _submit_and_wait(self, jobs: list[SimJob]) -> dict[str, dict | None]:
        """Submit jobs, wait, return key -> payload (or None)."""
        keys: list[str] = []
        cached: set[str] = set()
        for job in jobs:
            answer = self.client.submit({"type": "sim", "spec": job.spec()},
                                        priority="batch")
            if answer.get("cached"):
                cached.add(answer["key"])
            keys.append(answer["key"])
        unique = list(dict.fromkeys(keys))
        records = self.client.wait(
            unique, timeout=self.timeout * max(1, len(unique)))
        payloads: dict[str, dict | None] = {}
        for key in unique:
            record = records[key]
            payloads[key] = self.client.result(key) \
                if record["status"] == "done" else None
            if key in cached:
                self.cache_hits += 1
            else:
                self.fresh_runs += 1
        return payloads

    def scalar_cycles(self, workload: str) -> int:
        """The workload's scalar-baseline cycle count via the server."""
        if workload not in self._scalar_cycles:
            job = scalar_job(workload, max_cycles=self.max_cycles,
                             fast_path=self.fast_path, jit=self.jit)
            payload = self._submit_and_wait([job])[job.key()]
            if payload is None:
                raise RuntimeError("scalar baseline failed on the server")
            self._scalar_cycles[workload] = \
                result_from_payload(payload).cycles
        return self._scalar_cycles[workload]

    def evaluate(self, workload: str,
                 points: list[DesignPoint]) -> list[PointResult]:
        """Evaluate ``points`` via the server; aligns with input order."""
        scalar = self.scalar_cycles(workload)
        results = [PointResult(point=p, cost=hardware_cost(p))
                   for p in points]
        jobs: list[SimJob] = []
        indices: list[int] = []
        for index, result in enumerate(results):
            error = self._precheck(workload, result.point)
            if error is not None:
                result.infeasible = True
                result.error = error
                continue
            jobs.append(self._job(workload, result.point))
            indices.append(index)
        if jobs:
            payloads = self._submit_and_wait(jobs)
            for job, index in zip(jobs, indices):
                payload = payloads[job.key()]
                result = results[index]
                if payload is None:
                    self.failures += 1
                    result.error = "job failed on the server"
                else:
                    self._finish(result, payload, scalar)
        return results

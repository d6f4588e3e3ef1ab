"""Point evaluation: design points -> (cycles, speedup, stalls).

Both evaluators speak the same content-addressed :class:`SimJob`
language as ``repro sweep``, so every evaluated point lands in (and is
served from) the shared result store — a search resumed tomorrow, or
pointed at a ``repro serve`` instance another client already warmed,
re-simulates nothing. They are one :class:`Evaluator` over the two
:mod:`repro.engine.resolve` transports, which own the evaluation order.

Evaluation order is store -> pre-check -> dispatch, the pre-check
being the resolver's ``admit`` step. A stored payload
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
    metrics_from_payload,
    result_from_payload,
    scalar_job,
)
from repro.engine.resolve import LocalResolver, ServerResolver
from repro.engine.store import ResultStore
from repro.explore.cost import hardware_cost
from repro.explore.space import DesignPoint

__all__ = [
    "PointResult",
    "Evaluator",
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


class Evaluator:
    """Design points -> :class:`PointResult` through a resolver
    (:mod:`repro.engine.resolve`), with the feasibility pre-check as
    the resolver's ``admit`` step."""

    def __init__(self, resolver, max_cycles: int = 20_000_000,
                 fast_path: bool = True, jit: bool = True) -> None:
        self.resolver = resolver
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

    def _precheck(self, job: SimJob) -> str | None:
        """``None`` when the job's knobs compile for its workload,
        else the compile error (memoized per knob setting)."""
        key = (job.workload, job.task_size, job.loop_cut, job.create_mask)
        if key not in self._feasible:
            from repro.compiler.annotate import AnnotationError
            from repro.compiler.regions import RegionError
            from repro.isa.assembler import AssemblerError
            from repro.minic.codegen import CodegenError
            from repro.minic.lexer import LexError
            from repro.minic.parser import ParseError
            from repro.workloads import WORKLOADS

            # The toolchain's own rejections only: anything else (an
            # ImportError, an AttributeError) is a bug in this program
            # and must fail the search, not shrink it.
            try:
                WORKLOADS[job.workload].multiscalar_program(
                    knobs=job.compiler_knobs())
            except (AnnotationError, RegionError, AssemblerError,
                    CodegenError, LexError, ParseError,
                    ValueError) as exc:
                self._feasible[key] = f"{type(exc).__name__}: {exc}"
            else:
                self._feasible[key] = None
        return self._feasible[key]

    def _resolve(self, jobs: list[SimJob], admit=None):
        resolution = self.resolver.resolve(jobs, admit=admit)
        self.cache_hits += len(resolution.cached)
        self.fresh_runs += resolution.fresh
        if resolution.interrupted:
            # What finished is persisted; the search itself stops.
            raise KeyboardInterrupt
        return resolution

    def scalar_cycles(self, workload: str) -> int:
        """The workload's scalar-baseline cycle count (cache-backed,
        memoized)."""
        if workload not in self._scalar_cycles:
            job = scalar_job(workload, max_cycles=self.max_cycles,
                             fast_path=self.fast_path, jit=self.jit)
            key = job.key()
            resolution = self._resolve([job])
            if key in resolution.errors:
                raise RuntimeError("scalar baseline failed: "
                                   f"{resolution.errors[key]}")
            self._scalar_cycles[workload] = \
                result_from_payload(resolution.payloads[key]).cycles
        return self._scalar_cycles[workload]

    def evaluate(self, workload: str,
                 points: list[DesignPoint]) -> list[PointResult]:
        """Evaluate ``points`` for ``workload``; results align with the
        input order. Cache hits and infeasible points never dispatch."""
        scalar = self.scalar_cycles(workload)
        jobs = [self._job(workload, point) for point in points]
        resolution = self._resolve(jobs, admit=self._precheck)
        results = []
        for point, job in zip(points, jobs):
            result = PointResult(point=point, cost=hardware_cost(point))
            key = job.key()
            payload = resolution.payloads.get(key)
            if payload is not None:
                result.cached = key in resolution.cached
                sim = result_from_payload(payload)
                result.cycles = sim.cycles
                result.speedup = scalar / sim.cycles
                result.prediction_accuracy = sim.prediction_accuracy
                result.stalls = _stalls(payload)
                if not result.stalls:
                    self.points_without_metrics += 1
            elif key in resolution.rejected:
                result.infeasible = True
                result.error = resolution.rejected[key]
            else:
                self.failures += 1
                result.error = resolution.errors[key]
            results.append(result)
        return results


class LocalEvaluator(Evaluator):
    """Evaluate points through the persistent store and a local
    :class:`~repro.engine.scheduler.WorkerPool` (``jobs=1`` executes
    in-process)."""

    def __init__(self, store: ResultStore | None, jobs: int = 1,
                 timeout: float = 600.0, retries: int = 2,
                 max_cycles: int = 20_000_000, fast_path: bool = True,
                 jit: bool = True, progress=None) -> None:
        super().__init__(
            LocalResolver(store, jobs=jobs, timeout=timeout,
                          retries=retries, progress=progress),
            max_cycles, fast_path, jit)

    # perf/ wraps this method through ``LocalEvaluator.__dict__``, so the
    # name is bound on this class as well as inherited.
    evaluate = Evaluator.evaluate


class ServerEvaluator(Evaluator):
    """Evaluate points as a thin client of a ``repro serve`` instance —
    same keys as :class:`LocalEvaluator`, shared server-side cache."""

    def __init__(self, url: str, client_id: str = "explore",
                 timeout: float = 600.0, max_cycles: int = 20_000_000,
                 fast_path: bool = True, jit: bool = True,
                 progress=None) -> None:
        super().__init__(
            ServerResolver(url, client_id=client_id, timeout=timeout,
                           progress=progress),
            max_cycles, fast_path, jit)

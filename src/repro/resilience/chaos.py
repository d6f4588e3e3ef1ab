"""The chaos harness behind ``python -m repro chaos``.

Runs a small sweep grid twice — once fault-free and serially to get a
reference answer, once through the full engine while this module
actively sabotages it — and asserts the sabotaged sweep still produces
*bit-identical* results. The injected faults cover the crash modes the
resilience layer claims to survive:

* a worker SIGKILLed the moment it picks up a job (the retry runs the
  job again from cycle 0, and its result must match the fault-free one
  exactly);
* a corrupted on-disk result cache entry (the store must treat it as a
  miss and recompute, not serve garbage);
* a planted simulator livelock (must surface as a typed
  :class:`~repro.resilience.failures.LivelockError` naming the stuck
  unit, not as an open-ended hang).

Everything runs inside a throwaway cache directory; the user's real
``.repro-cache/`` is never touched. The harness is deterministic: the
same request produces the same reference payloads, so "identical" is a
strict dict comparison, not a tolerance check.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.resilience.failures import LivelockError


@dataclass(frozen=True)
class ChaosRequest:
    """What to sabotage and how hard."""

    workloads: tuple[str, ...] = ("wc", "cmp")
    units: tuple[int, ...] = (2,)
    jobs: int = 2
    max_cycles: int = 2_000_000
    timeout: float = 120.0


def self_test_request() -> ChaosRequest:
    """The ``--self-test`` configuration: one workload, quick."""
    return ChaosRequest(workloads=("wc",))


@dataclass
class ChaosPhase:
    name: str
    ok: bool
    detail: str


@dataclass
class ChaosReport:
    request: ChaosRequest
    phases: list[ChaosPhase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(phase.ok for phase in self.phases)

    def render(self) -> str:
        lines = [f"chaos: {len(self.request.workloads)} workloads x "
                 f"units {{{','.join(map(str, self.request.units))}}}, "
                 f"{self.request.jobs} workers"]
        for phase in self.phases:
            status = "ok" if phase.ok else "FAIL"
            lines.append(f"  [{status:4}] {phase.name}: {phase.detail}")
        lines.append("chaos: all faults survived" if self.ok
                     else "chaos: FAILURES above")
        return "\n".join(lines)


def run_chaos(request: ChaosRequest, progress=None) -> ChaosReport:
    """Run the full chaos scenario; never raises for a failed phase."""
    from repro.engine.job import execute
    from repro.engine.store import ResultStore
    from repro.engine.sweep import SweepRequest, build_grid, run_sweep

    progress = progress or (lambda message: None)
    report = ChaosReport(request=request)
    sweep_request = SweepRequest(
        workloads=request.workloads, units=request.units,
        widths=(1,), orders=(False,), jobs=request.jobs,
        timeout=request.timeout, max_cycles=request.max_cycles)
    grid = build_grid(sweep_request)

    # -------------------------------------------- phase 0: reference run
    progress("reference: fault-free serial run of "
             f"{len(grid)} jobs")
    reference = {job.key(): execute(job) for job in grid}

    ms_keys = [job.key() for job in grid if job.kind == "multiscalar"]
    # The first multiscalar job dies twice, so its third attempt is a
    # rerun of a rerun; the second (if any) dies once.
    faults = {key: {"kill_on_attempts": kills}
              for key, kills in zip(ms_keys, [(0, 1), (0,)])}
    kills = sum(len(fault["kill_on_attempts"]) for fault in faults.values())

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = ResultStore(Path(tmp))

        # ------------------------------- phase 1: sweep under sabotage
        progress(f"chaos sweep: {kills} injected worker kills over "
                 f"{len(grid)} jobs")
        summary = run_sweep(sweep_request, store,
                            progress=progress, faults=faults)
        deaths = summary.worker_deaths
        _compare(report, "killed workers",
                 summary, store, grid, reference,
                 extra_ok=deaths >= kills,
                 extra_msg=f"{deaths} worker deaths, "
                           f"{summary.retries} retries")

        # ------------------------------ phase 2: corrupt the result cache
        victim = ms_keys[0] if ms_keys else grid[0].key()
        victim_path = store.path_for(victim)
        corrupted = victim_path.exists()
        if corrupted:
            raw = victim_path.read_bytes()
            victim_path.write_bytes(raw[: max(1, len(raw) // 2)])
        progress("corrupted one cached result; re-running sweep")
        summary2 = run_sweep(sweep_request, store, progress=progress)
        _compare(report, "corrupted result cache entry",
                 summary2, store, grid, reference,
                 extra_ok=corrupted and summary2.cache_misses >= 1,
                 extra_msg=f"{summary2.cache_hits} hits / "
                           f"{summary2.cache_misses} misses on rerun")

    # --------------------------------------- phase 3: planted livelock
    report.phases.append(_livelock_phase(request, progress))

    # ------------------------------------------ phase 4: orphan check
    import multiprocessing

    orphans = multiprocessing.active_children()
    report.phases.append(ChaosPhase(
        name="no orphaned workers",
        ok=not orphans,
        detail="all worker processes joined" if not orphans
        else f"{len(orphans)} live children left behind"))
    return report


def _compare(report: ChaosReport, name: str, summary, store, grid,
             reference: dict, extra_ok: bool, extra_msg: str) -> None:
    """Fold one sweep's results into the report: every job must have
    completed and stored a payload identical to the reference."""
    mismatched = []
    missing = []
    for job in grid:
        stored = store.get(job.key())
        if stored is None:
            missing.append(job.label())
        elif stored != reference[job.key()]:
            mismatched.append(job.label())
    ok = (summary.ok and not summary.interrupted and not missing
          and not mismatched and extra_ok)
    if ok:
        detail = (f"{len(grid)} results bit-identical to the "
                  f"fault-free reference ({extra_msg})")
    else:
        problems = []
        if not summary.ok:
            problems.append(f"{summary.failures} job failures")
        if summary.interrupted:
            problems.append("sweep interrupted")
        if missing:
            problems.append(f"missing: {', '.join(missing)}")
        if mismatched:
            problems.append(f"MISMATCH: {', '.join(mismatched)}")
        if not extra_ok:
            problems.append(f"fault accounting wrong ({extra_msg})")
        detail = "; ".join(problems)
    report.phases.append(ChaosPhase(name=name, ok=ok, detail=detail))


def _livelock_phase(request: ChaosRequest, progress) -> ChaosPhase:
    """Plant a retirement livelock; it must surface as LivelockError."""
    from repro.difftest.injection import inject_livelock
    from repro.engine.job import SimJob
    from repro.resilience.watchdog import Watchdog

    progress("planting a retirement livelock under a watchdog")
    job = SimJob(kind="multiscalar", workload=request.workloads[0],
                 units=max(request.units))
    processor = job.processor(job.program()[0])
    watchdog = Watchdog(progress_window=2_000)
    try:
        with inject_livelock():
            processor.run(max_cycles=request.max_cycles,
                          watchdog=watchdog)
    except LivelockError as exc:
        stuck = exc.stuck_unit
        if stuck is None:
            return ChaosPhase("planted livelock", False,
                              "LivelockError carried no unit dump")
        return ChaosPhase(
            "planted livelock", True,
            f"LivelockError at cycle {exc.cycle}: unit "
            f"{stuck['unit']} task {stuck['task']} named as stuck")
    except Exception as exc:
        return ChaosPhase("planted livelock", False,
                          f"wrong failure type: {type(exc).__name__}: "
                          f"{exc}")
    return ChaosPhase("planted livelock", False,
                      "run completed; livelock was not detected")

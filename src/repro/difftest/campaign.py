"""The fuzzing loop behind ``python -m repro fuzz``.

A campaign is a deterministic function of its seed: program ``i`` is
generated from ``seed * 1_000_003 + i``, alternating between the
assembly and MinC generators, and runs on the scalar baseline plus a
rotating window over the full multiscalar configuration grid (1/2/4/8
units × 1/2-way × in-order/out-of-order), so a whole campaign covers
the grid even though each program runs on a handful of backends.

On the first divergence the campaign stops, delta-debugs the program
down to a near-minimal reproducer (re-checking candidates only on the
backends that actually diverged, which keeps shrinking fast), and
reports it. Re-running the same seed reproduces the whole sequence.

With ``jobs > 1`` the campaign shards program checks across the
engine's fault-tolerant worker pool in waves, scanning each wave's
results in generation order — so the reported divergence is the same
one the serial campaign would find, and a crashed worker costs a retry
rather than the campaign. With ``server=URL`` the same waves are
submitted as ``fuzz`` jobs to a running ``repro serve`` fleet instead
of a private pool (``repro fuzz --server URL``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.difftest.generator import GeneratedProgram, generator_for
from repro.difftest.oracle import (
    BackendSpec,
    DiffReport,
    ProgramInvalid,
    check_program,
    full_grid,
)
from repro.difftest.shrink import ShrinkResult, shrink

#: Large prime stride between per-program seeds, so campaigns with
#: nearby base seeds do not replay each other's programs.
SEED_STRIDE = 1_000_003

#: How many multiscalar configurations accompany the scalar baseline on
#: each individual program.
WINDOW = 3


@dataclass
class CampaignResult:
    seed: int
    programs_run: int = 0
    programs_skipped: int = 0     # invalid generations (rare)
    by_language: dict[str, int] = field(default_factory=dict)
    backends_used: set[str] = field(default_factory=set)
    report: DiffReport | None = None          # first divergence, if any
    shrunk: ShrinkResult | None = None
    #: Ctrl-C cut the campaign short: counts above cover only the
    #: programs that finished checking, and no workers were orphaned.
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return self.report is None

    def render(self) -> str:
        mix = ", ".join(f"{n} {lang}"
                        for lang, n in sorted(self.by_language.items()))
        lines = [f"fuzz: {self.programs_run} programs ({mix}) "
                 f"across {len(self.backends_used)} backend configs, "
                 f"seed {self.seed}"]
        if self.programs_skipped:
            lines.append(f"fuzz: skipped {self.programs_skipped} "
                         "invalid generations")
        if self.interrupted:
            lines.append("fuzz: interrupted; totals cover completed "
                         "checks only")
        if self.ok:
            lines.append("fuzz: no divergences")
            return "\n".join(lines)
        lines.append("fuzz: DIVERGENCE")
        lines.extend(f"  {d}" for d in self.report.divergences)
        if self.shrunk is not None:
            program = self.shrunk.program
            lines.append(
                f"fuzz: shrunk to {program.body_size()} body "
                f"instructions in {self.shrunk.checks} checks "
                f"(-{self.shrunk.removed_chunks} chunks, "
                f"-{self.shrunk.removed_iterations} iterations)")
            lines.append("---- reproducer "
                         f"({program.language}, seed {program.seed}) ----")
            lines.append(program.source())
            lines.append("---- end reproducer ----")
        return "\n".join(lines)


def check_entry(payload: dict, attempt: int) -> dict:
    """Worker-side oracle check (module-level, hence picklable).

    Regenerates the program from its seed — cheaper than shipping it —
    and reduces the report to a small result dict; the parent re-derives
    the full report deterministically if it needs to shrink. Also the
    execution body of a ``repro.server`` *fuzz* job, which is how
    ``repro fuzz --server URL`` multiplexes a campaign onto a shared
    worker fleet.
    """
    language = payload["languages"][payload["index"]
                                    % len(payload["languages"])]
    program = generator_for(language).generate(
        payload["seed"] * SEED_STRIDE + payload["index"])
    grid = tuple(BackendSpec(*spec) for spec in payload["grid"])
    kwargs = {}
    if payload["max_cycles"] is not None:
        kwargs["max_cycles"] = payload["max_cycles"]
    try:
        report = check_program(program, grid=grid, **kwargs)
    except ProgramInvalid:
        return {"status": "invalid", "language": language, "backends": []}
    return {
        "status": "ok" if report.ok else "divergence",
        "language": language,
        "backends": list(report.backends_run),
        "divergences": [str(d) for d in report.divergences],
    }


class FuzzCampaign:
    """A seeded, budgeted differential-fuzzing run."""

    def __init__(self, seed: int, budget: int,
                 languages: tuple[str, ...] = ("asm", "minic"),
                 units: tuple[int, ...] = (1, 2, 4, 8),
                 widths: tuple[int, ...] = (1, 2),
                 orders: tuple[bool, ...] = (False, True),
                 fast_paths: tuple[bool, ...] = (True,),
                 jits: tuple[bool, ...] = (True,),
                 max_shrink_checks: int = 400,
                 max_cycles: int | None = None,
                 jobs: int = 1,
                 server: str | None = None,
                 progress=None) -> None:
        if budget < 1:
            raise ValueError("fuzz budget must be at least 1")
        self.seed = seed
        self.budget = budget
        self.languages = tuple(languages)
        self.ms_grid = full_grid(units, widths, orders, fast_paths)
        #: The scalar baseline, plus its ``-nojit`` twin when ``jits``
        #: asks for one: the JIT serves the scalar core only, so that
        #: is the one machine the axis can select anything on.
        self.scalar_backends = tuple(
            BackendSpec("scalar", 1, 1, False, jit=jit)
            for jit in jits)
        self.max_shrink_checks = max_shrink_checks
        self.max_cycles = max_cycles
        self.jobs = max(1, jobs)
        #: Base URL of a ``repro serve`` instance; when set the
        #: campaign ships its checks there instead of forking a pool.
        self.server = server
        self.progress = progress or (lambda message: None)

    # ------------------------------------------------------------- parts

    def grid_for(self, index: int) -> tuple[BackendSpec, ...]:
        """Scalar backends + a rotating window of multiscalar configs."""
        window = [self.ms_grid[(index * WINDOW + k) % len(self.ms_grid)]
                  for k in range(min(WINDOW, len(self.ms_grid)))]
        return (*self.scalar_backends, *dict.fromkeys(window))

    def generate(self, index: int) -> GeneratedProgram:
        language = self.languages[index % len(self.languages)]
        return generator_for(language).generate(
            self.seed * SEED_STRIDE + index)

    def _check(self, program: GeneratedProgram,
               grid: tuple[BackendSpec, ...]) -> DiffReport:
        kwargs = {}
        if self.max_cycles is not None:
            kwargs["max_cycles"] = self.max_cycles
        return check_program(program, grid=grid, **kwargs)

    # --------------------------------------------------------------- run

    def run(self) -> CampaignResult:
        if self.server:
            return self._run_server()
        if self.jobs > 1:
            return self._run_parallel()
        return self._run_serial()

    def _run_serial(self) -> CampaignResult:
        result = CampaignResult(seed=self.seed)
        index = 0
        try:
            while result.programs_run < self.budget:
                program = self.generate(index)
                grid = self.grid_for(index)
                index += 1
                try:
                    report = self._check(program, grid)
                except ProgramInvalid:
                    result.programs_skipped += 1
                    continue
                result.programs_run += 1
                result.by_language[program.language] = \
                    result.by_language.get(program.language, 0) + 1
                result.backends_used.update(report.backends_run)
                if result.programs_run % 25 == 0:
                    self.progress(f"{result.programs_run}/{self.budget} "
                                  "programs, no divergences")
                if not report.ok:
                    result.report = report
                    result.shrunk = self._shrink(program, report, grid)
                    break
        except KeyboardInterrupt:
            result.interrupted = True
        return result

    def _run_parallel(self) -> CampaignResult:
        """Shard checks across worker processes, wave by wave.

        Each worker regenerates its program from the (cheap, seeded)
        generator and runs the full oracle check; the parent scans
        outcomes in generation order, so the first divergence reported
        matches the serial campaign. Shrinking stays in-process.
        """
        from repro.engine.scheduler import PoolJob, WorkerPool

        pool = WorkerPool(check_entry, jobs=self.jobs,
                          retries=2, progress=self.progress)
        result = CampaignResult(seed=self.seed)
        index = 0
        try:
            while result.programs_run < self.budget:
                wave = min(4 * self.jobs,
                           self.budget - result.programs_run)
                payloads = []
                for offset in range(wave):
                    payloads.append(PoolJob(
                        job_id=str(index + offset),
                        payload=self._payload_for(index + offset)))
                outcomes = pool.run(payloads)
                stop = False
                for offset in range(wave):
                    if result.programs_run >= self.budget:
                        stop = True
                        break
                    outcome = outcomes[str(index + offset)]
                    if not outcome.ok:
                        if outcome.error == "interrupted":
                            # The pool drained on Ctrl-C; nothing at or
                            # past this outcome ran.
                            stop = True
                            break
                        # A worker crashed beyond retry; treat the
                        # program like an invalid generation rather
                        # than losing the campaign.
                        self.progress(f"program {index + offset} lost: "
                                      f"{outcome.error}")
                        result.programs_skipped += 1
                        continue
                    checked = outcome.value
                    if checked["status"] == "invalid":
                        result.programs_skipped += 1
                        continue
                    result.programs_run += 1
                    result.by_language[checked["language"]] = \
                        result.by_language.get(checked["language"], 0) + 1
                    result.backends_used.update(checked["backends"])
                    if result.programs_run % 25 == 0:
                        self.progress(
                            f"{result.programs_run}/{self.budget} "
                            "programs, no divergences")
                    if checked["status"] == "divergence":
                        # Recreate the full report in-process
                        # (deterministic) and shrink as the serial
                        # campaign would.
                        program = self.generate(index + offset)
                        grid = self.grid_for(index + offset)
                        report = self._check(program, grid)
                        result.report = report
                        result.shrunk = self._shrink(program, report, grid)
                        stop = True
                        break
                index += wave
                if pool.interrupted:
                    result.interrupted = True
                    break
                if stop or result.report is not None:
                    break
        except KeyboardInterrupt:
            # Raised between waves or during in-process shrinking; the
            # pool has already drained its workers by the time run()
            # returns, so there is nothing left to kill.
            result.interrupted = True
        return result

    def _run_server(self) -> CampaignResult:
        """Ship checks to a ``repro serve`` fleet, wave by wave.

        Each wave's programs become ``fuzz`` job envelopes (the same
        seeded payloads the pool workers get); outcomes are scanned in
        generation order, so the first divergence matches the serial
        campaign. Shrinking stays client-side. Because the server's
        keys are content-addressed, re-running a campaign against a
        warm server replays from cache instead of re-simulating.
        """
        from repro.server.client import ServerClient, ServerError

        client = ServerClient(self.server, client_id="fuzz")
        result = CampaignResult(seed=self.seed)
        index = 0
        try:
            while result.programs_run < self.budget:
                wave = min(4 * self.jobs,
                           self.budget - result.programs_run)
                submitted: list[tuple[int, str | None, str]] = []
                for offset in range(wave):
                    envelope = {"type": "fuzz",
                                "spec": self._payload_for(index + offset)}
                    try:
                        answer = client.submit(envelope,
                                               priority="background")
                        submitted.append((index + offset,
                                          answer["key"], ""))
                    except ServerError as exc:
                        if exc.status == 0:  # unreachable, not a bad job
                            raise
                        submitted.append((index + offset, None, str(exc)))
                keys = [key for _, key, _ in submitted if key]
                records = client.wait(keys, timeout=600.0)
                stop = False
                for at, key, error in submitted:
                    if result.programs_run >= self.budget:
                        stop = True
                        break
                    if key is None or records[key]["status"] != "done":
                        message = error or records[key].get("error", "?")
                        self.progress(f"program {at} lost: {message}")
                        result.programs_skipped += 1
                        continue
                    checked = client.result(key)["check"]
                    if checked["status"] == "invalid":
                        result.programs_skipped += 1
                        continue
                    result.programs_run += 1
                    result.by_language[checked["language"]] = \
                        result.by_language.get(checked["language"], 0) + 1
                    result.backends_used.update(checked["backends"])
                    if result.programs_run % 25 == 0:
                        self.progress(
                            f"{result.programs_run}/{self.budget} "
                            "programs, no divergences")
                    if checked["status"] == "divergence":
                        program = self.generate(at)
                        grid = self.grid_for(at)
                        report = self._check(program, grid)
                        result.report = report
                        result.shrunk = self._shrink(program, report,
                                                     grid)
                        stop = True
                        break
                index += wave
                if stop or result.report is not None:
                    break
        except KeyboardInterrupt:
            # The server and its workers keep running; only this
            # client stops early.
            result.interrupted = True
        return result

    def _payload_for(self, index: int) -> dict:
        return {
            "seed": self.seed,
            "index": index,
            "languages": self.languages,
            "grid": [(s.kind, s.units, s.issue_width, s.out_of_order,
                      s.fast_path, s.jit)
                     for s in self.grid_for(index)],
            "max_cycles": self.max_cycles,
        }

    def _shrink(self, program: GeneratedProgram, report: DiffReport,
                grid: tuple[BackendSpec, ...]) -> ShrinkResult:
        # Re-check candidates only on the backends that diverged; the
        # full grid would multiply every ddmin probe's cost.
        guilty = {d.backend for d in report.divergences}
        focus = tuple(s for s in grid if s.label in guilty) or grid

        def still_diverges(candidate: GeneratedProgram) -> bool:
            return not self._check(candidate, focus).ok

        self.progress(f"divergence on {', '.join(sorted(guilty))}; "
                      "shrinking")
        return shrink(program, still_diverges,
                      max_checks=self.max_shrink_checks)

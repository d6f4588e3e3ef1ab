"""The fuzzing loop behind ``python -m repro fuzz``.

A campaign is a deterministic function of its seed: program ``i`` is
generated from ``seed * 1_000_003 + i``, alternating between the
assembly and MinC generators, and runs on the scalar baseline plus a
rotating window over the full multiscalar configuration grid (1/2/4/8
units × 1/2-way × in-order/out-of-order), so a whole campaign covers
the grid even though each program runs on a handful of backends.

Programs are checked in waves of ``4 * jobs`` (one at a time on a
serial pool) and each wave's outcomes are scanned in generation order,
whatever ran them: the engine's worker pool (which runs ``jobs=1``
serially in-process, and turns a crashed worker into a retry rather
than a lost campaign), or, with ``server=URL``, ``fuzz`` jobs on a
running ``repro serve`` fleet (``repro fuzz --server URL``). Every
transport therefore reports the same first divergence. The campaign
then re-derives that report in-process, delta-debugs the program down
to a near-minimal reproducer (re-checking candidates only on the
backends that actually diverged, which keeps shrinking fast), and
reports it. Re-running the same seed reproduces the whole sequence. A
program that could not be checked at all is an error, never a skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.difftest.generator import GeneratedProgram, generator_for
from repro.difftest.oracle import (
    DiffReport,
    ProgramInvalid,
    backend_label,
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
    grid = tuple(payload["grid"])
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
        self.scalar_backends = tuple({"kind": "scalar", "jit": jit}
                                     for jit in jits)
        self.max_shrink_checks = max_shrink_checks
        self.max_cycles = max_cycles
        self.jobs = max(1, jobs)
        #: Base URL of a ``repro serve`` instance; when set the
        #: campaign ships its checks there instead of forking a pool.
        self.server = server
        self.progress = progress or (lambda message: None)

    # ------------------------------------------------------------- parts

    def grid_for(self, index: int) -> tuple[dict, ...]:
        """Scalar backends + a rotating window of multiscalar configs."""
        window = [self.ms_grid[(index * WINDOW + k) % len(self.ms_grid)]
                  for k in range(min(WINDOW, len(self.ms_grid)))]
        return (*self.scalar_backends,
                *(b for k, b in enumerate(window) if b not in window[:k]))

    def generate(self, index: int) -> GeneratedProgram:
        language = self.languages[index % len(self.languages)]
        return generator_for(language).generate(
            self.seed * SEED_STRIDE + index)

    def _check(self, program: GeneratedProgram,
               grid: tuple[dict, ...]) -> DiffReport:
        kwargs = {}
        if self.max_cycles is not None:
            kwargs["max_cycles"] = self.max_cycles
        return check_program(program, grid=grid, **kwargs)

    # --------------------------------------------------------------- run

    def run(self) -> CampaignResult:
        """Check programs in waves (``4 * jobs`` programs, or one on a
        serial pool) and scan each wave's outcomes in generation order,
        so every transport finds the same first divergence; it is then
        re-derived and shrunk in-process.

        A program that could not be checked (the checker raised, a
        worker or lease was lost beyond its retries) raises
        :class:`RuntimeError`; an unreachable server raises
        :class:`ConnectionError`. Ctrl-C ends the scan and sets
        ``interrupted``.
        """
        check_wave, width = (self._served() if self.server
                             else self._pooled())
        result = CampaignResult(seed=self.seed)
        index = 0
        try:
            while result.programs_run < self.budget and result.ok:
                wave = range(index, index + min(
                    width, self.budget - result.programs_run))
                for at, checked, error in check_wave(wave):
                    if result.programs_run >= self.budget:
                        break
                    if checked is None:
                        if error == "interrupted":
                            result.interrupted = True
                            return result
                        raise RuntimeError(
                            f"program {at} (seed "
                            f"{self.seed * SEED_STRIDE + at}) could not "
                            f"be checked: {error}")
                    if checked["status"] == "invalid":
                        result.programs_skipped += 1
                        continue
                    result.programs_run += 1
                    result.by_language[checked["language"]] = \
                        result.by_language.get(checked["language"], 0) + 1
                    result.backends_used.update(checked["backends"])
                    if result.programs_run % 25 == 0:
                        self.progress(f"{result.programs_run}/{self.budget} "
                                      "programs, no divergences")
                    if checked["status"] == "divergence":
                        program, grid = self.generate(at), self.grid_for(at)
                        result.report = self._check(program, grid)
                        result.shrunk = self._shrink(program, result.report,
                                                     grid)
                        break
                index = wave.stop
        except KeyboardInterrupt:
            # A pool drains its workers before it answers; a server's
            # keep running, and only this client stops early.
            result.interrupted = True
        return result

    def _pooled(self):
        """The wave transport over the engine's worker pool, and its
        wave width. The pool runs ``jobs=1`` serially in this process,
        where looking ahead past a divergence only costs time (a planted
        bug can make a neighbouring check run to its cycle budget), so a
        serial wave is one program. The simulator is loaded before the
        pool forks, so no worker imports it again per program."""
        from repro.engine.job import import_execution_modules
        from repro.engine.scheduler import PoolJob, WorkerPool

        import_execution_modules()
        pool = WorkerPool(check_entry, jobs=self.jobs, retries=2,
                          progress=self.progress)

        def check_wave(wave: range) -> list[tuple[int, dict | None, str]]:
            outcomes = pool.run([PoolJob(str(at), self._payload_for(at))
                                 for at in wave])
            settled = [outcomes[str(at)] for at in wave]
            return [(at, outcome.value if outcome.ok else None, outcome.error)
                    for at, outcome in zip(wave, settled)]
        return check_wave, 1 if pool.serial else 4 * self.jobs

    def _served(self):
        """The wave transport over one ``repro serve`` client, and its
        wave width: each program is a ``fuzz`` job, keyed by content, so
        a warm server replays a campaign from its store."""
        from repro.server.client import ServerClient, ask

        client = ServerClient(self.server, client_id="fuzz")

        def check_wave(wave: range) -> list[tuple[int, dict | None, str]]:
            keys, errors = {}, {}
            for at in wave:
                answer, errors[at] = ask(
                    client.submit, {"type": "fuzz",
                                    "spec": self._payload_for(at)},
                    priority="background")
                if answer is not None:
                    keys[at] = answer["key"]
            records, why = ask(client.wait, list(keys.values()),
                               timeout=600.0)
            outcomes = []
            for at in wave:
                record = (records or {}).get(keys.get(at), {})
                answer = None
                if record.get("status") == "done":
                    answer, errors[at] = ask(client.result, keys[at])
                outcomes.append((at, answer and answer["check"],
                                 errors[at] or why
                                 or record.get("error", "no result")))
            return outcomes
        return check_wave, 4 * self.jobs

    def _payload_for(self, index: int) -> dict:
        return {
            "seed": self.seed,
            "index": index,
            "languages": self.languages,
            "grid": list(self.grid_for(index)),
            "max_cycles": self.max_cycles,
        }

    def _shrink(self, program: GeneratedProgram, report: DiffReport,
                grid: tuple[dict, ...]) -> ShrinkResult:
        # Re-check candidates only on the backends that diverged; the
        # full grid would multiply every ddmin probe's cost.
        guilty = {d.backend for d in report.divergences}
        focus = tuple(b for b in grid if backend_label(b) in guilty) \
            or grid

        def still_diverges(candidate: GeneratedProgram) -> bool:
            return not self._check(candidate, focus).ok

        self.progress(f"divergence on {', '.join(sorted(guilty))}; "
                      "shrinking")
        return shrink(program, still_diverges,
                      max_checks=self.max_shrink_checks)

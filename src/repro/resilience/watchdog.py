"""Forward-progress and resource-budget guards for the run loop.

A :class:`Watchdog` is handed to ``run(..., watchdog=...)`` on either
processor, which passes it to the one run loop
(:func:`repro.core.runloop.drive`). It does two things:

* ``bind`` tightens the processor's livelock window (the number of
  cycles without a commit/retire before the run loop raises a
  structured :class:`~repro.resilience.failures.LivelockError` with a
  per-unit diagnostic dump);
* ``check`` enforces optional instruction and simulated-state budgets,
  raising :class:`InstructionBudgetError` / :class:`MemoryBudgetError`
  — typed failures instead of an open-ended hang or a host OOM. It
  reads both through the processor's budget probes
  (``instructions_executed()``, ``state_entries()``), so it knows
  nothing about either machine's layout.

Checks are counter-based (every ``check_interval`` run-loop
iterations), and ``check_interval`` is also one term of the run loop's
limit: no skip, compiled window or machine frame spans more cycles
than that while a watchdog is bound. A watchdogged run's simulated
behaviour is deterministic and identical to an unwatched one right up
to the raise.
"""

from __future__ import annotations

from repro.resilience.failures import (
    InstructionBudgetError,
    MemoryBudgetError,
)


class Watchdog:
    """Progress and budget guard for one simulation run."""

    def __init__(self, progress_window: int = 200_000,
                 max_instructions: int | None = None,
                 max_memory_entries: int | None = None,
                 check_interval: int = 4096) -> None:
        self.progress_window = progress_window
        self.max_instructions = max_instructions
        self.max_memory_entries = max_memory_entries
        self.check_interval = max(1, check_interval)
        self._countdown = self.check_interval

    # ------------------------------------------------------------- hooks

    def bind(self, processor) -> None:
        """Attach to a processor at run start."""
        processor._progress_window = self.progress_window
        self._countdown = self.check_interval

    def check(self, processor) -> None:
        """Called once per run-loop iteration; cheap until due."""
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.check_interval
        if self.max_instructions is not None:
            executed = processor.instructions_executed()
            if executed > self.max_instructions:
                raise InstructionBudgetError(
                    f"executed {executed} instructions at cycle "
                    f"{processor.cycle}, budget {self.max_instructions}")
        if self.max_memory_entries is not None:
            entries = processor.state_entries()
            if entries > self.max_memory_entries:
                raise MemoryBudgetError(
                    f"{entries} tracked state entries at cycle "
                    f"{processor.cycle}, budget {self.max_memory_entries}")

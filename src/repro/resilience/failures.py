"""The typed simulation-failure taxonomy.

Every way a simulation can fail to complete is a subclass of
:class:`SimulationFailure`, so callers (the job engine, the chaos
harness, tests) can catch one type instead of pattern-matching
messages — and so that a hung simulator surfaces as a structured
:class:`LivelockError` carrying a per-unit diagnostic dump rather than
an open-ended stall that only a blunt process kill resolves.

This module deliberately imports nothing from the simulator packages:
the processors import *it*, and both re-export the one
:class:`SimulationTimeout` under the name their callers always used.
"""

from __future__ import annotations


class SimulationFailure(Exception):
    """Base class of every typed simulator failure."""


class CycleBudgetError(SimulationFailure):
    """The cycle budget was exhausted before the program halted."""


class SimulationTimeout(CycleBudgetError):
    """What either processor's ``run()`` raises on an exhausted cycle
    budget (``core.scalar.SimulationTimeout`` and
    ``core.processor.SimulationTimeout`` are this class)."""


class InstructionBudgetError(SimulationFailure):
    """The watchdog's executed-instruction budget was exceeded."""


class MemoryBudgetError(SimulationFailure):
    """The watchdog's simulated-state budget (ARB entries, touched
    memory pages, in-flight window) was exceeded."""


class LivelockError(SimulationFailure):
    """No forward progress (no issue/assign/retire) for a whole
    progress window.

    ``units`` holds one diagnostic dict per active task, oldest first
    (``unit``, ``task``, ``seq``, ``stopped``, ``pending``, ``rob``,
    ``pc``); the message names the stuck head task so a log line alone
    identifies the culprit.
    """

    def __init__(self, message: str, *, cycle: int = 0,
                 last_progress: int = 0,
                 units: tuple[dict, ...] = ()) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.last_progress = last_progress
        self.units = tuple(units)

    @property
    def stuck_unit(self) -> dict | None:
        """The head (oldest, hence blocking) task's diagnostic entry."""
        return self.units[0] if self.units else None

"""``repro.resilience`` — crash-tolerant simulation.

Layers:

* :mod:`repro.resilience.failures` — the typed ``SimulationFailure``
  taxonomy (cycle/instruction/memory budgets, ``LivelockError``);
* :mod:`repro.resilience.atomio` — the one shared atomic
  write+fsync+checksum helper behind every persistent file;
* :mod:`repro.resilience.snapshot` — deterministic machine-state
  capture/restore for both simulators;
* :mod:`repro.resilience.watchdog` — forward-progress and budget
  guards hooked into the run loop;
* :mod:`repro.resilience.checkpoint` — periodic on-disk checkpoints
  and the resume protocol used by the job engine;
* :mod:`repro.resilience.chaos` — the fault-injection harness behind
  ``python -m repro chaos``.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "CheckpointManager",
    "CheckpointPolicy",
    "CycleBudgetError",
    "InstructionBudgetError",
    "LivelockError",
    "MemoryBudgetError",
    "SNAPSHOT_SCHEMA_VERSION",
    "SimulationFailure",
    "SimulationTimeout",
    "SnapshotError",
    "Watchdog",
    "capture_state",
    "restore_state",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "checkpoint": ("CheckpointManager", "CheckpointPolicy"),
    "failures": (
        "CycleBudgetError", "InstructionBudgetError", "LivelockError",
        "MemoryBudgetError", "SimulationFailure", "SimulationTimeout",
    ),
    "snapshot": (
        "SNAPSHOT_SCHEMA_VERSION", "SnapshotError", "capture_state",
        "restore_state",
    ),
    "watchdog": ("Watchdog",),
})

"""Typed failure taxonomy and the forward-progress watchdog.

A simulator that stops making progress must fail *fast* and *legibly*:
a :class:`LivelockError` naming the stuck unit and task, not a silent
spin to the cycle budget. These tests plant real livelocks through the
difftest injection seam and check every failure class lands in the
:class:`SimulationFailure` taxonomy.
"""

import pytest

from repro.config import multiscalar_config, scalar_config
from repro.core import processor as processor_mod
from repro.core import scalar as scalar_mod
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.difftest.injection import inject_livelock
from repro.resilience import (
    CycleBudgetError,
    InstructionBudgetError,
    LivelockError,
    MemoryBudgetError,
    SimulationFailure,
    Watchdog,
)
from repro.workloads import WORKLOADS


def build_ms(units: int = 4) -> MultiscalarProcessor:
    return MultiscalarProcessor(
        WORKLOADS["wc"].multiscalar_program(),
        multiscalar_config(units, 1, False))


def test_planted_livelock_raises_typed_error_naming_the_unit():
    processor = build_ms()
    with inject_livelock():
        with pytest.raises(LivelockError) as excinfo:
            processor.run(max_cycles=2_000_000,
                          watchdog=Watchdog(progress_window=2_000))
    error = excinfo.value
    assert isinstance(error, SimulationFailure)
    assert error.cycle > error.last_progress
    assert error.cycle - error.last_progress > 2_000
    # The diagnostic dump names the stuck head unit and its task.
    head = error.stuck_unit
    assert head is not None
    assert head["position"] == 0
    assert head["task"] == "main"
    assert f"unit {head['unit']}" in str(error)
    assert "main" in str(error)
    assert len(error.units) == 4


def test_livelock_after_some_retires():
    processor = build_ms()
    with inject_livelock(after_retires=2):
        with pytest.raises(LivelockError):
            processor.run(max_cycles=2_000_000,
                          watchdog=Watchdog(progress_window=2_000))
    assert processor.tasks_retired == 2


def test_livelock_without_watchdog_uses_default_window():
    """The run loop itself catches livelocks even with no watchdog —
    just with the default (much wider) window."""
    processor = build_ms()
    processor._progress_window = 2_000     # tighten for test speed
    with inject_livelock():
        with pytest.raises(LivelockError):
            processor.run(max_cycles=2_000_000)


def test_scalar_livelock_raises_typed_error():
    processor = ScalarProcessor(WORKLOADS["wc"].scalar_program(),
                                scalar_config(1, False))
    processor.pipeline.step = lambda cycle: 0
    with pytest.raises(LivelockError) as excinfo:
        processor.run(max_cycles=2_000_000,
                      watchdog=Watchdog(progress_window=2_000))
    assert excinfo.value.stuck_unit is not None
    assert "scalar" in str(excinfo.value)


def test_cycle_budget_exhaustion_is_typed():
    """Both processors raise the one SimulationTimeout, a
    CycleBudgetError, so a handler written against either module's
    name catches both and new code can catch the whole taxonomy."""
    assert scalar_mod.SimulationTimeout is processor_mod.SimulationTimeout
    assert issubclass(processor_mod.SimulationTimeout, CycleBudgetError)
    assert issubclass(CycleBudgetError, SimulationFailure)

    processor = build_ms()
    with pytest.raises(processor_mod.SimulationTimeout) as excinfo:
        processor.run(max_cycles=500)
    assert isinstance(excinfo.value, SimulationFailure)


def test_instruction_budget_guard():
    with pytest.raises(InstructionBudgetError):
        build_ms().run(watchdog=Watchdog(max_instructions=10,
                                         check_interval=64))


def test_memory_budget_guard():
    with pytest.raises(MemoryBudgetError):
        build_ms().run(watchdog=Watchdog(max_memory_entries=1,
                                         check_interval=64))


def test_watchdogged_run_is_behaviour_identical():
    """A watchdog that never fires changes nothing about the run."""
    silent = build_ms().run()
    watched = build_ms().run(watchdog=Watchdog(
        max_instructions=10 ** 9, max_memory_entries=10 ** 9))
    assert watched.to_dict() == silent.to_dict()


def test_injection_seam_restores_itself():
    with inject_livelock():
        pass
    result = build_ms().run()
    assert result.tasks_retired > 0    # retirement works again

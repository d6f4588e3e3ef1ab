"""The run-loop seam (``repro.core.runloop``).

Three layers. First the driver alone, against a fake machine: the
limit it hands down is exactly the minimum of its four terms, captures
land exactly on ``next_cycle``, and the post-advance checks run in the
documented order. Then both real cores in every execution mode: the
cycle at which ``SimulationTimeout`` and ``LivelockError`` raise is
pinned to the values the two hand-written loops produced before the
driver existed. Last, the shared syscall service on all three machines.
"""

from __future__ import annotations

from contextlib import ExitStack

import pytest

from repro.compiler.annotate import annotate_program
from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.runloop import drive
from repro.core.scalar import ScalarProcessor
from repro.difftest import inject_livelock
from repro.isa import ExecutionError, FunctionalCPU, assemble
from repro.resilience import LivelockError, SimulationTimeout, Watchdog
from repro.resilience.failures import InstructionBudgetError

# ------------------------------------------------- the driver, alone


class FakeTimeout(Exception):
    pass


class FakeLivelock(Exception):
    pass


class FakeMachine:
    """The seam and nothing else. Each ``advance`` moves by the next
    stride — 1 is an interpreter step that issues, anything larger a
    skip or compiled window that does not — but never past the limit,
    and journals what it was handed."""

    def __init__(self, strides, halt_at, window=10 ** 9):
        self.cycle = 0
        self.halted = False
        self._last_progress = 0
        self._progress_window = window
        self.strides = strides
        self.halt_at = halt_at
        self.journal = []

    def advance(self, limit):
        stride = self.strides[len(self.journal) % len(self.strides)]
        self.journal.append((self.cycle, limit, self._last_progress))
        if stride == 1:
            self._last_progress = self.cycle
        self.cycle = max(self.cycle + 1, min(limit, self.cycle + stride))
        self.halted = self.cycle >= self.halt_at

    def _timeout_error(self, budget):
        return FakeTimeout(budget)

    def _livelock_error(self):
        return FakeLivelock(self.cycle)

    def instructions_executed(self):
        return self.cycle

    def state_entries(self):
        return 0


class Every:
    """The duck-typed checkpointer: a cursor plus ``capture``."""

    def __init__(self, every, journal=None):
        self.every = every
        self.next_cycle = every
        self.captured = []
        self.journal = journal

    def capture(self, machine):
        self.captured.append(machine.cycle)
        self.next_cycle = machine.cycle + self.every
        if self.journal is not None:
            self.journal.append("capture")


#: What a machine can do with a limit: tick, skip a little, or run as
#: far as it is allowed (a long quiescence skip, a compiled window).
#: The last two rows are the old resume-matrix and jit-deopt clamping
#: scenarios, reduced to their run-loop content.
STRIDES = {
    "ticks": (1,),
    "short skips": (1, 7, 1, 3),
    "runs to the limit": (10 ** 9,),
    "window then deopt": (10 ** 9, 1, 1),
}


@pytest.mark.parametrize("strides", STRIDES.values(), ids=STRIDES.keys())
def test_limit_is_the_minimum_of_its_four_terms(strides):
    budget, window, interval, every = 5_000, 600, 64, 250
    machine = FakeMachine(strides, halt_at=4_000, window=window)
    checkpointer = Every(every)
    try:
        drive(machine, budget, checkpointer,
              Watchdog(progress_window=window, check_interval=interval))
    except FakeLivelock:
        # A machine that never issues dies at its deadline, not later.
        assert 1 not in strides
        assert machine.cycle == window + 1
    else:
        assert machine.halted
    assert machine.journal
    for cycle, limit, last_progress in machine.journal:
        next_capture = (cycle // every + 1) * every
        assert limit == min(budget, last_progress + window + 1,
                            cycle + interval, next_capture)
    # Captures land on exactly the cycle asked for, whatever the stride.
    assert checkpointer.captured == list(
        range(every, machine.cycle + 1, every))


def test_without_watchdog_or_checkpointer_only_two_terms_remain():
    machine = FakeMachine((10 ** 9,), halt_at=10 ** 9, window=300)
    with pytest.raises(FakeLivelock):
        drive(machine, 1_000)
    assert machine.journal == [(0, 301, 0)]
    machine = FakeMachine((10 ** 9,), halt_at=10 ** 9, window=3_000)
    with pytest.raises(FakeTimeout) as excinfo:
        drive(machine, 1_000)
    assert machine.journal == [(0, 1_000, 0)]
    assert excinfo.value.args == (1_000,)


def test_an_exhausted_budget_still_executes_one_cycle():
    # advance() always makes progress, so resuming at or past the
    # budget costs one cycle and then raises — as both loops always did.
    machine = FakeMachine((1,), halt_at=10 ** 9)
    machine.cycle = 50
    with pytest.raises(FakeTimeout):
        drive(machine, 10)
    assert machine.cycle == 51


def test_checks_run_timeout_livelock_capture_watchdog():
    journal = []

    class LoggingWatchdog(Watchdog):
        def check(self, machine):
            journal.append("check")
            super().check(machine)

    def run(budget, window, every, **watchdog_args):
        del journal[:]
        machine = FakeMachine((10 ** 9,), halt_at=10 ** 9, window=window)
        drive(machine, budget, Every(every, journal),
              LoggingWatchdog(progress_window=window, **watchdog_args))

    # A healthy iteration captures, then checks.
    with pytest.raises(FakeTimeout):
        run(budget=200, window=10 ** 6, every=100, check_interval=100)
    assert journal == ["capture", "check"]
    # Budget, progress deadline and checkpoint all fall on cycle 100:
    # the timeout wins and nothing else runs.
    with pytest.raises(FakeTimeout):
        run(budget=100, window=99, every=100, check_interval=100)
    assert journal == []
    # Deadline and checkpoint coincide: livelock wins, no capture.
    with pytest.raises(FakeLivelock):
        run(budget=10 ** 6, window=99, every=100, check_interval=100)
    assert journal == []
    # Checkpoint and a blown instruction budget coincide: the capture
    # is taken before the watchdog raises.
    with pytest.raises(InstructionBudgetError):
        run(budget=10 ** 6, window=10 ** 6, every=100, check_interval=1,
            max_instructions=99)
    assert journal == ["check"] * 99 + ["capture", "check"]


# ------------------------------------------------ both cores, each mode

# Thirty dependent iterations, one task each; small enough to pin.
LOOP = """
        .data
cell:   .word 1
        .text
        .task init targets=loop creates=$t0,$t1,$t9
        .task loop targets=loop,done creates=$t0
        .task done targets=halt creates=$v0,$a0,$t2
init:   la $t9, cell
        li $t1, 30
        li $t0, 0 !fwd
        j loop !stop
loop:   lw $t2, 0($t9)
        addi $t2, $t2, 3
        sw $t2, 0($t9)
        addi $t0, $t0, 1 !fwd
        bne $t0, $t1, loop !stop
done:   lw $t2, 0($t9)
        li $v0, 1
        move $a0, $t2
        syscall
        halt
        .entry init
"""

#: (fast_path, jit). The JIT serves the scalar core only: on ms4 the
#: "jit" and "no-jit" rows run the same interpreter, and pin that the
#: config field is inert there.
MODES = {"reference": (False, False), "no-jit": (True, False),
         "jit": (True, True)}


def build(machine: str, program, mode: str):
    fast, jit = MODES[mode]
    if machine == "scalar":
        return ScalarProcessor(
            program, scalar_config(1, False, fast_path=fast, jit=jit))
    return MultiscalarProcessor(
        program, multiscalar_config(4, 1, False, fast_path=fast, jit=jit))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("machine, raises_at, message", [
    # The written-down asymmetry: the scalar budget is inclusive (the
    # run may reach max_cycles), the multiscalar one is exclusive.
    ("scalar", 201, "scalar run exceeded 200 cycles"),
    ("ms4", 200, "exceeded 200 cycles (head task at 0x1010)"),
], ids=("scalar", "ms4"))
def test_timeout_raises_at_the_pinned_cycle(machine, raises_at, message,
                                            mode):
    processor = build(machine, assemble(LOOP), mode)
    with pytest.raises(SimulationTimeout) as excinfo:
        processor.run(max_cycles=200)
    assert processor.cycle == raises_at
    assert str(excinfo.value) == message


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("machine, raises_at, last_progress, stuck", [
    ("scalar", 2_103, 102, "scalar"),
    ("ms4", 2_083, 82, "loop"),
], ids=("scalar", "ms4"))
def test_livelock_raises_at_the_pinned_cycle(machine, raises_at,
                                             last_progress, stuck, mode):
    """Also the jit-vs-interpreter identity ``test_jit_deopt`` used to
    check on its own: compiled windows may not coast past the progress
    deadline, so every mode dies on the same cycle with the same
    diagnosis."""
    processor = build(machine, assemble(LOOP), mode)
    with ExitStack() as wedge:
        if machine == "ms4":
            wedge.enter_context(inject_livelock(after_retires=2))
        else:
            # The scalar core has no retirement to block; starve its
            # fetch from cycle 100 on instead (the interpreter and the
            # compiled windows share this seam).
            ctx = processor.pipeline.ctx
            fetch = ctx.fetch_group
            ctx.fetch_group = lambda addr, cycle: (
                fetch(addr, cycle) if cycle < 100 else 10 ** 12)
        with pytest.raises(LivelockError) as excinfo:
            processor.run(max_cycles=2_000_000,
                          watchdog=Watchdog(progress_window=2_000))
    error = excinfo.value
    assert (error.cycle, error.last_progress) == (raises_at, last_progress)
    assert processor.cycle == raises_at
    assert error.stuck_unit["task"] == stuck
    assert not error.stuck_unit["pending"]


# ------------------------------------------ one syscall service, 3 machines

PRINT_DOUBLE = """
        .data
value:  .double 2.5
        .text
        .task main targets=halt creates=$v0,$t0,$f12
main:   la $t0, value
        l.d $f12, 0($t0)
        li $v0, 3
        syscall
        halt
"""

UNKNOWN_SYSCALL = """
        .text
        .task main targets=halt creates=$v0
main:   li $v0, 99
        syscall
        halt
"""


# $f12 is loaded in one task and printed in the next: the annotator
# must know a syscall may read it, or the value is never forwarded.
PRINT_DOUBLES_ACROSS_TASKS = """
        .data
vals:   .double 1.5, 2.25, 3.0
        .text
main:   la $t0, vals
        li $t1, 3
        li $t2, 0
loop:   l.d $f12, 0($t0)
        addi $t0, $t0, 8
        addi $t2, $t2, 1
        j body
body:   li $v0, 3
        syscall
        bne $t2, $t1, loop
        halt
"""


def _machines(program):
    yield "functional", FunctionalCPU(program)
    for machine in ("scalar", "ms4"):
        for mode in MODES:
            yield f"{machine}/{mode}", build(machine, program, mode)


def _output(machine) -> str:
    done = machine.run()
    return machine.output if isinstance(machine, FunctionalCPU) \
        else done.output


def test_print_double_on_every_machine():
    for name, machine in _machines(assemble(PRINT_DOUBLE)):
        assert _output(machine) == "2.5", name
    annotated = annotate_program(assemble(PRINT_DOUBLES_ACROSS_TASKS),
                                 task_entries=["loop", "body"])
    for name, machine in _machines(annotated):
        assert _output(machine) == "1.52.253.0", name


def test_unknown_syscall_is_one_typed_error_everywhere():
    for name, machine in _machines(assemble(UNKNOWN_SYSCALL)):
        with pytest.raises(ExecutionError, match="unknown syscall 99"):
            machine.run()

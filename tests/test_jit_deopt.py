"""Deopt correctness: every irregular event inside a compiled block.

The trace-JIT serves the scalar core only (the multiscalar machine is
interpreter-only; docs/INTERNALS.md §12), so what can interrupt a
compiled window is what interrupts the scalar pipeline: cache misses,
taken branches, syscalls, and the watchdog/checkpoint boundaries the
resilience layer needs (the progress deadline is pinned per mode in
``test_core_runloop``). Each test here *forces* one of those events to
fire while the JIT is executing compiled bodies and demands the
machine's observable state — result dictionaries, metrics, per-cycle
event streams, mid-run snapshots — match the fast-path interpreter
cycle for cycle.

The last section validates the seam the fuzz self-test stands on:
:func:`repro.difftest.inject_jit_guard_miss` plants a real guard bug in
the generated code, and the run visibly diverges from the interpreter
(which is how we know the identity assertions above have teeth).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.config import scalar_config
from repro.core.scalar import ScalarProcessor
from repro.difftest import inject_jit_guard_miss
from repro.isa import assemble
from repro.observability import Category, EventBus, collect_metrics
from repro.resilience import capture_state
from repro.resilience.failures import SimulationFailure
from repro.workloads import WORKLOADS

# A loop with a memory recurrence through one location and a taken
# back-edge per iteration; the task annotations are tag bits the scalar
# core (and so the JIT) ignores.
RECURRENCE = """
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


def _scalar(program, jit: bool, config=None):
    return ScalarProcessor(program,
                           replace(config or scalar_config(), jit=jit))


def _engaged(processor) -> dict:
    """The finished run's engine statistics; fails if no compiled body
    ever ran (the identity checks would be vacuous)."""
    assert processor._jit is not None
    stats = processor._jit.stats_dict()
    assert stats["entries"] > 0
    return stats


# ---------------------------------------------------------- cache misses

def test_scalar_dcache_misses():
    # Shrink the cache until real traffic thrashes it: loads then take
    # the bus path (variable latency) mid-trace.
    config = scalar_config()
    config = replace(config, memory=replace(config.memory,
                                            scalar_dcache_size=256))
    program = WORKLOADS["tomcatv"].scalar_program()
    runs = {}
    for jit in (True, False):
        processor = _scalar(program, jit, config)
        result = processor.run()
        runs[jit] = (result.to_dict(),
                     collect_metrics(processor).to_dict())
        if jit:
            _engaged(processor)
    assert runs[True] == runs[False]
    assert runs[True][1]["counters"]["dcache.misses"] > 0


# ------------------------------------- per-cycle state at deopt points

def test_event_stream_identical_under_jit():
    # The structured event stream timestamps every emission with its
    # cycle; equality is the cycle-for-cycle state check.
    program = assemble(RECURRENCE)
    streams = []
    for jit in (True, False):
        processor = _scalar(program, jit)
        bus = EventBus(Category.ALL).attach(processor)
        processor.run()
        if jit:
            _engaged(processor)
        streams.append([event.key() for event in bus])
    assert streams[0] == streams[1] and streams[0]


def test_mid_run_snapshot_identical_under_jit():
    # A checkpoint probe lands on a deopt-safe boundary: the snapshot
    # a jit run captures at cycle K must be byte-identical to the one
    # the interpreter captures at the same cycle.
    program = WORKLOADS["wc"].scalar_program()
    total = _scalar(program, True).run().cycles

    class Probe:
        def __init__(self, at):
            self.next_cycle = at
            self.snapshot = None
            self.cycle = None

        def capture(self, processor):
            self.snapshot = json.loads(
                json.dumps(capture_state(processor)))
            self.cycle = processor.cycle
            self.next_cycle = 10 ** 18

    probes = {}
    for jit in (True, False):
        probe = Probe(total // 2)
        processor = _scalar(program, jit)
        processor.run(checkpointer=probe)
        assert probe.snapshot is not None
        if jit:
            # The window the probe cut short ended at its limit.
            assert _engaged(processor)["exits"]["limit"] > 0
        probes[jit] = probe
    assert probes[True].cycle == probes[False].cycle == total // 2
    assert probes[True].snapshot == probes[False].snapshot


# ------------------------------------------------- the guard-miss seam

def test_injected_guard_miss_diverges_from_interpreter():
    program = assemble(RECURRENCE)
    clean = _scalar(program, True).run()
    with inject_jit_guard_miss("taken-branch"):
        buggy_proc = _scalar(program, True)
        # A blind branch guard runs the fall-through path: either the
        # run completes with different results, or it trips a failure
        # (livelock/timeout). Both are visible divergence.
        try:
            buggy = buggy_proc.run(max_cycles=100_000).to_dict()
        except SimulationFailure as exc:
            buggy = {"error": type(exc).__name__}
        assert _engaged(buggy_proc)["injected_guard_miss"] \
            == "taken-branch"
        # The interpreter is immune: only compiled bodies go blind.
        immune = _scalar(program, False).run()
    assert immune.to_dict() == clean.to_dict()
    assert buggy != clean.to_dict(), \
        "planted branch-guard miss changed nothing; seam is dead"


def test_injection_is_scoped_to_the_context():
    program = assemble(RECURRENCE)
    clean = _scalar(program, True).run()
    with inject_jit_guard_miss("taken-branch"):
        pass
    after = _scalar(program, True).run()
    assert after.to_dict() == clean.to_dict()
    with pytest.raises(ValueError, match="unknown JIT guard-miss mode"):
        with inject_jit_guard_miss("stop"):
            pass

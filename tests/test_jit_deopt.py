"""Deopt correctness: every irregular event inside a compiled block.

The trace-JIT's guards exist for exactly four reasons: squashes, ARB
activity (violations and overflow), cache misses, and the
watchdog/checkpoint boundaries the resilience layer needs (the
progress deadline is pinned per mode in ``test_core_runloop``). Each
test here *forces* one of those events to fire while the JIT is executing
compiled bodies and demands the machine's observable state — result
dictionaries, metrics, per-cycle event streams, mid-run snapshots —
match the fast-path interpreter cycle for cycle. Compiled bodies are
unit windows (one unit awake, the rest asleep), so the squash tests
run narrow machines where that state is common and assert the event
really ended a window (its ``squash`` exit count).

The last section validates the seam the fuzz self-test stands on:
:func:`repro.difftest.inject_jit_guard_miss` plants a real guard bug in
the generated code, and the run visibly diverges from the interpreter
(which is how we know the identity assertions above have teeth).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.difftest import inject_jit_guard_miss
from repro.isa import assemble
from repro.observability import Category, EventBus, collect_metrics
from repro.resilience import capture_state
from repro.resilience.failures import SimulationFailure
from repro.workloads import WORKLOADS

# A loop with a memory recurrence through one location: later tasks
# load what earlier tasks store, so timing-dependent memory-order
# (ARB) violations and their squashes fire mid-trace.
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


def _ms(program, jit: bool, units: int = 4, config=None):
    config = config or multiscalar_config(units, jit=jit)
    if config.jit != jit:
        config = replace(config, jit=jit)
    return MultiscalarProcessor(program, config)


def _pair(program, units: int = 4, config=None, exit_by: str | None = None):
    """Run jit and no-jit; return both (processor, result) pairs and
    assert the jit run actually executed compiled bodies (and, with
    ``exit_by``, that some window ended for that reason)."""
    jit_proc = _ms(program, True, units, config)
    jit_result = jit_proc.run()
    engine = jit_proc._jit
    assert engine is not None
    stats = engine.stats_dict()
    assert stats["entries"] > 0
    if exit_by is not None:
        assert stats["exits"][exit_by] > 0, \
            f"no compiled window exited by {exit_by}; test is vacuous"
    int_proc = _ms(program, False, units, config)
    int_result = int_proc.run()
    return (jit_proc, jit_result), (int_proc, int_result)


def _identical(jit_pair, int_pair):
    (jit_proc, jit_result), (int_proc, int_result) = jit_pair, int_pair
    assert jit_result.to_dict() == int_result.to_dict()
    assert collect_metrics(jit_proc).to_dict() \
        == collect_metrics(int_proc).to_dict()


# ------------------------------------------------------------- squashes

def test_squash_inside_compiled_block():
    program = WORKLOADS["sc"].multiscalar_program()
    jit_pair, int_pair = _pair(program, units=3, exit_by="squash")
    _identical(jit_pair, int_pair)
    assert jit_pair[1].tasks_squashed > 0


def test_squashes_around_compiled_blocks():
    # The wide-machine form: squashes land between windows (several
    # units awake), so what is checked is that entering and leaving
    # compiled bodies around them leaves no trace.
    program = assemble(RECURRENCE)
    for units in (4, 8):
        jit_pair, int_pair = _pair(program, units=units)
        _identical(jit_pair, int_pair)
        assert jit_pair[1].tasks_squashed > 0, \
            "the recurrence program no longer squashes; test is vacuous"


def test_arb_violation_inside_compiled_block():
    # xlisp's tasks load what their predecessors store: on two units
    # the running unit's committed store keeps hitting the sleeping
    # successor's earlier load.
    program = WORKLOADS["xlisp"].multiscalar_program()
    jit_pair, int_pair = _pair(program, units=2, exit_by="squash")
    _identical(jit_pair, int_pair)
    metrics = collect_metrics(jit_pair[0])
    assert metrics.counters["arb.violations"] > 0, \
        "no ARB memory-order violation fired; test is vacuous"
    assert jit_pair[1].squashes_memory > 0


def test_arb_overflow_squash_inside_compiled_block():
    # Starve the ARB so speculative stores overflow it (the paper's
    # Section 2.3 "squash" full policy) while traces are streaming.
    config = multiscalar_config(2)
    config = replace(config, memory=replace(config.memory,
                                            arb_entries_per_bank=2))
    program = WORKLOADS["sc"].multiscalar_program()
    jit_pair, int_pair = _pair(program, config=config, exit_by="squash")
    _identical(jit_pair, int_pair)
    assert jit_pair[1].squashes_arb > 0, \
        "no ARB-overflow squash fired; test is vacuous"


# ---------------------------------------------------------- cache misses

def test_dcache_misses_inside_compiled_block():
    # Shrink the banks until real traffic thrashes them: loads then
    # take the bus path (variable latency, retries) mid-trace.
    config = multiscalar_config(2)
    config = replace(config, memory=replace(config.memory,
                                            dcache_bank_size=256))
    program = WORKLOADS["tomcatv"].multiscalar_program()
    jit_pair, int_pair = _pair(program, config=config)
    _identical(jit_pair, int_pair)
    metrics = collect_metrics(jit_pair[0])
    assert metrics.counters["dcache.misses"] > 0, \
        "no data-cache miss fired; test is vacuous"


def test_scalar_dcache_misses():
    config = scalar_config()
    config = replace(config, memory=replace(config.memory,
                                            scalar_dcache_size=256))
    program = WORKLOADS["tomcatv"].scalar_program()
    runs = {}
    for jit in (True, False):
        processor = ScalarProcessor(program, replace(config, jit=jit))
        result = processor.run()
        runs[jit] = (result.to_dict(),
                     collect_metrics(processor).to_dict())
        if jit:
            assert processor._jit is not None
            assert processor._jit.stats_dict()["entries"] > 0
    assert runs[True] == runs[False]
    assert runs[True][1]["counters"]["dcache.misses"] > 0


# ------------------------------------- per-cycle state at deopt points

def test_event_stream_identical_under_jit():
    # The structured event stream timestamps every emission with its
    # cycle; equality is the cycle-for-cycle state check.
    program = assemble(RECURRENCE)
    streams = []
    for jit in (True, False):
        processor = _ms(program, jit)
        bus = EventBus(Category.ALL).attach(processor)
        processor.run()
        streams.append([event.key() for event in bus])
    assert streams[0] == streams[1] and streams[0]


def test_mid_run_snapshot_identical_under_jit():
    # A checkpoint probe lands on a deopt-safe boundary: the snapshot
    # a jit run captures at cycle K must be byte-identical to the one
    # the interpreter captures at the same cycle.
    program = WORKLOADS["wc"].multiscalar_program()
    total = _ms(program, True).run().cycles

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
        _ms(program, jit).run(checkpointer=probe)
        assert probe.snapshot is not None
        probes[jit] = probe
    assert probes[True].cycle == probes[False].cycle
    assert probes[True].snapshot == probes[False].snapshot


# ------------------------------------------------- the guard-miss seam

def test_injected_guard_miss_diverges_from_interpreter():
    program = assemble(RECURRENCE)
    clean = _ms(program, True).run()
    with inject_jit_guard_miss("stop"):
        buggy_proc = _ms(program, True)
        # Blind stop guards wedge or corrupt the machine: either the
        # run completes with different results, or it trips a failure
        # (livelock/timeout). Both are visible divergence.
        try:
            buggy = buggy_proc.run(max_cycles=2_000_000).to_dict()
        except SimulationFailure as exc:
            buggy = {"error": type(exc).__name__}
        assert buggy_proc._jit is not None
        assert buggy_proc._jit.stats_dict()["injected_guard_miss"] \
            == "stop"
        # The interpreter is immune: only compiled bodies go blind.
        immune = _ms(program, False).run()
    assert immune.to_dict() == clean.to_dict()
    assert buggy != clean.to_dict(), \
        "planted stop-guard miss changed nothing; seam is dead"


def test_injection_is_scoped_to_the_context():
    program = assemble(RECURRENCE)
    clean = _ms(program, True).run()
    with inject_jit_guard_miss("stop"):
        pass
    after = _ms(program, True).run()
    assert after.to_dict() == clean.to_dict()

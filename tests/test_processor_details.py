"""Focused multiscalar-processor tests: sequencer behaviour, policies,
error paths, and speculative-state isolation."""

from dataclasses import replace

import pytest

from repro.config import multiscalar_config
from repro.core.processor import (
    MultiscalarError,
    MultiscalarProcessor,
    SimulationTimeout,
)
from repro.isa import FunctionalCPU, assemble
from repro.observability import Category, EventBus

SIMPLE = """
        .task init targets=loop creates=$t0,$t1,$s0
        .task loop targets=loop,done creates=$t0,$s0
        .task done targets=halt creates=$v0,$a0
main:
init:   li $t1, 30
        li $s0, 0 !fwd
        li $t0, 0 !fwd
        j loop !stop
loop:   addi $t0, $t0, 1 !fwd
        add $s0, $s0, $t0 !fwd
        bne $t0, $t1, loop !stop
done:   li $v0, 1
        move $a0, $s0
        syscall
        halt
"""


def run(source=SIMPLE, **config_kwargs):
    program = assemble(source)
    config = multiscalar_config(**config_kwargs) if config_kwargs \
        else multiscalar_config(4)
    processor = MultiscalarProcessor(program, config)
    return processor, processor.run()


def test_requires_task_descriptors():
    program = assemble("main: halt")
    with pytest.raises(MultiscalarError):
        MultiscalarProcessor(program, multiscalar_config(2))


def test_requires_descriptor_at_entry():
    program = assemble("""
        .task later targets=halt creates=$t0
main:   nop
later:  halt
    """)
    with pytest.raises(MultiscalarError):
        MultiscalarProcessor(program, multiscalar_config(2)).run()


def test_requires_explicit_or_computed_masks():
    program = assemble("""
        .task main targets=halt
main:   halt
    """)
    with pytest.raises(MultiscalarError, match="create"):
        MultiscalarProcessor(program, multiscalar_config(2)).run()


def test_walk_off_annotated_region_is_reported():
    # Control flows to an address with no descriptor: a clear error,
    # not silence.
    program = assemble("""
        .task main targets=nowhere creates=$t0
main:   li $t0, 1
        j nowhere !stop
nowhere: halt
    """)
    with pytest.raises(MultiscalarError, match="no task descriptor"):
        MultiscalarProcessor(program, multiscalar_config(2)).run()


def test_cycle_budget_timeout():
    program = assemble("""
        .task spin targets=spin creates=$t0
main:
spin:   addi $t0, $t0, 1 !fwd
        j spin !stop
    """)
    processor = MultiscalarProcessor(program, multiscalar_config(2))
    with pytest.raises(SimulationTimeout):
        processor.run(max_cycles=5000)


def test_single_unit_machine_works():
    processor, result = run(num_units=1)
    assert result.output == str(sum(range(1, 31)))
    # One unit: tasks strictly serialized, none squashed by prediction
    # until the loop exit overshoot.
    assert result.tasks_retired >= 30


def test_sixteen_unit_machine_works():
    _, result = run(num_units=16)
    assert result.output == str(sum(range(1, 31)))


def test_descriptor_cache_miss_delays_first_assignment():
    program = assemble(SIMPLE)
    fast = MultiscalarProcessor(program, multiscalar_config(4))
    fast_result = fast.run()
    assert fast.descriptor_cache.misses >= 2   # init, loop, done
    assert fast.descriptor_cache.accesses > fast.descriptor_cache.misses
    assert fast_result.output == str(sum(range(1, 31)))


def test_arb_stall_policy_correctness():
    # A store-heavy workload with a tiny ARB under the stall policy
    # still executes correctly (units wait instead of squashing).
    source = """
        .data
arr:    .space 512
        .text
        .task init targets=loop creates=$t0,$t1,$t9
        .task loop targets=loop,done creates=$t0
        .task done targets=halt creates=$v0,$a0,$t2,$t3,$s0
init:   la $t9, arr
        li $t1, 64
        li $t0, 0 !fwd
        j loop !stop
loop:   sll $t2, $t0, 2
        add $t2, $t2, $t9
        sw $t0, 0($t2)
        sw $t0, 256($t2)
        addi $t0, $t0, 1 !fwd
        # Long tail: keep predecessors busy so successors' stores issue
        # speculatively and hold ARB entries.
        li $t4, 97
        div $t5, $t4, $t1
        div $t5, $t5, $t1
        div $t5, $t5, $t1
        bne $t0, $t1, loop !stop
done:   li $t0, 0
        li $s0, 0
        la $t2, arr
check:  lw $t3, 0($t2)
        add $s0, $s0, $t3
        addi $t2, $t2, 4
        addi $t0, $t0, 1
        blt $t0, 64, check
        li $v0, 1
        move $a0, $s0
        syscall
        halt
        .entry init
    """
    program = assemble(source)
    reference = FunctionalCPU(program)
    reference.run()
    config = multiscalar_config(8)
    config = replace(
        config,
        memory=replace(config.memory, arb_entries_per_bank=2),
        arb_full_policy="stall")
    processor = MultiscalarProcessor(program, config)
    result = processor.run()
    assert result.output == reference.output
    assert result.squashes_arb == 0
    assert processor.arb.stats.full_events > 0   # pressure really existed


def test_squash_overhead_config_slows_squashes():
    source = SIMPLE
    program = assemble(source)
    cheap = MultiscalarProcessor(
        program, replace(multiscalar_config(8), squash_overhead=0)).run()
    costly = MultiscalarProcessor(
        program, replace(multiscalar_config(8), squash_overhead=40)).run()
    assert cheap.output == costly.output
    assert costly.cycles >= cheap.cycles


def test_speculative_state_never_leaks_to_memory():
    # A wrong-path task stores a poison value; the squash must keep it
    # out of committed memory.
    source = """
        .data
cell:   .word 7
poison: .word 0
        .text
        .task init targets=loop creates=$t0,$t1,$t9,$t8
        .task loop targets=loop,done creates=$t0
        .task done targets=halt creates=$v0,$a0,$t2
init:   la $t9, cell
        la $t8, poison
        li $t1, 6
        li $t0, 0 !fwd
        j loop !stop
loop:   lw $t2, 0($t9)
        addi $t2, $t2, 1
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
    program = assemble(source)
    processor = MultiscalarProcessor(program, multiscalar_config(8))
    result = processor.run()
    assert result.output == "13"
    assert processor.memory.read_word(program.labels["poison"]) == 0
    assert processor.arb.is_empty()


def test_unit_reuse_after_retirement():
    # More tasks than units: every unit must be recycled many times.
    processor, result = run(num_units=2)
    assert result.tasks_retired > 10
    assert result.output == str(sum(range(1, 31)))


def test_idle_units_counted():
    # 16 units on a serial recurrence: most units idle or stalled.
    _, result = run(num_units=16)
    dist = result.distribution
    assert dist.total() == 16 * result.cycles


# ------------------------------------------------------ squash recovery

GLOBAL_RMW = """
        .data
glob:   .word 0
        .text
main:
        li $t9, 0
loop:
        addi $t9, $t9, 1
        lw $t0, glob
        addi $t0, $t0, 1
        sw $t0, glob
        blt $t9, 8, loop
done:
        lw $a0, glob
        li $v0, 1
        syscall
        halt
"""


def _rmw_processor(**config_kwargs):
    from repro.compiler import annotate_program

    program = annotate_program(assemble(GLOBAL_RMW),
                               task_entries=["loop"])
    kwargs = dict(num_units=4)
    kwargs.update(config_kwargs)
    return MultiscalarProcessor(program, multiscalar_config(**kwargs))


def test_memory_squash_takes_suffix_and_recovers():
    # Every iteration read-modify-writes one global: successor tasks
    # load it early, a predecessor store then hits the earlier load,
    # and the violator plus everything younger must be squashed —
    # never an already-retired (or older) task.
    processor = _rmw_processor()
    bus = EventBus(Category.TASK).attach(processor)
    result = processor.run()
    assert result.output == "8"
    assert result.squashes_memory >= 1
    retired_so_far = []
    for kind, seq in ((event.name, event.args["seq"]) for event in bus):
        if kind == "retire":
            retired_so_far.append(seq)
        elif kind == "squash" and retired_so_far:
            # Suffix property: a squash never reaches a task at or
            # below one that already retired.
            assert seq > max(retired_so_far)
    # Recovery: the sequencer re-walked the squashed suffix, so every
    # loop iteration still retired exactly once (main + 8 iterations;
    # the done tail rides in the final iteration's task).
    assert result.tasks_retired == 9


def test_squash_from_discards_suffix_and_restarts_walk():
    # Drive the machine until several tasks are in flight, then squash
    # a suffix directly and check the bookkeeping: victims flagged,
    # units freed, ARB state dropped, walk restarted at the victim.
    processor = _rmw_processor()
    while len(processor.active) < 3:
        processor.step()
    survivor = processor.active[0]
    victims = list(processor.active[1:])
    processor._squash_from(1, victims[0].entry)
    assert processor.active == [survivor]
    assert not survivor.squashed
    for victim in victims:
        assert victim.squashed
        assert processor.units[victim.unit_index].task is None
    assert processor.next_pc == victims[0].entry
    # The mid-run squash of correct-path tasks must be harmless: the
    # sequencer re-executes them and the program completes correctly.
    result = processor.run()
    assert result.output == "8"


# --------------------------------------------------------- ARB overflow

STORE_HEAVY = """
        .data
arr:    .space 512
        .text
main:
        li $t9, 0
loop:
        sll $t8, $t9, 4
        addi $t9, $t9, 1
        sw $t9, arr($t8)
        addi $t8, $t8, 4
        sw $t9, arr($t8)
        addi $t8, $t8, 4
        sw $t9, arr($t8)
        addi $t8, $t8, 4
        sw $t9, arr($t8)
        blt $t9, 30, loop
done:
        lw $a0, arr
        li $v0, 1
        syscall
        halt
"""


def _store_heavy_processor(**config_kwargs):
    from repro.compiler import annotate_program

    program = annotate_program(assemble(STORE_HEAVY),
                               task_entries=["loop"])
    config = multiscalar_config(8)
    config = replace(config,
                     memory=replace(config.memory, arb_entries_per_bank=2),
                     **config_kwargs)
    return MultiscalarProcessor(program, config)


def test_arb_overflow_squashes_youngest_and_recovers():
    # A store-heavy loop against a 2-entry-per-bank ARB overflows under
    # the default "squash" policy; the machine must squash the youngest
    # task to free space and still produce the right answer.
    processor = _store_heavy_processor()
    result = processor.run()
    assert result.squashes_arb >= 1
    assert result.output == "1"
    assert processor.arb.is_empty()
    for offset in range(30):
        word = processor.memory.read_word(
            processor.program.labels["arr"] + offset * 16)
        assert word == offset + 1


def test_arb_overflow_never_squashes_a_lone_head():
    # With only the head active there is nothing to squash for space:
    # the request must be dropped, not wedge or kill the head.
    processor = _store_heavy_processor()
    while not processor.active:
        processor.step()
    head = processor.active[0]
    del processor.active[1:]
    processor._squash_request = ("arb", head.seq)
    processor._apply_squash_request(processor.cycle)
    assert processor.squashes_arb == 0
    assert processor.active == [head]
    assert not head.squashed


def test_arb_stall_policy_ignores_space_requests():
    # Under the paper's alternative stall policy the unit simply waits;
    # request_arb_space must not schedule a squash.
    processor = _store_heavy_processor(arb_full_policy="stall")
    while len(processor.active) < 2:
        processor.step()
    youngest = processor.active[-1]
    processor.request_arb_space(youngest)
    assert processor._squash_request is None


def test_violation_squash_keeps_oldest_violator():
    # Two violation reports in one cycle: the older (smaller seq) wins,
    # because squashing from the older task subsumes the younger one.
    processor = _rmw_processor()
    while len(processor.active) < 3:
        processor.step()
    younger = processor.active[2].seq
    older = processor.active[1].seq
    processor.request_violation_squash(younger)
    processor.request_violation_squash(older)
    assert processor._squash_request == ("memory", older)
    processor.request_violation_squash(younger)
    assert processor._squash_request == ("memory", older)

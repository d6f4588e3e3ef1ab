"""Tests for the annotation pass, including full multiscalar execution
of auto-annotated programs (the central toolchain property)."""

import pytest

from repro.compiler import CompilerKnobs, annotate_program
from repro.compiler.annotate import AnnotationError
from repro.config import multiscalar_config
from repro.core.processor import MultiscalarProcessor
from repro.isa import FunctionalCPU, StopKind, assemble
from repro.isa.opcodes import Op

SIMPLE_LOOP = """
main:   li $s0, 0
        li $t0, 0
loop:   addi $t0, $t0, 1
        add $s0, $s0, $t0
        blt $t0, 25, loop
        li $v0, 1
        move $a0, $s0
        syscall
        li $v0, 10
        syscall
        halt
"""

LOOP_WITH_CALL = """
main:   li $s0, 0
        li $s1, 0
loop:   move $a0, $s1
        jal work
        add $s0, $s0, $v0
        addi $s1, $s1, 1
        blt $s1, 12, loop
        li $v0, 1
        move $a0, $s0
        syscall
        halt
work:   mult $v0, $a0, $a0
        addi $v0, $v0, 3
        jr $ra
"""

NESTED_LOOPS = """
        .data
arr:    .space 200
        .text
main:   la $s7, arr
        li $s0, 0
outer:  li $t1, 0
        move $t2, $s0
inner:  add $t2, $t2, $t1
        addi $t1, $t1, 1
        blt $t1, 5, inner
        sll $t3, $s0, 2
        add $t3, $t3, $s7
        sw $t2, 0($t3)
        addi $s0, $s0, 1
        blt $s0, 20, outer
        li $t0, 0
        li $s1, 0
sum:    lw $t4, 0($s7)
        add $s1, $s1, $t4
        addi $s7, $s7, 4
        addi $t0, $t0, 1
        blt $t0, 20, sum
        li $v0, 1
        move $a0, $s1
        syscall
        halt
"""


def annotate(source, entries=None, knobs=None):
    return annotate_program(assemble(source), task_entries=entries,
                            knobs=knobs)


def test_descriptors_created_and_closed():
    program = annotate(SIMPLE_LOOP, entries=["loop"])
    assert program.is_multiscalar()
    loop = program.tasks[program.labels["loop"]]
    assert all(t.addr in program.tasks or t.kind.name != "ADDR"
               for t in loop.targets)
    # The program entry always becomes a task.
    assert program.entry in program.tasks


def test_create_mask_pruned_by_liveness():
    program = annotate(SIMPLE_LOOP, entries=["loop"])
    loop = program.tasks[program.labels["loop"]]
    assert 8 in loop.create_mask    # $t0: induction variable
    assert 16 in loop.create_mask   # $s0: accumulator
    # $v0/$a0 are only written after the loop.
    assert 2 not in loop.create_mask


def test_stop_bits_on_loop_branch():
    program = annotate(SIMPLE_LOOP, entries=["loop"])
    branch = next(i for i in program.instructions
                  if i.op is Op.BLT)
    # Taken -> next iteration task; not taken -> the epilogue, which is
    # folded into the final iteration's task and ends at the halt.
    assert branch.stop is StopKind.TAKEN
    loop = program.tasks[program.labels["loop"]]
    assert any(t.kind.name == "HALT" for t in loop.targets)


def test_forward_bits_on_last_updates():
    program = annotate(SIMPLE_LOOP, entries=["loop"])
    loop_addr = program.labels["loop"]
    addi = program.instr_at(loop_addr)
    assert addi.op is Op.ADDI and addi.forward   # induction update
    add = program.instr_at(loop_addr + 4)
    assert add.op is Op.ADD and add.forward      # accumulator update


def test_call_clobbers_pruned_from_create_mask():
    program = annotate(LOOP_WITH_CALL, entries=["loop"])
    loop = program.tasks[program.labels["loop"]]
    # $v0 is consumed inside the task; $ra is the call's own link and
    # not upward-exposed; $sp is callee-saved by the MinC ABI. None of
    # them belong in the create mask (each would serialize tasks).
    assert 2 not in loop.create_mask    # $v0
    assert 31 not in loop.create_mask   # $ra
    assert 29 not in loop.create_mask   # $sp
    # The accumulator and induction variable are what actually flows.
    assert {16, 17} <= loop.create_mask


def test_release_inserted_when_call_defines_live_register():
    source = """
    int total = 0;
    int bump(int x) { return x + 1; }
    void main() {
        int v = 0;
        int i = 0;
        parallel while (i < 8) {
            i += 1;
            v = bump(v);
            total += v;
        }
        print_int(v + total);
    }
    """
    from repro.minic import compile_minic
    from repro.isa import assemble
    unit = compile_minic(source)
    program = annotate_program(assemble(unit.asm),
                               task_entries=unit.task_labels)
    # `v` lives in a callee-saved register and is updated via the call's
    # return value; its last update is an ordinary move that can carry a
    # forward bit — so verify the annotated binary still runs right.
    from repro.core.processor import MultiscalarProcessor
    from repro.config import multiscalar_config
    expected_v = 8
    expected_total = sum(range(1, 9))
    result = MultiscalarProcessor(program, multiscalar_config(4)).run()
    assert result.output == str(expected_v + expected_total)


def test_existing_explicit_mask_preserved():
    source = """
        .task loop targets=loop,out creates=$t0,$s0,$s5
        .text
main:   li $s0, 0
        li $t0, 0
loop:   addi $t0, $t0, 1
        add $s0, $s0, $t0
        blt $t0, 9, loop
out:    halt
    """
    program = annotate_program(assemble(source))
    loop = program.tasks[program.labels["loop"]]
    assert 21 in loop.create_mask   # $s5 kept from the hand-written mask


def test_too_many_targets_rejected():
    source = """
main:   beq $t0, $zero, a
        beq $t1, $zero, b
        beq $t2, $zero, c
        beq $t3, $zero, d
        j e
a:      j main
b:      j main
c:      j main
d:      j main
e:      halt
    """
    with pytest.raises(AnnotationError):
        annotate(source, entries=["a", "b", "c", "d", "e", "main"])


@pytest.mark.parametrize("source,entries", [
    (SIMPLE_LOOP, ["loop"]),
    (LOOP_WITH_CALL, ["loop"]),
    (NESTED_LOOPS, ["outer", "sum"]),
])
@pytest.mark.parametrize("units", [1, 4, 8])
def test_annotated_program_runs_correctly(source, entries, units):
    scalar = assemble(source)
    reference = FunctionalCPU(scalar)
    reference.run()
    annotated = annotate(source, entries=entries)
    # The annotated binary is architecturally equivalent...
    check = FunctionalCPU(annotated)
    check.run()
    assert check.output == reference.output
    # ...and runs correctly on the multiscalar processor.
    processor = MultiscalarProcessor(annotated, multiscalar_config(units))
    result = processor.run()
    assert result.output == reference.output


def test_auto_loops_partitioning_runs():
    scalar = assemble(NESTED_LOOPS)
    reference = FunctionalCPU(scalar)
    reference.run()
    annotated = annotate(NESTED_LOOPS, knobs=CompilerKnobs(loop_cut="all"))
    # inner, outer, and sum loops all became tasks.
    assert len(annotated.tasks) >= 4
    processor = MultiscalarProcessor(annotated, multiscalar_config(4))
    assert processor.run().output == reference.output


def test_instruction_overhead_is_modest():
    scalar = assemble(LOOP_WITH_CALL)
    annotated = annotate(LOOP_WITH_CALL, entries=["loop"])
    ref = FunctionalCPU(scalar)
    ref.run()
    cpu = FunctionalCPU(annotated)
    cpu.run()
    overhead = cpu.instruction_count / ref.instruction_count - 1
    assert 0 <= overhead < 0.35   # paper's Table 2 reports 1.4%-17.3%

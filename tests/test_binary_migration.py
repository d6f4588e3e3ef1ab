"""The Section-2.2 software growth path: strip and re-annotate binaries.

"The job of migrating a multiscalar program from one generation to
another generation of hardware might be as simple as taking an old
binary, determining the CFG (a routine task), deciding upon a task
structure, and producing a new binary."
"""

import pytest

from repro.compiler import CompilerKnobs, annotate_program
from repro.compiler.annotate import strip_annotations
from repro.config import multiscalar_config
from repro.core.processor import MultiscalarProcessor
from repro.isa import FunctionalCPU, assemble
from repro.isa.opcodes import Op, StopKind
from repro.minic import compile_and_annotate, compile_scalar

#: Re-partition with every natural loop as a task.
ALL_LOOPS = CompilerKnobs(loop_cut="all")

SOURCE = """
int out[32];
void main() {
    int i = 0;
    parallel while (i < 32) {
        int k = i;
        i += 1;
        int acc = 0;
        for (int j = 0; j <= k % 5; j += 1) { acc += k * j; }
        out[k] = acc;
    }
    int t = 0;
    for (int k = 0; k < 32; k += 1) { t += out[k]; }
    print_int(t);
}
"""


@pytest.fixture(scope="module")
def annotated():
    return compile_and_annotate(SOURCE)


@pytest.fixture(scope="module")
def expected():
    cpu = FunctionalCPU(compile_scalar(SOURCE))
    cpu.run()
    return cpu.output


def test_strip_removes_all_annotations(annotated):
    stripped = strip_annotations(annotated)
    assert not stripped.is_multiscalar()
    for instr in stripped.instructions:
        assert instr.op is not Op.RELEASE
        assert not instr.forward
        assert instr.stop is StopKind.NONE


def test_stripped_binary_runs_identically(annotated, expected):
    stripped = strip_annotations(annotated)
    cpu = FunctionalCPU(stripped)
    cpu.run()
    assert cpu.output == expected
    # It is smaller: the releases are gone.
    assert len(stripped.instructions) <= len(annotated.instructions)


def test_branch_into_deleted_release_remapped(expected):
    # A release sits at a branch target (block top); deleting it must
    # redirect the branch to the following instruction.
    source = """
        .task loop targets=loop,done
main:   li $s0, 0
        li $t0, 0
loop:   addi $t0, $t0, 1
        add $s0, $s0, $t0
        blt $t0, 12, loop
done:   move $a0, $s0
        li $v0, 1
        syscall
        halt
    """
    annotated = annotate_program(assemble(source))
    assert any(i.op is Op.RELEASE for i in annotated.instructions)
    stripped = strip_annotations(annotated)
    cpu = FunctionalCPU(stripped)
    cpu.run()
    assert cpu.output == str(sum(range(1, 13)))


def test_migration_to_new_generation(annotated, expected):
    # Old generation: loop-iteration tasks. New generation: strip, then
    # re-partition with every natural loop as a task.
    stripped = strip_annotations(annotated)
    new_generation = annotate_program(stripped, knobs=ALL_LOOPS)
    assert new_generation.is_multiscalar()
    result = MultiscalarProcessor(new_generation,
                                  multiscalar_config(4)).run()
    assert result.output == expected


def test_round_trip_annotation_is_stable(annotated, expected):
    # strip(annotate(strip(annotate(p)))) keeps executing correctly.
    once = strip_annotations(annotated)
    twice = strip_annotations(
        annotate_program(once, knobs=ALL_LOOPS))
    cpu = FunctionalCPU(twice)
    cpu.run()
    assert cpu.output == expected
    assert len(twice.instructions) == len(once.instructions)

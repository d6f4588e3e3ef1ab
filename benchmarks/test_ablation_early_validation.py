"""Ablation for Section 3.1.2: early validation of prediction.

"If an iteration consists of hundreds of instructions, the time taken
to determine that no more iterations should be executed may represent
many hundreds of cycles of non-useful computation. ... [an option]
directed specifically at loop iterations ... is to change the structure
of the (compiled) loop so that the test for loop exit occurs at the
beginning of the loop."

We compare a loop whose exit test executes at the END of a long task
body against the same loop restructured with the test at the BEGINNING
(the task's stop branch resolves early). The late-test version must
waste more cycles on non-useful (squashed) computation at the loop
exit.
"""

from repro.engine.job import SimJob
from repro.harness.runner import run_jobs

BODY = "\n".join("""
        mult $t2, $t0, $t3
        div $t4, $t2, $t5
        add $s0, $s0, $t4
""" for _ in range(6))

LATE_TEST = f"""
        .task loop targets=loop,done
main:   li $s0, 0
        li $t3, 3
        li $t5, 7
        li $t0, 0
loop:   move $t6, $t0
        addi $t0, $t0, 1
{BODY}
        blt $t0, 24, loop       # exit test at the END of the task
done:   li $v0, 1
        move $a0, $s0
        syscall
        halt
"""

EARLY_TEST = f"""
        .task loop targets=body,done
        .task body targets=loop
main:   li $s0, 0
        li $t3, 3
        li $t5, 7
        li $t0, 0
loop:   bge $t0, 24, done       # exit test at the BEGINNING
body:   move $t6, $t0
        addi $t0, $t0, 1
{BODY}
        j loop
done:   li $v0, 1
        move $a0, $s0
        syscall
        halt
"""


#: What both loops print: 24 iterations of BODY's six ``3*i / 7`` terms.
EXPECTED = str(sum(6 * (3 * i // 7) for i in range(1, 25)))


def build():
    results = run_jobs([
        SimJob(kind="multiscalar", source=source, language="asm", units=8)
        for source in (LATE_TEST, EARLY_TEST)])
    # Inline programs carry no expected output: check it here.
    assert [result.output for result in results] == [EXPECTED, EXPECTED]
    return results


def test_early_validation(once):
    late, early = once(build)
    late_waste = late.distribution.non_useful
    early_waste = early.distribution.non_useful
    print(f"\nlate exit test : {late.cycles} cycles, "
          f"{late_waste} non-useful unit-cycles")
    print(f"early exit test: {early.cycles} cycles, "
          f"{early_waste} non-useful unit-cycles")
    # Early validation recognizes the final iteration sooner and wastes
    # fewer cycles executing iterations that will be squashed.
    assert early_waste < late_waste

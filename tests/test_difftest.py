"""Tests for the differential verification subsystem (repro.difftest).

Covers the generators (determinism, validity), the multi-backend
oracle, the delta-debugging shrinker, the fuzz campaign + CLI, the
fault-injection seam used to prove the oracle catches real semantics
bugs, and regressions for the two bugs fuzzing found in this
repository.
"""

from dataclasses import replace

import pytest

from repro.compiler import annotate_program
from repro.config import multiscalar_config, scalar_config
from repro.core import MultiscalarProcessor, ScalarProcessor
from repro.difftest import (
    AsmProgramGenerator,
    FuzzCampaign,
    MinicProgramGenerator,
    check_program,
    generator_for,
    inject_opcode_bug,
    shrink,
)
from repro.difftest.generator import GeneratedProgram
from repro.difftest.oracle import ProgramInvalid, _lifecycle_failures
from repro.isa import FunctionalCPU, assemble
from repro.isa.opcodes import Op
from repro.observability import Category, EventBus, TraceEvent
from repro.resilience.failures import SimulationFailure
from repro import cli

SMALL_GRID = (
    {"kind": "scalar"},
    {"kind": "scalar", "issue_width": 2, "out_of_order": True},
    {"kind": "multiscalar", "units": 4},
    {"kind": "multiscalar", "units": 8, "issue_width": 2,
     "out_of_order": True},
)


# ----------------------------------------------------------- generators

@pytest.mark.parametrize("language", ["asm", "minic"])
def test_generator_is_deterministic(language):
    first = generator_for(language).generate(42)
    second = generator_for(language).generate(42)
    assert first.source() == second.source()
    assert first.source() != generator_for(language).generate(43).source()


def test_generated_programs_pass_the_oracle():
    for language in ("asm", "minic"):
        for seed in range(4):
            program = generator_for(language).generate(seed)
            report = check_program(program, grid=SMALL_GRID)
            assert report.ok, report.render()


def test_asm_mid_task_split_annotates():
    # Seeds whose bodies carry a mid-loop split label exercise
    # annotation of task entries that are not branch targets.
    split = None
    for seed in range(40):
        program = AsmProgramGenerator().generate(seed)
        if len(program.task_entries()) > 1:
            split = program
            break
    assert split is not None
    report = check_program(split, grid=SMALL_GRID)
    assert report.ok, report.render()


def test_minic_generator_reaches_the_parallel_loop():
    source = MinicProgramGenerator().generate(5).source()
    assert "parallel while" in source


# -------------------------------------------------------------- shrinker

def _toy_program():
    # Chunks are plain markers; no simulator involved.
    return GeneratedProgram(
        language="asm", seed=0, iterations=12,
        prelude=("p",), postlude=("q",),
        body=tuple(f"chunk{i}" for i in range(8)))


def test_shrink_keeps_only_what_the_predicate_needs():
    result = shrink(_toy_program(),
                    lambda p: "chunk5" in p.body and p.iterations >= 3)
    assert result.program.body == ("chunk5",)
    assert result.program.iterations == 3
    assert result.removed_chunks == 7
    assert result.removed_iterations == 9
    assert result.checks > 0


def test_shrink_treats_predicate_exceptions_as_uninteresting():
    def fussy(program):
        if len(program.body) < 4:
            raise RuntimeError("candidate does not even compile")
        return "chunk2" in program.body

    result = shrink(_toy_program(), fussy)
    assert "chunk2" in result.program.body
    assert len(result.program.body) >= 4


def test_shrink_respects_check_budget():
    calls = []

    def pred(program):
        calls.append(1)
        return "chunk0" in program.body

    result = shrink(_toy_program(), pred, max_checks=5)
    assert result.checks <= 5
    assert "chunk0" in result.program.body   # never shrinks away the bug


# ---------------------------------------------------- machine invariants

def _task_events(*steps):
    """A planted ``task`` stream: (name, seq) or (name, seq, extra args)."""
    events = []
    for cycle, (name, seq, *extra) in enumerate(steps):
        args = {"seq": seq, **(extra[0] if extra else {})}
        events.append(TraceEvent(cycle, int(Category.TASK), name, 0, args))
    return events


@pytest.mark.parametrize("steps, senders, message", [
    ((("assign", 1), ("assign", 2), ("retire", 1)), (),
     "task accounting leak: lost=[2] phantom=[]"),
    ((("assign", 1), ("retire", 1), ("squash", 5)), (),
     "task accounting leak: lost=[] phantom=[5]"),
    ((("assign", 1), ("retire", 1), ("retire", 1)), (),
     "a task retired more than once"),
    ((("assign", 1), ("assign", 2), ("retire", 2), ("retire", 1)), (),
     "tasks retired out of sequence order: [2, 1]"),
    ((("assign", 1), ("assign", 2), ("retire", 1), ("squash", 1),
      ("retire", 2)), (),
     "tasks both retired and squashed: [1]"),
    ((("assign", 1), ("stop", 1), ("retire", 1, {"unforwarded": [8, 9]})),
     (), "task seq 1 retired without forwarding create-mask registers "
         "[8, 9]"),
    ((("assign", 1), ("retire", 1)), (1, 7),
     "ring carries messages from never-assigned tasks: [7]"),
], ids=("lost", "phantom", "retired-twice", "out-of-order",
        "retired-and-squashed", "unforwarded", "ring-ghost"))
def test_lifecycle_fold_reports_each_broken_invariant(steps, senders,
                                                      message):
    assert _lifecycle_failures(_task_events(*steps), senders) == [message]


def test_lifecycle_fold_passes_a_clean_stream():
    events = _task_events(("assign", 1), ("assign", 2), ("assign", 3),
                          ("stop", 1, {"next": 0x400}), ("retire", 1),
                          ("squash", 3), ("stop", 2, {"next": 0x400}),
                          ("retire", 2))
    assert _lifecycle_failures(events, (1, 2)) == []


def test_retire_event_names_unforwarded_registers_only_on_a_bug():
    # A healthy run never puts "unforwarded" on a retire; a task that
    # stops while owing a create-mask register gets it named there.
    program = annotate_program(assemble(
        "main: li $t0, 1\n"
        "loop: addi $t0, $t0, 1\n"
        "      blt $t0, 6, loop\n"
        "      halt\n"), task_entries=["loop"])
    processor = MultiscalarProcessor(program, multiscalar_config(2))
    bus = EventBus(Category.TASK).attach(processor)
    processor.run()
    retires = [event.args for event in bus if event.name == "retire"]
    assert retires and all("unforwarded" not in args for args in retires)

    # Plant the bug: a machine whose ring never forwards. The first task
    # retires owing its create mask; its successors then starve.
    processor = MultiscalarProcessor(program, multiscalar_config(2))
    bus = EventBus(Category.TASK).attach(processor)
    processor.forward_value = lambda task, reg, value: None
    with pytest.raises(SimulationFailure):
        processor.run(max_cycles=2_000)
    first = next(event for event in bus if event.name == "retire")
    assert first.args["unforwarded"]
    assert any(failure.startswith(f"task seq {first.args['seq']} retired "
                                  "without forwarding create-mask "
                                  "registers [")
               for failure in _lifecycle_failures(bus))


# ------------------------------------------ fault injection / acceptance

def test_injected_bug_is_caught_and_shrunk_small():
    # Acceptance criterion: a planted one-opcode semantics bug in the
    # multiscalar backend must be caught by the campaign and shrunk to
    # a reproducer of at most 15 instructions.
    campaign = FuzzCampaign(seed=11, budget=60, languages=("asm",))
    with inject_opcode_bug(Op.XOR):
        result = campaign.run()
    assert not result.ok
    assert result.shrunk is not None
    assert result.shrunk.program.body_size() <= 15
    # The reproducer still carries the buggy opcode.
    assert any("xor" in chunk for chunk in result.shrunk.program.body)


def test_injection_scopes_to_the_chosen_backend():
    program = assemble("""
main:   li $t0, 51
        li $t1, 85
        xor $a0, $t0, $t1
        li $v0, 1
        syscall
        halt
""")
    with inject_opcode_bug(Op.XOR, backends={"multiscalar"}):
        cpu = FunctionalCPU(program)
        cpu.run()
    assert cpu.output == str(51 ^ 85)   # reference unaffected


def test_injection_restores_semantics_on_exit():
    from repro.isa import semantics
    before = semantics.evaluate_alu
    with inject_opcode_bug(Op.ADD):
        assert semantics.evaluate_alu is not before
    assert semantics.evaluate_alu is before


# ------------------------------------------------------------------ CLI

def test_fuzz_cli_clean_run_exits_zero(capsys):
    assert cli.main(["fuzz", "--seed", "5", "--budget", "4"]) == 0
    out = capsys.readouterr().out
    assert "no divergences" in out


def test_fuzz_cli_self_test_catches_planted_bug(capsys):
    assert cli.main(["fuzz", "--seed", "3", "--budget", "40",
                     "--self-test", "xor"]) == 0
    out = capsys.readouterr().out
    assert "DIVERGENCE" in out
    assert "reproducer" in out


@pytest.mark.parametrize("jobs", [1, 2], ids=("jobs1", "jobs2"))
def test_fuzz_failed_check_is_one_error_line(jobs, monkeypatch, capsys):
    # A checker that raises is an error on every transport, never a
    # skipped program that still ends in "no divergences".
    from repro.difftest.campaign import SEED_STRIDE
    from repro.difftest.oracle import check_program as real_check

    def planted(program, grid, **kwargs):
        if program.seed == 5 * SEED_STRIDE + 2:
            raise ValueError("planted checker failure")
        return real_check(program, grid=grid, **kwargs)

    monkeypatch.setattr("repro.difftest.campaign.check_program", planted)
    assert cli.main(["fuzz", "--seed", "5", "--budget", "4",
                     "--jobs", str(jobs)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if line.startswith("repro fuzz: error: ")]
    assert errors == [
        f"repro fuzz: error: program 2 (seed {5 * SEED_STRIDE + 2}) could "
        "not be checked: ValueError: planted checker failure"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("seed, bug", [(5, None), (10, Op.XOR)],
                         ids=("clean", "xor-self-test"))
def test_campaign_transports_agree(seed, bug):
    # One wave scan, two pool shapes: the serial pool and a forked one
    # report the same programs, the same divergence and the same shrunk
    # reproducer (seed 10 diverges on program 8, past the first wave).
    def render(jobs):
        campaign = FuzzCampaign(seed=seed, budget=10, max_cycles=200_000,
                                jobs=jobs)
        if bug is None:
            return campaign.run().render()
        with inject_opcode_bug(bug):
            result = campaign.run()
        assert result.shrunk is not None
        return result.render()

    assert render(2) == render(1)


# ------------------------------------------------- regressions from fuzz

def test_no_commits_after_exit_syscall():
    # Found by fuzzing: wide/out-of-order pipelines kept committing
    # instructions that followed an exit syscall — instructions the
    # program architecturally never executes.
    source = """
        .data
poison: .word 0
        .text
main:   li $a0, 7
        li $v0, 1
        syscall
        li $v0, 10
        syscall             # exit: nothing below may commit
        li $t0, 99
        sw $t0, poison
        halt
"""
    program = assemble(source)
    reference = FunctionalCPU(program)
    reference.run()
    for width, ooo in ((1, False), (2, False), (2, True)):
        processor = ScalarProcessor(program, scalar_config(width, ooo))
        result = processor.run()
        assert result.output == "7"
        addr = program.labels["poison"]
        assert processor.memory.read_word(addr) == 0, (width, ooo)
        assert result.instructions == reference.instruction_count, \
            (width, ooo)


def test_annotate_prunes_release_of_later_written_register():
    # Found by fuzzing: a release asserts "final value", so releasing a
    # register the task later redefines let the successor task consume
    # a stale value. The annotator must prune such release operands.
    source = """
        .data
glob:   .word 0
        .text
main:   li $t0, -48
        li $t1, 37
        li $t9, 0
loop:
        addi $t9, $t9, 1
        release $t0, $t1
        slt $s3, $t0, $t1
        xori $t1, $t1, 31159
        blt $t9, 6, loop
done:
        move $a0, $s3
        li $v0, 1
        syscall
        move $a0, $t1
        li $v0, 1
        syscall
        halt
"""
    program = annotate_program(assemble(source), task_entries=["loop"])
    releases = [i for i in program.instructions if i.op is Op.RELEASE]
    t1 = 9   # $t1's register number
    assert releases, "the hand-written release must survive annotation"
    assert all(t1 not in r.regs for r in releases if r.addr <
               program.labels["done"]), \
        "release of the later-redefined $t1 was not pruned"

    reference = FunctionalCPU(program)
    reference.run()
    for units in (2, 4, 8):
        result = MultiscalarProcessor(
            program, multiscalar_config(units, 2, True)).run()
        assert result.output == reference.output, units


def test_oracle_rejects_uncompilable_programs():
    program = GeneratedProgram(
        language="asm", seed=0, iterations=2,
        prelude=("        .text", "main:"),
        body=("        bogus $t0, $t1",),
        postlude=("        halt",))
    with pytest.raises(ProgramInvalid):
        check_program(program, grid=SMALL_GRID)

"""Functional (architectural) execution of programs.

:class:`FunctionalCPU` executes a program one instruction at a time with
no timing model. It defines the reference semantics: every timing
simulator in this repository (the scalar pipeline and the multiscalar
processor) must finish with the same final register file, memory image,
and program output. It is also used to measure the dynamic instruction
counts reported in Table 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import semantics
from repro.isa.instruction import Instruction
from repro.isa.memory_image import SparseMemory, u32
from repro.isa.opcodes import Kind, Op
from repro.isa.program import Program, STACK_TOP
from repro.isa.registers import (
    FP_REG_BASE,
    FPCOND_REG,
    NUM_UNIFIED_REGS,
    RA,
    SP,
    V0,
    A0,
)

#: Syscall numbers (in $v0), loosely following the SPIM conventions.
SYS_PRINT_INT = 1
SYS_PRINT_STRING = 4
SYS_PRINT_CHAR = 11
SYS_PRINT_DOUBLE = 3
SYS_EXIT = 10


class ExecutionError(Exception):
    """Raised on architectural errors (bad PC, runaway execution)."""


@dataclass
class MachineState:
    """Complete architectural state of the machine."""

    memory: SparseMemory
    pc: int = 0
    regs: list = field(default_factory=lambda: _fresh_regs())
    halted: bool = False
    output: list[str] = field(default_factory=list)

    def read_reg(self, reg: int):
        return self.regs[reg]

    def write_reg(self, reg: int, value) -> None:
        if reg != 0:
            self.regs[reg] = value

    def output_text(self) -> str:
        return "".join(self.output)


def _fresh_regs() -> list:
    regs: list = [0] * NUM_UNIFIED_REGS
    for i in range(FP_REG_BASE, FP_REG_BASE + 32):
        regs[i] = 0.0
    regs[SP] = STACK_TOP
    return regs


def service_syscall(regs, output: list[str], read_cstring) -> bool:
    """Perform the system call ``$v0`` selects; True means exit.

    The one decode every machine shares. ``regs`` is the register file
    the call commits against and ``read_cstring(addr)`` is how that
    machine reads a string: plain memory on the functional and scalar
    cores, through the ARB on the multiscalar core (so the head task
    sees its own pending stores).
    """
    code = regs[V0]
    arg = regs[A0]
    if code == SYS_PRINT_INT:
        output.append(str(arg - 0x100000000
                          if arg >= 0x80000000 else arg))
    elif code == SYS_PRINT_STRING:
        output.append(read_cstring(u32(arg)))
    elif code == SYS_PRINT_CHAR:
        output.append(chr(arg & 0xFF))
    elif code == SYS_PRINT_DOUBLE:
        output.append(repr(regs[FP_REG_BASE + 12]))
    elif code == SYS_EXIT:
        return True
    else:
        raise ExecutionError(f"unknown syscall {code}")
    return False


def next_pc(instr: Instruction, state_read, pc: int) -> int:
    """Architectural next-PC of an instruction.

    ``state_read`` maps unified register index -> value for the
    instruction's sources. Shared with the timing models so control flow
    resolves identically everywhere.
    """
    kind = instr.kind
    if kind is Kind.BRANCH:
        return instr.target if semantics.branch_taken(instr, state_read) \
            else pc + 4
    if kind is Kind.JUMP:
        return instr.target
    if kind is Kind.CALL:
        if instr.op is Op.JAL:
            return instr.target
        return u32(state_read[instr.rs])  # jalr
    if kind is Kind.JUMP_REG:
        return u32(state_read[instr.rs])
    return pc + 4


class FunctionalCPU:
    """Single-stepping architectural simulator.

    Parameters
    ----------
    program:
        The program image to run. The data image is copied, so a CPU
        never mutates the program.
    trace:
        When true, keeps a list of executed (pc, instruction) pairs in
        :attr:`trace_log` (expensive; tests only).
    """

    def __init__(self, program: Program, trace: bool = False) -> None:
        self.program = program
        self.state = MachineState(memory=program.initial_memory(),
                                  pc=program.entry)
        self.instruction_count = 0
        self.trace = trace
        self.trace_log: list[tuple[int, Instruction]] = []

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction."""
        state = self.state
        if state.halted:
            return
        instr = self.program.instr_at(state.pc)
        if instr is None:
            raise ExecutionError(f"PC outside text segment: {state.pc:#x}")
        if self.trace:
            self.trace_log.append((state.pc, instr))
        self.instruction_count += 1
        srcs = {r: state.regs[r] for r in instr.src_regs()}
        kind = instr.kind
        new_pc = state.pc + 4
        if kind is Kind.ALU:
            if instr.op is not Op.NOP:
                dsts = instr.dst_regs()
                if dsts:
                    value = semantics.evaluate_alu(instr, srcs)
                    state.write_reg(dsts[0], value)
        elif kind is Kind.LOAD:
            addr = semantics.effective_addr(instr, srcs)
            value = semantics.do_load(instr.op, state.memory, addr)
            state.write_reg(instr.dst_regs()[0], value)
        elif kind is Kind.STORE:
            addr = semantics.effective_addr(instr, srcs)
            value = state.regs[instr.ft if instr.ft is not None else instr.rt]
            semantics.do_store(instr.op, state.memory, addr, value)
        elif kind in (Kind.BRANCH, Kind.JUMP, Kind.CALL, Kind.JUMP_REG):
            new_pc = next_pc(instr, srcs, state.pc)
            if kind is Kind.CALL:
                state.write_reg(RA, u32(state.pc + 4))
        elif kind is Kind.SYSCALL:
            self._syscall()
        elif kind is Kind.HALT:
            state.halted = True
        elif kind is Kind.RELEASE:
            pass  # architecturally a no-op; meaningful only to the ring
        else:  # pragma: no cover - exhaustive over Kind
            raise ExecutionError(f"unhandled kind {kind}")
        state.pc = new_pc

    def _syscall(self) -> None:
        state = self.state
        if service_syscall(state.regs, state.output,
                           state.memory.read_cstring):
            state.halted = True

    # ------------------------------------------------------------------

    def run(self, max_instructions: int = 50_000_000) -> MachineState:
        """Run to completion (HALT or exit syscall).

        Raises :class:`ExecutionError` if the instruction budget is
        exceeded, which almost always indicates an infinite loop in the
        program under test.
        """
        state = self.state
        while not state.halted:
            self.step()
            if self.instruction_count > max_instructions:
                raise ExecutionError(
                    f"exceeded {max_instructions} instructions at "
                    f"pc={state.pc:#x} (infinite loop?)")
        return state

    # Convenience accessors used heavily by tests -----------------------

    def reg(self, index: int):
        return self.state.regs[index]

    @property
    def output(self) -> str:
        return self.state.output_text()


def run_program(program: Program,
                max_instructions: int = 50_000_000) -> FunctionalCPU:
    """Assemble-and-go helper: run a program functionally to completion."""
    cpu = FunctionalCPU(program)
    cpu.run(max_instructions)
    return cpu


# Re-export for annotate/liveness passes that need fpcond's index.
__all__ = [
    "ExecutionError",
    "FunctionalCPU",
    "MachineState",
    "FPCOND_REG",
    "next_pc",
    "run_program",
    "service_syscall",
]

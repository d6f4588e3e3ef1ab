"""Instruction-set substrate for the multiscalar reproduction.

This package defines a MIPS-like RISC instruction set (32 integer + 32
floating-point registers), an assembler that turns assembly text into
:class:`~repro.isa.program.Program` objects, and a functional executor
that defines the architectural semantics every timing model must match.

The ISA carries the multiscalar annotations described in Section 2.2 of
the paper: per-instruction *forward* and *stop* bits, an explicit
``release`` instruction, and per-task descriptors (successor targets and
create masks).
"""

from repro._lazy import lazy_exports

__all__ = [
    "AssemblerError",
    "ExecutionError",
    "FP_REG_BASE",
    "FPCOND_REG",
    "FUClass",
    "FunctionalCPU",
    "Instruction",
    "Kind",
    "MachineState",
    "NUM_INT_REGS",
    "Op",
    "OPSPECS",
    "Program",
    "REG_NAMES",
    "SparseMemory",
    "StopKind",
    "TargetKind",
    "TaskDescriptor",
    "TaskTarget",
    "assemble",
    "fp_reg",
    "is_fp_reg",
    "reg_name",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "registers": (
        "FP_REG_BASE", "FPCOND_REG", "NUM_INT_REGS", "REG_NAMES", "fp_reg",
        "is_fp_reg", "reg_name",
    ),
    "opcodes": ("FUClass", "Kind", "Op", "OPSPECS", "StopKind"),
    "instruction": ("Instruction",),
    "program": ("Program", "TaskDescriptor", "TargetKind", "TaskTarget"),
    "assembler": ("AssemblerError", "assemble"),
    "executor": ("ExecutionError", "FunctionalCPU", "MachineState"),
    "memory_image": ("SparseMemory",),
})

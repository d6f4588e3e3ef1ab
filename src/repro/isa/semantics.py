"""Architectural semantics shared by every simulator.

The functional executor, the scalar pipeline, and the multiscalar
processing units all call into these pure functions so that a given
instruction computes the same result everywhere. Values are passed in a
``srcs`` mapping from unified register index to value (ints are unsigned
32-bit Python ints; FP registers hold Python floats).

Speculative execution requirement: no input may crash the simulator.
Division by zero and float-to-int conversion of non-finite values are
given fixed, deterministic results rather than raising, because a
squashed-later task may execute them with garbage operands.
"""

from __future__ import annotations

import struct

from repro.isa.instruction import Instruction
from repro.isa.memory_image import MASK32, SparseMemory, s32, u32
from repro.isa.opcodes import Op
from repro.isa.registers import FPCOND_REG


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = s32(a), s32(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return u32(q)


def _srem(a: int, b: int) -> int:
    if b == 0:
        return a
    sa, sb = s32(a), s32(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return u32(r)


def _sra(a: int, sh: int) -> int:
    return u32(s32(a) >> (sh & 31))


#: Integer register-register ALU ops: f(rs_value, rt_value) -> result.
#: (The commonest wrap with ``& MASK32`` in line: every timing core
#: evaluates one of these per issued ALU instruction, and ``u32`` is a
#: call.)
_INT_R3 = {
    Op.ADD: lambda a, b: (a + b) & MASK32,
    Op.ADDU: lambda a, b: (a + b) & MASK32,
    Op.SUB: lambda a, b: (a - b) & MASK32,
    Op.SUBU: lambda a, b: (a - b) & MASK32,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.NOR: lambda a, b: u32(~(a | b)),
    Op.SLT: lambda a, b: int(s32(a) < s32(b)),
    Op.SLTU: lambda a, b: int(a < b),
    Op.SLLV: lambda a, b: (a << (b & 31)) & MASK32,
    Op.SRLV: lambda a, b: a >> (b & 31),
    Op.SRAV: lambda a, b: _sra(a, b),
    Op.MULT: lambda a, b: u32(s32(a) * s32(b)),
    Op.MULTU: lambda a, b: u32(a * b),
    Op.DIV: _sdiv,
    Op.DIVU: lambda a, b: (a // b) if b else 0,
    Op.REM: _srem,
    Op.REMU: lambda a, b: (a % b) if b else a,
}

#: Integer register-immediate ALU ops: f(rs_value, imm) -> result.
_INT_R2I = {
    Op.ADDI: lambda a, i: (a + i) & MASK32,
    Op.ADDIU: lambda a, i: (a + i) & MASK32,
    Op.ANDI: lambda a, i: a & u32(i),
    Op.ORI: lambda a, i: a | u32(i),
    Op.XORI: lambda a, i: a ^ u32(i),
    Op.SLTI: lambda a, i: int(s32(a) < i),
    Op.SLTIU: lambda a, i: int(a < u32(i)),
    Op.SLL: lambda a, i: (a << (i & 31)) & MASK32,
    Op.SRL: lambda a, i: a >> (i & 31),
    Op.SRA: _sra,
}

#: Floating-point three-operand ops: f(fs_value, ft_value) -> result.
_FP3 = {
    Op.ADD_S: lambda a, b: a + b,
    Op.SUB_S: lambda a, b: a - b,
    Op.MUL_S: lambda a, b: a * b,
    Op.DIV_S: lambda a, b: (a / b) if b != 0.0 else 0.0,
    Op.ADD_D: lambda a, b: a + b,
    Op.SUB_D: lambda a, b: a - b,
    Op.MUL_D: lambda a, b: a * b,
    Op.DIV_D: lambda a, b: (a / b) if b != 0.0 else 0.0,
}

_FP2 = {
    Op.ABS_S: abs,
    Op.ABS_D: abs,
    Op.NEG_S: lambda a: -a,
    Op.NEG_D: lambda a: -a,
    Op.MOV_S: lambda a: a,
    Op.MOV_D: lambda a: a,
}

_FCMP = {
    Op.C_EQ_D: lambda a, b: a == b,
    Op.C_LT_D: lambda a, b: a < b,
    Op.C_LE_D: lambda a, b: a <= b,
    Op.C_EQ_S: lambda a, b: a == b,
    Op.C_LT_S: lambda a, b: a < b,
    Op.C_LE_S: lambda a, b: a <= b,
}

_BR2 = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: s32(a) < s32(b),
    Op.BGE: lambda a, b: s32(a) >= s32(b),
    Op.BLE: lambda a, b: s32(a) <= s32(b),
    Op.BGT: lambda a, b: s32(a) > s32(b),
    Op.BLTU: lambda a, b: a < b,
    Op.BGEU: lambda a, b: a >= b,
}

_BR1 = {
    Op.BLEZ: lambda a: s32(a) <= 0,
    Op.BGTZ: lambda a: s32(a) > 0,
    Op.BLTZ: lambda a: s32(a) < 0,
    Op.BGEZ: lambda a: s32(a) >= 0,
}


def _to_int(value: float) -> int:
    """Truncate a float to a 32-bit int; non-finite values become 0."""
    try:
        return u32(int(value))
    except (OverflowError, ValueError):
        return 0


# ---------------------------------------------------------------- tables
#
# Per-opcode dispatch tables: each maps Op -> f(instr, srcs) -> value.
# Built once at import from the operand-class tables above, they replace
# the if/elif chains that used to probe each class in turn on every
# evaluation. The pre-decode layer (repro.isa.uop) goes one step
# further and binds the operand-class function plus the operand indices
# into a closure per static instruction.

def _r3_entry(fn):
    return lambda instr, srcs: fn(srcs[instr.rs], srcs[instr.rt])


def _r2i_entry(fn):
    return lambda instr, srcs: fn(srcs[instr.rs], instr.imm)


def _fp3_entry(fn):
    return lambda instr, srcs: fn(srcs[instr.fs], srcs[instr.ft])


def _fp2_entry(fn):
    return lambda instr, srcs: fn(srcs[instr.fs])


def _fcmp_entry(fn):
    return lambda instr, srcs: int(fn(srcs[instr.fs], srcs[instr.ft]))


ALU_EVAL: dict[Op, object] = {}
for _op, _fn in _INT_R3.items():
    ALU_EVAL[_op] = _r3_entry(_fn)
for _op, _fn in _INT_R2I.items():
    ALU_EVAL[_op] = _r2i_entry(_fn)
for _op, _fn in _FP3.items():
    ALU_EVAL[_op] = _fp3_entry(_fn)
for _op, _fn in _FP2.items():
    ALU_EVAL[_op] = _fp2_entry(_fn)
for _op, _fn in _FCMP.items():
    ALU_EVAL[_op] = _fcmp_entry(_fn)
ALU_EVAL[Op.LUI] = lambda instr, srcs: u32(instr.imm << 16)
ALU_EVAL[Op.LI] = lambda instr, srcs: u32(instr.imm)
ALU_EVAL[Op.LA] = lambda instr, srcs: u32(
    instr.target if instr.target is not None else instr.imm)
ALU_EVAL[Op.MOVE] = lambda instr, srcs: srcs[instr.rs]
ALU_EVAL[Op.NOT] = lambda instr, srcs: u32(~srcs[instr.rs])
ALU_EVAL[Op.NEG] = lambda instr, srcs: u32(-s32(srcs[instr.rs]))
ALU_EVAL[Op.CVT_D_W] = lambda instr, srcs: float(s32(srcs[instr.rs]))
ALU_EVAL[Op.CVT_W_D] = lambda instr, srcs: _to_int(srcs[instr.fs])
del _op, _fn


def _br2_entry(fn):
    return lambda instr, srcs: fn(srcs[instr.rs], srcs[instr.rt])


def _br1_entry(fn):
    return lambda instr, srcs: fn(srcs[instr.rs])


BRANCH_EVAL: dict[Op, object] = {}
for _op, _fn in _BR2.items():
    BRANCH_EVAL[_op] = _br2_entry(_fn)
for _op, _fn in _BR1.items():
    BRANCH_EVAL[_op] = _br1_entry(_fn)
BRANCH_EVAL[Op.BC1T] = lambda instr, srcs: bool(srcs[FPCOND_REG])
BRANCH_EVAL[Op.BC1F] = lambda instr, srcs: not srcs[FPCOND_REG]
del _op, _fn


def evaluate_alu(instr: Instruction, srcs: dict[int, object]) -> object:
    """Compute the single result value of a non-memory, non-control op.

    ``srcs`` maps unified register index -> current value. Returns the
    value to be written to the (single) destination register. Raises
    KeyError for opcodes with no ALU result.
    """
    fn = ALU_EVAL.get(instr.op)
    if fn is None:
        raise KeyError(f"{instr.op.value} has no ALU result")
    return fn(instr, srcs)


#: The un-patched evaluator. Fault injection (repro.difftest.injection)
#: swaps the module attribute ``evaluate_alu``; the pipelines compare
#: against this reference to decide whether their pre-decoded closures
#: (which would bypass the patch) are safe to use.
_GENUINE_EVALUATE_ALU = evaluate_alu


def branch_taken(instr: Instruction, srcs: dict[int, object]) -> bool:
    """Evaluate a conditional branch's outcome."""
    fn = BRANCH_EVAL.get(instr.op)
    if fn is None:
        raise KeyError(f"{instr.op.value} is not a conditional branch")
    return fn(instr, srcs)


def effective_addr(instr: Instruction, srcs: dict[int, object]) -> int:
    """Effective address of a load or store."""
    return u32(srcs[instr.rs] + instr.imm)


_WIDTH = {Op.LB: 1, Op.LBU: 1, Op.SB: 1, Op.L_D: 8, Op.S_D: 8}


def load_width(op: Op) -> int:
    """Access width in bytes of a memory opcode."""
    return _WIDTH.get(op, 4)


_DO_LOAD = {
    Op.LW: SparseMemory.read_word,
    Op.LB: lambda mem, addr: u32(s32((mem.read_byte(addr) ^ 0x80) - 0x80)),
    Op.LBU: SparseMemory.read_byte,
    Op.L_S: SparseMemory.read_float,
    Op.L_D: SparseMemory.read_double,
}


def do_load(op: Op, mem: SparseMemory, addr: int) -> object:
    """Perform a load against a memory image and return the value."""
    fn = _DO_LOAD.get(op)
    if fn is None:
        raise KeyError(f"{op.value} is not a load")
    return fn(mem, addr)


_DO_STORE = {
    Op.SW: SparseMemory.write_word,
    Op.SB: SparseMemory.write_byte,
    Op.S_S: SparseMemory.write_float,
    Op.S_D: SparseMemory.write_double,
}


def do_store(op: Op, mem: SparseMemory, addr: int, value: object) -> None:
    """Perform a store against a memory image."""
    fn = _DO_STORE.get(op)
    if fn is None:
        raise KeyError(f"{op.value} is not a store")
    fn(mem, addr, value)


_STORE_BYTES = {
    Op.SW: lambda value: (value & MASK32).to_bytes(4, "little"),
    Op.SB: lambda value: bytes([value & 0xFF]),
    Op.S_S: lambda value: struct.pack("<f", value),
    Op.S_D: lambda value: struct.pack("<d", value),
}


def store_bytes(op: Op, value: object) -> bytes:
    """Encode a store value as raw bytes (used by the ARB)."""
    fn = _STORE_BYTES.get(op)
    if fn is None:
        raise KeyError(f"{op.value} is not a store")
    return fn(value)


_LOAD_FROM_BYTES = {
    Op.LW: lambda raw: int.from_bytes(raw, "little"),
    Op.LB: lambda raw: u32((raw[0] ^ 0x80) - 0x80),
    Op.LBU: lambda raw: raw[0],
    Op.L_S: lambda raw: struct.unpack("<f", raw)[0],
    Op.L_D: lambda raw: struct.unpack("<d", raw)[0],
}


def load_from_bytes(op: Op, raw: bytes) -> object:
    """Decode load result from raw bytes (used by the ARB)."""
    fn = _LOAD_FROM_BYTES.get(op)
    if fn is None:
        raise KeyError(f"{op.value} is not a load")
    return fn(raw)

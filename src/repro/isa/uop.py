"""Pre-decoded micro-ops: the static half of instruction execution.

Decoding an :class:`~repro.isa.instruction.Instruction` — resolving its
``OpSpec``, its source/destination register tuples, and which semantics
function applies — is pure static information, yet the pipelines used to
re-derive it on every fetch, dispatch, issue, and commit. A
:class:`MicroOp` performs that work exactly once per static instruction:
it is an interned, ``__slots__``-based record holding the resolved
opcode/kind/FU enums, the operand tuples, and *bound* semantics
callables (closures that capture the operand register indices and the
operand-class function, so issue evaluates ``fn(srcs)`` with no dict
probes of opcode tables and no dataclass attribute walks).

Two invariants keep micro-ops safe to cache:

* Mutable annotation bits (``forward``/``stop``/``regs``) are *not*
  copied into the record — consumers that need them read them through
  ``uop.instr``, so in-place annotation can never go stale. The intern
  key still includes them so two instructions only share a record when
  they are indistinguishable.
* The bound ALU closure snapshots the *operand-class* lambdas, never the
  patchable module-level ``semantics.evaluate_alu``; pipelines check
  ``semantics.evaluate_alu is semantics._GENUINE_EVALUATE_ALU`` before
  trusting the closures, so fault injection still works (it forces the
  generic path).
"""

from __future__ import annotations

from repro.isa import semantics
from repro.isa.instruction import Instruction
from repro.isa.memory_image import s32, u32
from repro.isa.opcodes import Kind, Op
from repro.isa.registers import FPCOND_REG


def _bind_alu(instr: Instruction):
    """Closure computing the ALU result from a gathered ``srcs`` dict."""
    op = instr.op
    fn = semantics._INT_R3.get(op)
    if fn is not None:
        a, b = instr.rs, instr.rt
        return lambda s, fn=fn, a=a, b=b: fn(s[a], s[b])
    fn = semantics._INT_R2I.get(op)
    if fn is not None:
        a, i = instr.rs, instr.imm
        return lambda s, fn=fn, a=a, i=i: fn(s[a], i)
    fn = semantics._FP3.get(op)
    if fn is not None:
        a, b = instr.fs, instr.ft
        return lambda s, fn=fn, a=a, b=b: fn(s[a], s[b])
    fn = semantics._FP2.get(op)
    if fn is not None:
        a = instr.fs
        return lambda s, fn=fn, a=a: fn(s[a])
    fn = semantics._FCMP.get(op)
    if fn is not None:
        a, b = instr.fs, instr.ft
        return lambda s, fn=fn, a=a, b=b: int(fn(s[a], s[b]))
    if op is Op.LUI:
        v = u32(instr.imm << 16)
        return lambda s, v=v: v
    if op is Op.LI:
        v = u32(instr.imm)
        return lambda s, v=v: v
    if op is Op.LA:
        v = u32(instr.target if instr.target is not None else instr.imm)
        return lambda s, v=v: v
    if op is Op.MOVE:
        a = instr.rs
        return lambda s, a=a: s[a]
    if op is Op.NOT:
        a = instr.rs
        return lambda s, a=a: u32(~s[a])
    if op is Op.NEG:
        a = instr.rs
        return lambda s, a=a: u32(-s32(s[a]))
    if op is Op.CVT_D_W:
        a = instr.rs
        return lambda s, a=a: float(s32(s[a]))
    if op is Op.CVT_W_D:
        a = instr.fs
        return lambda s, a=a: semantics._to_int(s[a])
    return None


def _bind_branch(instr: Instruction):
    """Closure computing a conditional branch outcome from ``srcs``."""
    op = instr.op
    fn = semantics._BR2.get(op)
    if fn is not None:
        a, b = instr.rs, instr.rt
        return lambda s, fn=fn, a=a, b=b: fn(s[a], s[b])
    fn = semantics._BR1.get(op)
    if fn is not None:
        a = instr.rs
        return lambda s, fn=fn, a=a: fn(s[a])
    if op is Op.BC1T:
        return lambda s: bool(s[FPCOND_REG])
    if op is Op.BC1F:
        return lambda s: not s[FPCOND_REG]
    return None


class MicroOp:
    """One statically decoded instruction, ready for the hot loop."""

    __slots__ = ("instr", "op", "kind", "fu", "latency_key", "srcs",
                 "dsts", "dst", "imm", "target", "alu", "branch",
                 "ea_base", "store_reg", "jr_reg", "ctl", "fui",
                 "deps", "plain")

    def __init__(self, instr: Instruction) -> None:
        spec = instr.spec
        kind = spec.kind
        self.instr = instr
        self.op = instr.op
        self.kind = kind
        self.ctl = (kind is Kind.BRANCH or kind is Kind.JUMP
                    or kind is Kind.CALL or kind is Kind.JUMP_REG)
        self.fu = spec.fu
        # Integer index for FUPool's value-indexed port table: plain
        # list indexing beats an Enum-keyed dict probe (Enum.__hash__ is
        # a Python-level function) on the issue hot path.
        self.fui = spec.fu.value
        self.latency_key = spec.latency
        self.srcs = instr.src_regs()
        # Registers issue waits on. A release does not wait for its
        # registers: the commit handler forwards the current local
        # value, and defers any register still awaiting a predecessor
        # (the ring re-forwards it on arrival). Blocking issue on them
        # would serialize tasks on values they merely pass through.
        self.deps = () if instr.op is Op.RELEASE else self.srcs
        # Commit is the register write and nothing else, tag bits
        # aside (those are mutable and read through ``instr``).
        self.plain = kind not in (Kind.STORE, Kind.SYSCALL, Kind.HALT,
                                  Kind.RELEASE)
        self.dsts = instr.dst_regs()
        self.dst = self.dsts[0] if self.dsts else None
        self.imm = instr.imm if instr.imm is not None else 0
        self.target = instr.target
        self.alu = None
        self.branch = None
        self.ea_base = None
        self.store_reg = None
        self.jr_reg = None
        if kind is Kind.ALU and self.dsts and instr.op is not Op.NOP:
            self.alu = _bind_alu(instr)
        elif kind is Kind.BRANCH:
            self.branch = _bind_branch(instr)
        elif kind is Kind.LOAD or kind is Kind.STORE:
            self.ea_base = instr.rs
            if kind is Kind.STORE:
                self.store_reg = (instr.ft if instr.ft is not None
                                  else instr.rt)
        if instr.op is Op.JALR or kind is Kind.JUMP_REG:
            self.jr_reg = instr.rs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MicroOp({self.instr!r})"


def trace_regions(uops: list[MicroOp]) -> list[tuple[int, int]]:
    """Maximal straight-line dispatch runs, as [start, end) word spans.

    A region is the unit the trace JIT compiles: the not-taken path the
    fetch/dispatch engine follows from a region entry until fetch is
    redirected at decode (jump/call) or stalled for an indirect target
    (jr/jalr). Conditional branches do *not* end a run — predict-not
    -taken keeps dispatching the fall-through path. Tag bits are
    ignored: the JIT serves the scalar core, which ignores them too.
    The spans partition the text; control may *enter* a region at any
    interior word (a branch target), in which case execution simply
    runs from there to the region end.
    """
    regions: list[tuple[int, int]] = []
    start = 0
    for w, uop in enumerate(uops):
        if uop.ctl and uop.kind is not Kind.BRANCH:
            regions.append((start, w + 1))
            start = w + 1
    if start < len(uops):
        regions.append((start, len(uops)))
    return regions


def basic_blocks(uops: list[MicroOp],
                 text_base: int) -> list[tuple[int, int]]:
    """Classic basic blocks, as [start, end) word spans.

    Finer than :func:`trace_regions`: every control transfer (including
    conditional branches) ends a block, and every static branch/jump
    target starts one. The JIT uses these only for per-block entry
    statistics; the compiled unit is the trace region.
    """
    n = len(uops)
    if n == 0:
        return []
    leaders = {0, n}
    for w, uop in enumerate(uops):
        if uop.ctl:
            leaders.add(w + 1)
            target = uop.target
            if target is not None:
                tw = (target - text_base) >> 2
                if 0 <= tw < n:
                    leaders.add(tw)
    ordered = sorted(leaders)
    return [(a, b) for a, b in zip(ordered, ordered[1:]) if b > a]


def _intern_key(instr: Instruction) -> tuple:
    # Everything a MicroOp's behaviour (or its consumers' reads through
    # ``uop.instr``) can depend on — including the mutable annotation
    # bits, so two instructions share a record only when identical.
    return (instr.op, instr.rd, instr.rs, instr.rt, instr.fd, instr.fs,
            instr.ft, instr.imm, instr.target, instr.regs, instr.forward,
            instr.stop)


def predecode(instructions: list[Instruction]) -> list[MicroOp]:
    """Decode a program's instruction list into interned micro-ops."""
    table: dict[tuple, MicroOp] = {}
    uops: list[MicroOp] = []
    for instr in instructions:
        key = _intern_key(instr)
        uop = table.get(key)
        if uop is None:
            uop = table[key] = MicroOp(instr)
        uops.append(uop)
    return uops

"""Control-flow graph construction and call-graph summaries.

The CFG treats calls as straight-line instructions (the suppressed-call
view): a ``jal`` edge goes to the instruction after the call, and the
callee's register effects are summarized separately. ``jr`` ends a
function body. Blocks are identified by the address of their first
instruction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind, Op
from repro.isa.program import Program
from repro.isa.registers import FP_REG_BASE, NUM_UNIFIED_REGS, RA, V0, A0


@dataclass
class BasicBlock:
    start: int
    instructions: list[Instruction]
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    @property
    def end_addr(self) -> int:
        return self.instructions[-1].addr

    @property
    def last(self) -> Instruction:
        return self.instructions[-1]


@dataclass
class FunctionSummary:
    """Conservative register effects of one callable function."""

    entry: int
    may_def: frozenset[int]
    may_use: frozenset[int]
    body: frozenset[int]   # block start addresses


ALL_REGS = frozenset(range(1, NUM_UNIFIED_REGS))

#: Registers the MinC ABI guarantees a callee saves and restores:
#: $s0..$s7, $t8, $t9 (the locals pool), $gp, $sp, $fp, and the even
#: FP locals $f20..$f30. A call therefore does not *define* them from
#: the caller's perspective, which keeps them out of create masks —
#: without this, $sp alone would serialize every call-containing task.
CALLEE_SAVED = frozenset(
    list(range(16, 26)) + [28, 29, 30]
    + [32 + n for n in range(20, 31, 2)])


class ControlFlowGraph:
    """Blocks, edges, and function summaries for one program."""

    def __init__(self, program: Program,
                 extra_leaders: Iterable[int] = ()) -> None:
        self.program = program
        self.extra_leaders = frozenset(extra_leaders)
        self.blocks: dict[int, BasicBlock] = {}
        self.call_targets: set[int] = set()
        self.summaries: dict[int, FunctionSummary] = {}
        self._build()
        self._summarize_functions()

    # ------------------------------------------------------------ build

    def _build(self) -> None:
        program = self.program
        instrs = program.instructions
        if not instrs:
            return
        leaders: set[int] = {program.entry, instrs[0].addr}
        for instr in instrs:
            kind = instr.kind
            if kind in (Kind.BRANCH, Kind.JUMP):
                if instr.target is not None:
                    leaders.add(instr.target)
                leaders.add(instr.addr + 4)
            elif kind is Kind.CALL:
                if instr.op is Op.JAL and instr.target is not None:
                    self.call_targets.add(instr.target)
                leaders.add(instr.addr + 4)
            elif kind in (Kind.JUMP_REG, Kind.HALT):
                leaders.add(instr.addr + 4)
        leaders |= self.call_targets
        leaders |= set(program.tasks)
        # Explicit task-entry labels may sit in the middle of
        # straight-line code; split blocks there too.
        leaders |= self.extra_leaders
        end = program.text_end
        ordered = sorted(addr for addr in leaders if addr < end)
        for i, start in enumerate(ordered):
            stop = ordered[i + 1] if i + 1 < len(ordered) else end
            block_instrs = [program.instr_at(a)
                            for a in range(start, stop, 4)]
            self.blocks[start] = BasicBlock(start, block_instrs)
        for block in self.blocks.values():
            self._link(block)

    def _link(self, block: BasicBlock) -> None:
        last = block.last
        kind = last.kind
        fallthrough = last.addr + 4
        succs: list[int] = []
        if kind is Kind.BRANCH:
            succs = [fallthrough, last.target]
        elif kind is Kind.JUMP:
            succs = [last.target]
        elif kind is Kind.CALL:
            succs = [fallthrough]  # suppressed-call view
        elif kind in (Kind.JUMP_REG, Kind.HALT):
            succs = []            # return / program end
        elif kind is Kind.SYSCALL:
            succs = [fallthrough]  # an exit syscall simply never returns
        else:
            succs = [fallthrough]
        for succ in succs:
            if succ in self.blocks:
                block.successors.append(succ)
                self.blocks[succ].predecessors.append(block.start)

    # ------------------------------------------------- function bodies

    def reachable_blocks(self, entry: int) -> set[int]:
        """Blocks reachable from ``entry`` under the suppressed-call view."""
        seen: set[int] = set()
        stack = [entry]
        while stack:
            addr = stack.pop()
            if addr in seen or addr not in self.blocks:
                continue
            seen.add(addr)
            stack.extend(self.blocks[addr].successors)
        return seen

    def _summarize_functions(self) -> None:
        bodies = {entry: frozenset(self.reachable_blocks(entry))
                  for entry in self.call_targets}
        own_defs = {entry: set() for entry in self.call_targets}
        calls: dict[int, set[int]] = {entry: set()
                                      for entry in self.call_targets}
        unknown_call: dict[int, bool] = {entry: False
                                         for entry in self.call_targets}
        for entry, body in bodies.items():
            for addr in body:
                for instr in self.blocks[addr].instructions:
                    own_defs[entry].update(instr.dst_regs())
                    if instr.kind is Kind.CALL:
                        own_defs[entry].add(RA)
                        if instr.op is Op.JAL:
                            calls[entry].add(instr.target)
                        else:
                            unknown_call[entry] = True
        # Phase 1: may-def closure over the call graph (monotone; handles
        # recursion).
        defs = {entry: set(own_defs[entry]) for entry in self.call_targets}
        changed = True
        while changed:
            changed = False
            for entry in self.call_targets:
                new = set(ALL_REGS) if unknown_call[entry] \
                    else set(defs[entry])
                if not unknown_call[entry]:
                    for callee in calls[entry]:
                        new |= defs.get(callee, ALL_REGS)
                if new != defs[entry]:
                    defs[entry] = new
                    changed = True
        # Phase 2: upward-exposed uses — the live-in set at the function
        # entry, computed with def sets frozen. This is what keeps reads
        # that follow local writes (e.g. $v0 produced then consumed in
        # the callee) out of caller-side create masks.
        from repro.compiler.liveness import LivenessAnalysis

        for entry in self.call_targets:
            self.summaries[entry] = FunctionSummary(
                entry=entry, may_def=frozenset(defs[entry]),
                may_use=ALL_REGS, body=bodies[entry])
        changed = True
        while changed:
            changed = False
            for entry in self.call_targets:
                if unknown_call[entry]:
                    new_uses = ALL_REGS
                else:
                    analysis = LivenessAnalysis(self, entry)
                    new_uses = frozenset(
                        analysis.live_at_block_entry(entry))
                if new_uses != self.summaries[entry].may_use:
                    self.summaries[entry] = FunctionSummary(
                        entry=entry, may_def=frozenset(defs[entry]),
                        may_use=new_uses, body=bodies[entry])
                    changed = True

    # --------------------------------------------------- per-instr effects

    def instr_defs(self, instr: Instruction) -> frozenset[int]:
        """Registers ``instr`` may define, including suppressed callees."""
        base = frozenset(instr.dst_regs())
        if instr.kind is Kind.CALL:
            if instr.op is Op.JAL and instr.target in self.summaries:
                clobbered = self.summaries[instr.target].may_def \
                    - CALLEE_SAVED
                return base | clobbered | {RA}
            return ALL_REGS - CALLEE_SAVED | {RA}
        return base

    def instr_uses(self, instr: Instruction) -> frozenset[int]:
        """Registers ``instr`` may read, including suppressed callees."""
        if instr.op is Op.RELEASE:
            return frozenset(instr.regs)
        base = frozenset(instr.src_regs())
        if instr.kind is Kind.CALL:
            # The callee's read of $ra observes this call's own link
            # write, so it is not upward-exposed at the call site.
            if instr.op is Op.JAL and instr.target in self.summaries:
                return base | (self.summaries[instr.target].may_use
                               - {RA})
            return ALL_REGS - {RA}
        if instr.kind is Kind.SYSCALL:
            # $v0 selects the call; $a0 or $f12 (print-double) is its
            # argument (isa.executor.service_syscall).
            return base | frozenset({V0, A0, FP_REG_BASE + 12})
        return base

    # --------------------------------------------------------- dominators

    def loop_headers(self, entry: int) -> set[int]:
        """Back-edge targets (natural-loop headers) reachable from entry."""
        blocks = self.reachable_blocks(entry)
        order = self._reverse_postorder(entry, blocks)
        index = {addr: i for i, addr in enumerate(order)}
        dom: dict[int, set[int]] = {entry: {entry}}
        for addr in order:
            if addr != entry:
                dom[addr] = set(blocks)
        changed = True
        while changed:
            changed = False
            for addr in order:
                if addr == entry:
                    continue
                preds = [p for p in self.blocks[addr].predecessors
                         if p in blocks and p in dom]
                if not preds:
                    continue
                new = set.intersection(*(dom[p] for p in preds)) | {addr}
                if new != dom[addr]:
                    dom[addr] = new
                    changed = True
        headers: set[int] = set()
        for addr in blocks:
            for succ in self.blocks[addr].successors:
                if succ in blocks and succ in dom.get(addr, set()):
                    headers.add(succ)
        del index
        return headers

    def _reverse_postorder(self, entry: int, blocks: set[int]) -> list[int]:
        seen: set[int] = set()
        order: list[int] = []

        def visit(addr: int) -> None:
            stack = [(addr, iter(self.blocks[addr].successors))]
            seen.add(addr)
            while stack:
                current, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ in blocks and succ not in seen:
                        seen.add(succ)
                        stack.append(
                            (succ, iter(self.blocks[succ].successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(entry)
        order.reverse()
        return order


def build_cfg(program: Program,
              extra_leaders: Iterable[int] = ()) -> ControlFlowGraph:
    """Build the control-flow graph and function summaries."""
    return ControlFlowGraph(program, extra_leaders)

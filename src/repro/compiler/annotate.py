"""The annotation pass: unannotated binary -> multiscalar binary.

Given a program and a set of task entry points (explicit labels, any
existing ``.task`` directives, or the loop-header heuristic), this pass

1. closes the entry set so every task exit lands on a task entry;
2. computes each task's create mask (may-def ∩ live-at-exits);
3. sets **stop bits** on the exit instructions (always / taken /
   not-taken, as in Figure 4);
4. sets **forward bits** on register writes that are provably the last
   update of a create-mask register within the task;
5. inserts **release instructions** where the last update cannot carry a
   forward bit — after suppressed calls that define live registers, and
   at control-flow points where a register's update phase is over (the
   paper's release of ``$8, $17`` at the inner-loop exit);
6. prunes hand-written release operands that the task may still write
   later (a premature release lets the successor consume a stale value
   and race the redefinition — releases must name dead registers);
7. emits the task descriptors and rebuilds the binary (addresses shift
   because of inserted releases; every control target is remapped).

Correctness never depends on steps 4-5: a register in the create mask
that was not forwarded by the time the task stops is auto-released by
the hardware model. Forwarding early is purely a performance matter
(Section 3.2.2), which is why the pass may skip annotation sites shared
between overlapping regions.
"""

from __future__ import annotations

from dataclasses import replace

from repro.compiler.cfg import ControlFlowGraph, build_cfg
from repro.compiler.knobs import DEFAULT_KNOBS, CompilerKnobs
from repro.compiler.liveness import LivenessAnalysis
from repro.compiler.regions import (
    RegionError,
    TaskRegion,
    close_entries,
    compute_regions,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Kind, Op, StopKind
from repro.isa.program import (
    Program,
    TEXT_BASE,
    TargetKind,
    TaskDescriptor,
    TaskTarget,
)


class AnnotationError(Exception):
    pass


def annotate_program(program: Program,
                     task_entries: list[str] | None = None,
                     knobs: CompilerKnobs | None = None) -> Program:
    """Produce an annotated multiscalar binary.

    Parameters
    ----------
    program:
        The (scalar) input binary. Existing ``.task`` directives
        contribute entry points; explicit create masks are preserved.
    task_entries:
        Labels to use as task entry points (in addition to the program
        entry and any ``.task`` directives).
    knobs:
        Tunable partitioning heuristics
        (:class:`~repro.compiler.knobs.CompilerKnobs`): the loop-cut
        strategy (``"all"`` also makes every natural-loop header a task
        entry, one task per loop iteration — the paper's canonical
        partitioning; ``"none"`` overrides ``task_entries``),
        the create-mask policy, and the task-size cap. ``None`` means
        the hand-tuned defaults, which reproduce the historical
        behaviour of this pass exactly.
    """
    knobs = knobs or DEFAULT_KNOBS
    if knobs.loop_cut == "none":
        # Degenerate partitioning: ignore every nominated entry and
        # keep only what closure forces. (Near-sequential execution —
        # the "what does partitioning buy" baseline of the search.)
        entries: set[int] = set()
    else:
        entries = set(program.tasks)
        for label in task_entries or []:
            try:
                entries.add(program.label_addr(label))
            except KeyError:
                raise AnnotationError(
                    f"unknown task-entry label {label!r}") from None
    # Entry labels need not be branch targets; hand them to the CFG
    # builder so blocks split at every requested entry.
    cfg = build_cfg(program, extra_leaders=entries)
    if knobs.loop_cut == "all":
        entries |= cfg.loop_headers(program.entry)
    entries = close_entries(cfg, entries, program.entry)
    liveness = LivenessAnalysis(cfg, program.entry, whole_program=True)
    regions = compute_regions(cfg, entries, liveness,
                              mask_policy=knobs.create_mask)
    if knobs.task_size:
        regions, entries = _split_oversized_regions(
            cfg, regions, entries, liveness, knobs)
    # How many regions share each block (shared blocks are annotated
    # conservatively).
    block_owners: dict[int, int] = {}
    for region in regions.values():
        for addr in region.blocks:
            block_owners[addr] = block_owners.get(addr, 0) + 1

    forward_sites: set[int] = set()
    stop_sites: dict[int, StopKind] = {}
    insertions: dict[int, set[int]] = {}   # instr addr -> regs released before

    for region in regions.values():
        _plan_stop_bits(region, stop_sites)
        _plan_forwarding(cfg, region, block_owners, forward_sites,
                         insertions)

    descriptors = _plan_descriptors(program, regions,
                                    honor_explicit_masks=knobs.loop_cut
                                    != "none")
    release_rewrites = _prune_stale_releases(cfg, regions)
    return _rebuild(program, forward_sites, stop_sites, insertions,
                    descriptors, release_rewrites)


def _split_oversized_regions(cfg: ControlFlowGraph,
                             regions: dict[int, TaskRegion],
                             entries: set[int],
                             liveness: LivenessAnalysis,
                             knobs: CompilerKnobs):
    """Enforce the ``task_size`` knob: promote an interior block of any
    region holding more than ``task_size`` static instructions to a
    task entry, re-close, and recompute, until every region fits (or no
    region can shrink further — a single oversized basic block stays
    whole). Deterministic: regions and blocks are visited in address
    order, so the same knob always yields the same partitioning."""
    entries = set(entries)
    while True:
        new_entries: set[int] = set()
        for entry in sorted(regions):
            region = regions[entry]
            blocks = sorted(region.blocks)
            total = sum(len(cfg.blocks[a].instructions) for a in blocks)
            if total <= knobs.task_size:
                continue
            running = 0
            for addr in blocks:
                running += len(cfg.blocks[addr].instructions)
                if running > knobs.task_size and addr != region.entry \
                        and addr not in entries \
                        and _splittable(cfg, addr, entries):
                    new_entries.add(addr)
                    break
        if not new_entries:
            return regions, entries
        entries |= new_entries
        entries = close_entries(cfg, entries, cfg.program.entry)
        regions = compute_regions(cfg, entries, liveness,
                                  mask_policy=knobs.create_mask)


def _splittable(cfg: ControlFlowGraph, addr: int,
                entries: set[int]) -> bool:
    """A block may become a task entry only if no predecessor ends in a
    *suppressed* call: the return point of an inlined ``jal`` cannot be
    a task boundary, because the runtime PC follows the call into the
    callee while the static exit model would stop the task at the
    ``jal`` itself. (Call-*boundary* return points are already entries
    via :func:`close_entries`, so they never reach this check.)"""
    for pred in cfg.blocks[addr].predecessors:
        last = cfg.blocks[pred].last
        if last.kind is Kind.CALL and last.target not in entries:
            return False
    return True


# ----------------------------------------------------------- stop bits

def _plan_stop_bits(region: TaskRegion,
                    stop_sites: dict[int, StopKind]) -> None:
    for edge in region.exits:
        current = stop_sites.get(edge.from_addr)
        if current is None:
            stop_sites[edge.from_addr] = edge.stop
        elif current is not edge.stop:
            # e.g. taken-exit from one analysis and not-taken from another
            # (both paths leave): the task ends either way.
            stop_sites[edge.from_addr] = StopKind.ALWAYS


# --------------------------------------------------------- forwarding

def _plan_forwarding(cfg: ControlFlowGraph, region: TaskRegion,
                     block_owners: dict[int, int],
                     forward_sites: set[int],
                     insertions: dict[int, set[int]]) -> None:
    """Mark provably-last writes with forward bits; place releases."""
    # Intra-task edges: region blocks other than the entry (an edge back
    # to the entry starts the next task instance, and other task entries
    # are never region members).
    intra_succs = {
        addr: [s for s in cfg.blocks[addr].successors
               if s in region.blocks and s != region.entry]
        for addr in region.blocks
    }
    for reg in region.create_mask:
        # may_later[b]: may `reg` still be defined at/after block b's end
        # on some intra-task path.
        defines_in = {
            addr: any(reg in cfg.instr_defs(i)
                      for i in cfg.blocks[addr].instructions)
            for addr in region.blocks
        }
        may_later_out = {addr: False for addr in region.blocks}
        changed = True
        while changed:
            changed = False
            for addr in region.blocks:
                new = any(defines_in[s] or may_later_out[s]
                          for s in intra_succs[addr])
                if new != may_later_out[addr]:
                    may_later_out[addr] = new
                    changed = True
        for addr in region.blocks:
            shared = block_owners.get(addr, 1) > 1
            may_later = may_later_out[addr]
            for instr in reversed(cfg.blocks[addr].instructions):
                if reg in cfg.instr_defs(instr):
                    if not may_later and not shared:
                        if instr.kind is Kind.CALL or not instr.dst_regs() \
                                or reg not in instr.dst_regs():
                            # The definer cannot carry a forward bit (it
                            # is a suppressed call, or the reg is a side
                            # effect): release right after it — unless
                            # the next instruction is already outside
                            # this task (a call-type exit), where the
                            # end-of-task auto-release covers it.
                            if _next_in_region(cfg, region, instr.addr):
                                insertions.setdefault(
                                    instr.addr + 4, set()).add(reg)
                        else:
                            forward_sites.add(instr.addr)
                    may_later = True
        # Release at update-phase boundaries: a block where the register
        # can no longer be written, entered from a block where it could.
        for addr in region.blocks:
            if block_owners.get(addr, 1) > 1:
                continue
            if defines_in[addr] or may_later_out[addr]:
                continue
            entered_from_writing = any(
                p in region.blocks and (defines_in[p] or may_later_out[p])
                for p in cfg.blocks[addr].predecessors)
            if entered_from_writing:
                insertions.setdefault(addr, set()).add(reg)


def _prune_stale_releases(
        cfg: ControlFlowGraph,
        regions: dict[int, TaskRegion]) -> dict[int, tuple[int, ...]]:
    """Drop release operands the task may still write afterwards.

    A release asserts "this is the register's final value in this
    task"; the successor stops waiting and reads it immediately. If
    some later instruction of the same task redefines the register, the
    successor races the redefinition and can consume a stale value — so
    a hand-written (or generated) release of a not-actually-dead
    register is pruned down to its provably-dead operands. Returns
    ``{release addr: remaining regs}`` for the releases that change.
    """
    entries = set(regions)
    unsafe_by_addr: dict[int, set[int]] = {}
    release_regs: dict[int, tuple[int, ...]] = {}
    for region in regions.values():
        for baddr in sorted(region.blocks):
            block = cfg.blocks[baddr]
            # Blocks reachable from here without leaving the task (an
            # edge into any task entry starts another task instance).
            reachable: set[int] = set()
            stack = [s for s in block.successors
                     if s in region.blocks and s not in entries]
            while stack:
                addr = stack.pop()
                if addr in reachable or addr not in region.blocks:
                    continue
                reachable.add(addr)
                stack.extend(s for s in cfg.blocks[addr].successors
                             if s in region.blocks and s not in entries)
            defined_later: set[int] = set()
            for addr in reachable:
                for instr in cfg.blocks[addr].instructions:
                    defined_later |= cfg.instr_defs(instr)
            # Walk the block backwards so "defined after" accumulates.
            pending: list[tuple[Instruction, set[int]]] = []
            for instr in reversed(block.instructions):
                if instr.op is Op.RELEASE:
                    unsafe = set(instr.regs) & defined_later
                    if unsafe:
                        pending.append((instr, unsafe))
                defined_later = defined_later | cfg.instr_defs(instr)
            for instr, unsafe in pending:
                release_regs[instr.addr] = instr.regs
                unsafe_by_addr.setdefault(instr.addr, set()).update(unsafe)
    return {addr: tuple(r for r in release_regs[addr]
                        if r not in unsafe)
            for addr, unsafe in unsafe_by_addr.items()}


def strip_annotations(program: Program) -> Program:
    """Remove all multiscalar information from a binary.

    The inverse of :func:`annotate_program`, enabling the paper's
    software migration path (Section 2.2): "The job of migrating a
    multiscalar program from one generation to another generation of
    hardware might be as simple as taking an old binary ... The old
    multiscalar information is removed and replaced by new multiscalar
    information." Release instructions are deleted (control targets are
    remapped across the deletions), tag bits cleared, and task
    descriptors dropped; re-annotating with a different partitioning or
    target-count budget produces the new-generation binary.
    """
    old_text_end = program.text_end
    new_instrs: list[Instruction] = []
    old_to_new: dict[int, int] = {}
    # A deleted release maps to the instruction that follows it, so
    # branches into it stay valid.
    pending_aliases: list[int] = []
    for instr in program.instructions:
        if instr.op is Op.RELEASE:
            pending_aliases.append(instr.addr)
            continue
        new_addr = TEXT_BASE + 4 * len(new_instrs)
        old_to_new[instr.addr] = new_addr
        for alias in pending_aliases:
            old_to_new[alias] = new_addr
        pending_aliases.clear()
        clone = replace(instr, forward=False, stop=StopKind.NONE)
        clone.addr = new_addr
        new_instrs.append(clone)

    def remap(addr: int) -> int:
        if TEXT_BASE <= addr < old_text_end:
            return old_to_new[addr]
        return addr

    for instr in new_instrs:
        if instr.target is not None:
            instr.target = remap(instr.target)
    return Program(
        instructions=new_instrs,
        labels={name: remap(addr)
                for name, addr in program.labels.items()},
        data=program.data,
        entry=remap(program.entry),
        tasks={},
        source_name=program.source_name + " [stripped]")


def _next_in_region(cfg: ControlFlowGraph, region: TaskRegion,
                    addr: int) -> bool:
    """True if the instruction after ``addr`` still belongs to the task.

    Only block-ending instructions can have a successor outside the
    region, and block successors are keyed by start address.
    """
    nxt = addr + 4
    if nxt in cfg.blocks:
        return nxt in region.blocks
    return True  # mid-block: always in the same region


# -------------------------------------------------------- descriptors

def _plan_descriptors(program: Program,
                      regions: dict[int, TaskRegion],
                      honor_explicit_masks: bool = True
                      ) -> list[TaskDescriptor]:
    addr_to_label = {a: n for n, a in program.labels.items()}
    descriptors = []
    for region in regions.values():
        targets: list[TaskTarget] = []
        seen: set[tuple] = set()
        for edge in region.exits:
            if edge.target is None:
                key = ("ret",)
                target = TaskTarget(TargetKind.RETURN)
            elif edge.ret_addr:
                # Call-type exit: the predictor pushes the return point
                # on its RAS when it chooses this target.
                key = ("call", edge.target, edge.ret_addr)
                target = TaskTarget(TargetKind.ADDR, edge.target,
                                    ret_addr=edge.ret_addr)
            else:
                key = ("addr", edge.target)
                target = TaskTarget(TargetKind.ADDR, edge.target)
            if key not in seen:
                seen.add(key)
                targets.append(target)
        if region.reaches_halt:
            targets.append(TaskTarget(TargetKind.HALT))
        if not targets:
            raise AnnotationError(
                f"task {region.name or hex(region.entry)} has no exits "
                "and never halts")
        if len(targets) > 4:
            raise AnnotationError(
                f"task {region.name or hex(region.entry)} has "
                f"{len(targets)} successor targets; the sequencer "
                "supports at most 4 — choose a different partitioning")
        existing = program.tasks.get(region.entry)
        mask = region.create_mask
        if honor_explicit_masks and existing is not None \
                and existing.mask_is_explicit:
            mask = existing.create_mask  # hand-written masks win
        descriptors.append(TaskDescriptor(
            entry=region.entry, targets=tuple(targets), create_mask=mask,
            name=addr_to_label.get(region.entry, ""),
            mask_is_explicit=True))
    return descriptors


# ------------------------------------------------------------ rebuild

def _rebuild(program: Program, forward_sites: set[int],
             stop_sites: dict[int, StopKind],
             insertions: dict[int, set[int]],
             descriptors: list[TaskDescriptor],
             release_rewrites: dict[int, tuple[int, ...]] | None = None
             ) -> Program:
    release_rewrites = release_rewrites or {}
    old_text_end = program.text_end
    new_instrs: list[Instruction] = []
    old_to_new: dict[int, int] = {}
    for instr in program.instructions:
        before = insertions.get(instr.addr)
        new_addr = TEXT_BASE + 4 * len(new_instrs)
        old_to_new[instr.addr] = new_addr
        if before:
            release = Instruction(Op.RELEASE, regs=tuple(sorted(before)),
                                  line=instr.line)
            release.addr = new_addr
            new_instrs.append(release)
        clone = replace(
            instr,
            forward=instr.forward or instr.addr in forward_sites,
            stop=stop_sites.get(instr.addr, instr.stop))
        if instr.addr in release_rewrites:
            clone = replace(clone, regs=release_rewrites[instr.addr])
        clone.addr = TEXT_BASE + 4 * len(new_instrs)
        new_instrs.append(clone)

    def remap(addr: int) -> int:
        if TEXT_BASE <= addr < old_text_end:
            return old_to_new[addr]
        return addr

    for instr in new_instrs:
        if instr.target is not None:
            instr.target = remap(instr.target)
    new_labels = {name: remap(addr) for name, addr in program.labels.items()}
    new_tasks = {}
    for descriptor in descriptors:
        targets = tuple(
            replace(t, addr=remap(t.addr) if t.addr else 0,
                    ret_addr=remap(t.ret_addr) if t.ret_addr else 0)
            for t in descriptor.targets)
        new_entry = remap(descriptor.entry)
        new_tasks[new_entry] = replace(descriptor, entry=new_entry,
                                       targets=targets)
    return Program(
        instructions=new_instrs,
        labels=new_labels,
        data=program.data,
        entry=remap(program.entry),
        tasks=new_tasks,
        source_name=program.source_name + " [annotated]")

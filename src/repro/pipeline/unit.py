"""The 5-stage processing-unit pipeline (IF/ID/EX/MEM/WB).

One instance of :class:`UnitPipeline` models one of the paper's
processing units: in-order or out-of-order issue at 1- or 2-way width,
out-of-order completion on the pipelined functional units of Table 1,
and in-order commit. In-order commit gives clean semantics for the
multiscalar tag bits — forwards, releases, stop conditions, stores, and
syscalls all take effect in program order.

Intra-task control flow uses predict-not-taken for conditional branches
(taken branches flush younger work and redirect), immediate redirection
at decode for direct jumps and calls, and a fetch stall for indirect
jumps. A decoded stop bit stops fetch at the task boundary, as the
hardware's tag-bit-aware instruction cache would (Section 2.2).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from types import MappingProxyType

from repro.config import UnitConfig
from repro.isa import semantics
from repro.isa.executor import next_pc as arch_next_pc
from repro.isa.memory_image import MASK32, u32
from repro.isa.opcodes import Kind, Op, StopKind
from repro.isa.registers import NUM_UNIFIED_REGS
from repro.isa.uop import MicroOp
from repro.observability.events import Category as _Cat
from repro.pipeline.context import PipelineContext, StallReason
from repro.pipeline.functional_units import FUPool

#: Event-category int, bound once for the stall-transition emission.
_CAT_PIPE = int(_Cat.PIPE)

#: Enum members the hot loop compares against, bound once (a global
#: load instead of a global load plus an attribute load per test).
_ALU = Kind.ALU
_LOAD = Kind.LOAD
_STORE = Kind.STORE
_SYSCALL = Kind.SYSCALL
_HALT = Kind.HALT
_NO_STOP = StopKind.NONE
_R_NONE = StallReason.NONE
_R_INTER = StallReason.INTER_TASK
_R_INTRA = StallReason.INTRA_TASK
_R_SYSCALL = StallReason.SYSCALL
_R_WAIT = StallReason.WAIT_RETIRE
_R_FETCH = StallReason.FETCH

#: The operand slots issue fills, indexed by register number. The
#: bound ``uop.alu`` / ``uop.branch`` closures, ``arch_next_pc`` and
#: ``semantics.*`` read ``s[reg]`` for the issuing record's sources
#: only, and each issue reads what it filled before it returns, so one
#: list serves every unit (and the JIT's windows) and is never cleared.
OPERANDS: list = [0] * NUM_UNIFIED_REGS

#: An empty ``last_writer`` table, copied in place (no allocation).
_NO_WRITERS = (None,) * NUM_UNIFIED_REGS

#: What :meth:`UnitPipeline._commit` reports back to ``step``.
_BLOCKED, _RETIRED, _RETIRED_LAST = range(3)

#: Sentinel wake-up cycle meaning "no locally known event" — the unit is
#: waiting on something external (a ring delivery, a predecessor's
#: retirement) that another component's wake candidate must bound.
NEVER = 1 << 62


class MemRetry(Exception):
    """Raised by a context when a memory op cannot issue this cycle
    (e.g. the ARB bank is full under the stall policy); the pipeline
    retries on a later cycle."""


#: What an in-order record (and an issued out-of-order one) holds in
#: place of producer links: one shared, read-only empty mapping.
NO_PRODUCERS = MappingProxyType({})


class _InFlight:
    """One instruction in the ROB (dispatch through commit).

    A ``__slots__`` class rather than a dataclass: tens of millions are
    created per simulation and attribute access on them dominates the
    issue/commit loops.

    Under in-order issue a record links no other record at all: issue
    reads each source from the unit's scoreboard (``last_writer``, the
    latest *issued* writer of each register) or from the register file,
    so the record lives exactly from dispatch to commit
    (docs/INTERNALS.md §3). ``producers`` and ``blocker`` are class
    attributes here, read-only and empty; :class:`_OooInFlight` gives
    them slots.

    ``__init__`` writes every slot; ``step`` writes only the six every
    record reads (``uop``, ``pc``, ``idx``, ``issuable_at``, ``issued``,
    ``resolved``). Issue writes the results where the kind has them,
    and ``_dispatch_control`` writes ``taken``, ``next_pc`` and
    ``stalled_fetch`` on the control and stop-tagged records that read
    them; every other read is behind the ``issued`` flag or the kind
    that guarantees the store.
    """

    __slots__ = ("uop", "pc", "idx", "issuable_at", "issued", "done_cycle",
                 "result", "ea", "store_value", "taken", "next_pc",
                 "resolved", "stalled_fetch")

    producers: Mapping[int, _InFlight | None] = NO_PRODUCERS
    blocker: _InFlight | None = None

    def __init__(self, uop: MicroOp, pc: int, idx: int,
                 issuable_at: int) -> None:
        self.uop = uop
        self.pc = pc
        self.idx = idx                # dispatch order, monotonic
        self.issuable_at = issuable_at
        self.issued = False
        self.done_cycle = 0
        self.result = None            # destination value (ALU/load/link)
        self.ea = 0                   # effective address of a memory op
        self.store_value = None
        self.taken = False
        self.next_pc = 0
        self.resolved = True          # False for in-flight control instrs
        self.stalled_fetch = False    # this instruction stopped the fetcher


class _OooInFlight(_InFlight):
    """A record of an out-of-order unit, which captures producers at
    dispatch.

    An unissued record holds its producers, the in-flight records that
    will write its source registers (None for a register read from the
    register file). Issue reads the sources and swaps that mapping for
    :data:`NO_PRODUCERS`; only an unissued record can hold a
    ``blocker``, the producer that last refused it issue (derived,
    never snapshotted: the scan skips the record until that producer
    has delivered, and clears it before it tries the record again).
    """

    __slots__ = ("producers", "blocker")

    def __init__(self, uop: MicroOp, pc: int, idx: int,
                 issuable_at: int) -> None:
        super().__init__(uop, pc, idx, issuable_at)
        self.producers = NO_PRODUCERS
        self.blocker = None


#: ``step`` builds records with ``__new__`` and direct slot stores (one
#: record per dispatched instruction): no ``__init__`` frame.
_new_record = _InFlight.__new__


@dataclass
class PipelineStats:
    fetched: int = 0
    dispatched: int = 0
    issued: int = 0
    committed: int = 0
    flushed: int = 0
    taken_branch_flushes: int = 0
    loads: int = 0
    stores: int = 0


class UnitPipeline:
    """One processing unit."""

    def __init__(self, config: UnitConfig, ctx: PipelineContext,
                 fu_pool: FUPool | None = None,
                 fast_path: bool = True) -> None:
        self.config = config
        self.ctx = ctx
        self.fus = fu_pool if fu_pool is not None else FUPool(config)
        self.stats = PipelineStats()
        self.fast_path = fast_path
        #: Structured event bus (repro.observability.EventBus) and this
        #: unit's track id, planted by EventBus.attach. Deliberately
        #: not cleared by reset(): attachment outlives task changes.
        self.trace = None
        self.trace_tid = 0
        #: Per register, the latest in-flight writer (None: read the
        #: register file). Under in-order issue it is a scoreboard
        #: written at issue, so it holds only issued records; under
        #: out-of-order issue it is the renaming table, written at
        #: dispatch. Cleared in place, never rebound.
        self.last_writer: list[_InFlight | None] = list(_NO_WRITERS)
        self.reset(pc=None)

    # ----------------------------------------------------------- control

    def reset(self, pc: int | None) -> None:
        """Restart the pipeline at ``pc`` (None leaves fetch stopped)."""
        self.pc = pc
        self.rob: list[_InFlight] = []
        self.fetch_buffer: deque[tuple[MicroOp, int]] = deque()
        self.fetch_pending_until: int | None = None
        self.fetch_pending_pc: int | None = None
        self.last_writer[:] = _NO_WRITERS
        self.unresolved: list[_InFlight] = []
        self.pending_stores = 0
        self._dispatch_idx = 0
        self.stop_committed = False
        self.fus.reset()
        self._last_stall = StallReason.FETCH
        self._activity = True
        self._unissued = 0
        # Config scalars cached off dataclass attribute lookups.
        self._width = self.config.issue_width
        self._window = self.config.window_size
        self._fetchq = self.config.fetch_queue
        self._in_order = not self.config.out_of_order
        self._record = _InFlight if self._in_order else _OooInFlight
        # Constant per context class (True for the scalar baseline,
        # False for a multiscalar unit); cached off the hot paths.
        self._suppress = self.ctx.suppress_annotations()
        self._fetch_groups = self.ctx.fetch_groups()
        # Pre-decoded closures bypass the patchable module attribute
        # ``semantics.evaluate_alu``; fall back to the generic path
        # whenever fault injection has swapped it (or the escape hatch
        # disabled the fast path), so planted bugs still fire.
        self._fast = (self.fast_path and semantics.evaluate_alu
                      is semantics._GENUINE_EVALUATE_ALU)
        #: The paper's default shape, 1-way in-order, on the fast path:
        #: ``step`` issues its ALU records in its own frame.
        self._serial = self._width == 1 and self._in_order and self._fast

    def busy(self) -> bool:
        """True while any instruction is in flight or fetch is active."""
        return bool(self.rob or self.fetch_buffer
                    or self.pc is not None
                    or self.fetch_pending_until is not None)

    def drained(self) -> bool:
        """True once every dispatched instruction has committed."""
        return not self.rob

    # ------------------------------------------------------------- step

    def step(self, cycle: int) -> int:
        """Advance one cycle; returns the instructions issued (the
        cycle's stall reason is left in ``_last_stall``).

        The one place a unit-cycle happens, for both issue widths and
        both issue orders: commit, branch resolution, issue, dispatch,
        fetch, stall classification and the activity flag run in this
        frame, in that order. The common arms are written out here —
        a commit that is only a register write, the 1-way in-order ALU
        issue, record construction, fetch delivery — and the rest
        (:meth:`_commit`, :meth:`_try_issue`, :meth:`_apply_resolution`,
        :meth:`_dispatch_control`) are called per record. Every
        container named below is mutated in place for the life of a
        task, so the local aliases stay valid across those calls.

        Under in-order issue every older record has issued before a
        record does, so its producer is the latest *issued* writer of
        each source: ``last_writer`` is then a scoreboard written at
        issue, and dispatch links nothing. Out-of-order issue captures
        each record's producers at dispatch instead.
        """
        fetch_until_before = self.fetch_pending_until
        rob = self.rob
        ctx = self.ctx
        regs = ctx.regs
        pending = ctx.pending
        stats = self.stats
        last_writer = self.last_writer
        fetch_buffer = self.fetch_buffer

        # Commit: in program order, as many as are ready.
        committed = 0
        while rob:
            rec = rob[0]
            if not rec.issued or cycle < rec.done_cycle or not rec.resolved:
                break
            uop = rec.uop
            instr = uop.instr
            if uop.plain and (self._suppress or not (
                    instr.forward or instr.stop is not _NO_STOP)):
                del rob[0]
                committed += 1
                dst = uop.dst
                if dst is not None:
                    if rec.result is not None:
                        regs[dst] = rec.result
                        if pending:
                            pending.pop(dst, None)
                    if last_writer[dst] is rec:
                        last_writer[dst] = None
                continue
            outcome = self._commit(rec, cycle)
            if outcome != _BLOCKED:
                committed += 1
            if outcome != _RETIRED:
                break
        if committed:
            stats.committed += committed

        # Resolve: completed control instructions, oldest ready first.
        resolved = 0
        unresolved = self.unresolved
        while unresolved:
            for rec in unresolved:
                if rec.issued and cycle >= rec.done_cycle:
                    break
            else:
                break
            unresolved.remove(rec)
            rec.resolved = True
            resolved += 1
            self._apply_resolution(rec)

        # Issue.
        issued = 0
        unissued = self._unissued
        if unissued:
            if self._serial:
                rec = rob[-unissued]
                uop = rec.uop
                if uop.kind is not _ALU:
                    if self._try_issue(rec, cycle):
                        issued = 1
                elif cycle >= rec.issuable_at:
                    # _try_issue's in-order ALU arm, in line.
                    s = OPERANDS
                    for reg in uop.deps:
                        writer = last_writer[reg]
                        if writer is None:
                            if reg in pending:
                                break
                            s[reg] = regs[reg]
                        elif cycle >= writer.done_cycle:
                            s[reg] = writer.result
                        else:
                            break
                    else:
                        fus = self.fus
                        slots = fus._free_by_val[uop.fui]
                        slot = 0
                        for free in slots:
                            if free <= cycle:
                                if uop.alu is not None:
                                    rec.result = uop.alu(s)
                                slots[slot] = cycle + 1
                                rec.issued = True
                                rec.done_cycle = cycle \
                                    + fus.latencies[uop.latency_key]
                                dst = uop.dst
                                if dst is not None:
                                    last_writer[dst] = rec
                                issued = 1
                                break
                            slot += 1
            elif self._in_order:
                # In-order issue keeps the issued flags a prefix of the
                # ROB, so the unissued records are its tail; it stops at
                # the first that cannot go.
                for rec in rob[-unissued:]:
                    if not self._try_issue(rec, cycle):
                        break
                    issued += 1
                    if issued == self._width:
                        break
            else:
                for rec in rob:
                    if rec.issued:
                        continue
                    blocker = rec.blocker
                    if blocker is not None:
                        # The producer that refused this record last
                        # time has still not delivered: so would it now.
                        if not blocker.issued \
                                or cycle < blocker.done_cycle:
                            continue
                        rec.blocker = None
                    if self._try_issue(rec, cycle):
                        issued += 1
                        if issued == self._width:
                            break
            if issued:
                unissued -= issued
                stats.issued += issued

        # Dispatch: decode up to ``width`` fetched instructions into
        # the window.
        dispatched = 0
        if fetch_buffer:
            width = self._width
            window = self._window
            idx = self._dispatch_idx
            issuable = cycle + 1
            while len(rob) < window:
                uop, pc = fetch_buffer.popleft()
                rec = _new_record(self._record)
                rec.uop = uop
                rec.pc = pc
                rec.idx = idx
                rec.issuable_at = issuable
                rec.issued = False
                rec.resolved = True
                idx += 1
                if not self._in_order:
                    # Renaming: capture each source's in-flight writer.
                    rec.producers = producers = {}
                    rec.blocker = None
                    for reg in uop.deps:
                        producers[reg] = last_writer[reg]
                    dst = uop.dst
                    if dst is not None:
                        last_writer[dst] = rec
                if uop.kind is _STORE:
                    self.pending_stores += 1
                rob.append(rec)
                dispatched += 1
                # Only control instructions and stop-tagged instructions
                # can redirect or stall fetch (tag bits are read through
                # the live instruction, never cached on the micro-op).
                if (uop.ctl or uop.instr.stop is not _NO_STOP) \
                        and self._dispatch_control(rec):
                    break
                if dispatched == width or not fetch_buffer:
                    break
            if dispatched:
                self._dispatch_idx = idx
                unissued += dispatched
                stats.dispatched += dispatched
        self._unissued = unissued

        # Fetch: deliver a due group, then start the next request.
        pending_until = self.fetch_pending_until
        if pending_until is None or cycle >= pending_until:
            if pending_until is not None:
                start = self.fetch_pending_pc
                self.fetch_pending_until = None
                self.fetch_pending_pc = None
                # (A redirect while the fetch was in flight drops it.)
                if start is not None and start == self.pc:
                    group, self.pc = self._fetch_groups[start]
                    fetch_buffer.extend(group)
                    stats.fetched += len(group)
            pc = self.pc
            if pc is not None and len(fetch_buffer) < self._fetchq:
                self.fetch_pending_pc = pc
                self.fetch_pending_until = ctx.fetch_group(pc & ~15, cycle)

        # Classify the cycle.
        if issued:
            reason = _R_NONE
        elif unissued:
            reason = _R_INTRA
            # What holds the oldest unissued instruction back? A source
            # with no in-flight writer that a predecessor still owes.
            if pending:
                rec = rob[-unissued] if self._in_order \
                    else next(r for r in rob if not r.issued)
                writers = last_writer if self._in_order else rec.producers
                for reg in rec.uop.deps:
                    if writers[reg] is None and reg in pending:
                        reason = _R_INTER
                        break
        elif rob:
            head = rob[0]
            if head.uop.kind is _SYSCALL and head.issued \
                    and cycle >= head.done_cycle \
                    and not ctx.can_commit_syscall():
                reason = _R_SYSCALL
            else:
                reason = _R_INTRA
        elif self.stop_committed or (
                self.pc is None and self.fetch_pending_until is None
                and not fetch_buffer):
            reason = _R_WAIT
        else:
            reason = _R_FETCH
        if reason is not self._last_stall:
            # Stall-reason transition. Emission here (and only here) is
            # what keeps event streams identical under the cycle-skip
            # fast path: skipped windows have a provably stable reason,
            # so every transition happens on a stepped cycle. The mask
            # is tested here, not in emit(): transitions are ~95% of
            # all events, and the call-site test keeps a masked-out
            # PIPE category down to one int AND per transition.
            trace = self.trace
            if trace is not None and trace.mask & _CAT_PIPE:
                trace.emit(_CAT_PIPE, reason.name, cycle, self.trace_tid)
            self._last_stall = reason
        # "Quiet" means no architectural state that could enable a future
        # local action changed this cycle: nothing issued, committed,
        # resolved, or dispatched, and the fetch engine neither started
        # nor delivered a request. The cycle-skipping fast path may only
        # engage after quiet steps (see wake_cycle).
        if issued or committed or dispatched or resolved:
            self._activity = True
        else:
            self._activity = \
                self.fetch_pending_until != fetch_until_before
        return issued

    def wake_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which this unit could act, given only
        locally known release times; 0 if the clock must not skip.

        Must be called right after :meth:`step`. Returns 0 when the step
        did anything (state changed → re-evaluate next cycle) or when any
        known constraint clears by ``cycle + 1`` (this is what keeps
        per-cycle retry behaviour — e.g. ARB-full loops — bit-identical).
        Returns :data:`NEVER` when the unit is blocked purely on external
        events (ring deliveries, predecessor retirement); some other
        component's candidate must then bound the skip.
        """
        if self._activity:
            return 0
        wake = NEVER
        fpu = self.fetch_pending_until
        if fpu is not None:
            if fpu <= cycle + 1:
                return 0
            wake = fpu
        pending = self.ctx.pending
        for rec in self.rob:
            if rec.issued:
                dc = rec.done_cycle
                if dc > cycle:
                    if dc <= cycle + 1:
                        return 0
                    if dc < wake:
                        wake = dc
                continue
            # An unissued instruction: find when its known constraints
            # clear. Constraints without a local timetable (a ring-fed
            # register, an unissued producer, an older unresolved branch
            # or uncommitted store) are left to the candidate of whatever
            # event unblocks them.
            bound = rec.issuable_at
            external = False
            uop = rec.uop
            writers = self.last_writer if self._in_order else rec.producers
            for reg in uop.deps:
                writer = writers[reg]
                if writer is None:
                    if reg in pending:
                        external = True
                        break
                elif not writer.issued:
                    external = True
                    break
                elif writer.done_cycle > bound:
                    bound = writer.done_cycle
            if not external:
                if uop.kind is _LOAD and self._load_waits(rec):
                    external = True
                else:
                    fu_free = min(self.fus._free_by_val[uop.fui])
                    if fu_free > bound:
                        bound = fu_free
            if not external:
                if bound <= cycle + 1:
                    return 0
                if bound < wake:
                    wake = bound
            if self._in_order:
                # Younger instructions cannot issue before this one.
                break
        return wake

    # ------------------------------------------------------------ commit

    def _commit(self, rec: _InFlight, cycle: int) -> int:
        """Retire the ready head ``rec`` when committing it does more
        than write a register: a store, syscall, halt or release, or a
        live forward / stop bit. Returns :data:`_BLOCKED` (it stays at
        the head), :data:`_RETIRED`, or :data:`_RETIRED_LAST` (nothing
        younger may commit: the task or the program ended here)."""
        ctx = self.ctx
        uop = rec.uop
        kind = uop.kind
        if (kind is _SYSCALL or kind is _HALT) \
                and not ctx.can_commit_syscall():
            return _BLOCKED
        instr = uop.instr
        del self.rob[0]
        dst = uop.dst
        if dst is not None:
            if rec.result is not None:
                ctx.regs[dst] = rec.result
                ctx.pending.pop(dst, None)
            if self.last_writer[dst] is rec:
                self.last_writer[dst] = None
        if kind is _STORE:
            ctx.mem_store(instr, rec.ea, rec.store_value, cycle)
            self.pending_stores -= 1
            self.stats.stores += 1
        elif kind is _SYSCALL:
            ctx.on_syscall()
            if ctx.machine_halted():
                # An exit syscall: instructions past it were fetched
                # down a path the program never takes architecturally,
                # so (like HALT) nothing younger may commit.
                self._flush_younger(rec.idx)
                self._redirect_fetch(None)
                return _RETIRED_LAST
        elif kind is _HALT:
            ctx.on_halt()
            # Nothing younger may commit (it would be text fetched
            # past the end of the program).
            self._flush_younger(rec.idx)
            self._redirect_fetch(None)
            return _RETIRED_LAST
        if not self._suppress:
            if instr.forward and dst is not None:
                ctx.on_forward(dst, rec.result)
            if kind is Kind.RELEASE:
                ctx.on_release(instr.regs)
            if self._stop_satisfied(rec):
                self.stop_committed = True
                ctx.on_stop(instr, rec.next_pc)
                # Anything younger belongs to the next task and is
                # being executed by a successor unit.
                self._flush_younger(rec.idx)
                self.pc = None
                return _RETIRED_LAST
        return _RETIRED

    @staticmethod
    def _stop_satisfied(rec: _InFlight) -> bool:
        stop = rec.uop.instr.stop
        if stop is StopKind.NONE:
            return False
        if stop is StopKind.ALWAYS:
            return True
        if stop is StopKind.TAKEN:
            return rec.taken
        return not rec.taken

    # -------------------------------------------------------- resolution

    def _apply_resolution(self, rec: _InFlight) -> None:
        uop = rec.uop
        instr = uop.instr
        kind = uop.kind
        stop = instr.stop if not self._suppress else StopKind.NONE
        if kind is Kind.BRANCH:
            ends_task = (stop is StopKind.ALWAYS
                         or (stop is StopKind.TAKEN and rec.taken)
                         or (stop is StopKind.NOT_TAKEN and not rec.taken))
            if ends_task:
                # Commit will report the stop; fetch stays stopped.
                self._flush_younger(rec.idx)
                self.pc = None
            elif rec.taken:
                # Predict-not-taken mispredicted: flush and redirect.
                self.stats.taken_branch_flushes += 1
                self._flush_younger(rec.idx)
                self.pc = rec.next_pc
            elif rec.stalled_fetch:
                # stop_nottaken branch that was taken after all: the task
                # continues at the target.
                self._flush_younger(rec.idx)
                self.pc = rec.next_pc
        elif kind in (Kind.JUMP_REG, Kind.CALL) and instr.op in (
                Op.JR, Op.JALR):
            if stop is StopKind.ALWAYS:
                self._flush_younger(rec.idx)
                self.pc = None
            else:
                self._flush_younger(rec.idx)
                self.pc = rec.next_pc

    # ------------------------------------------------------------- issue

    def _load_waits(self, rec: _InFlight) -> bool:
        """A load waits for every older branch to resolve and every older
        store to commit (``unresolved`` is kept in dispatch order)."""
        unresolved = self.unresolved
        if unresolved and unresolved[0].idx < rec.idx:
            return True
        if self.pending_stores:
            for other in self.rob:
                if other.idx >= rec.idx:
                    return False
                if other.uop.kind is _STORE:
                    return True
        return False

    def _try_issue(self, rec: _InFlight, cycle: int) -> bool:
        if cycle < rec.issuable_at:
            return False
        ctx = self.ctx
        # Check readiness and gather source values in one pass (reads
        # have no side effects, so a later constraint failing after a
        # partial gather is harmless).
        s = OPERANDS
        uop = rec.uop
        # Each source's in-flight writer (None: the register file) is
        # on the unit's scoreboard under in-order issue, in the record's
        # own producers under out-of-order issue.
        writers = self.last_writer if self._in_order else rec.producers
        for reg in uop.deps:
            writer = writers[reg]
            if writer is None:
                if reg in ctx.pending:
                    return False
                s[reg] = ctx.regs[reg]
            elif writer.issued and cycle >= writer.done_cycle:
                s[reg] = writer.result
            else:
                if not self._in_order:
                    rec.blocker = writer
                return False
        kind = uop.kind
        if kind is _LOAD and self._load_waits(rec):
            return False
        fus = self.fus
        slots = fus._free_by_val[uop.fui]
        # Most FU classes have a single instance (Table 1); index it
        # directly and only scan when the first port is taken.
        if slots[0] <= cycle:
            slot = 0
        else:
            slot = -1
            for i in range(1, len(slots)):
                if slots[i] <= cycle:
                    slot = i
                    break
            if slot < 0:
                return False
        done = cycle + fus.latencies[uop.latency_key]
        fast = self._fast
        if kind is _ALU:
            fn = uop.alu
            if fn is not None:
                rec.result = (fn(s) if fast
                              else semantics.evaluate_alu(uop.instr, s))
        elif kind is _LOAD:
            if fast:
                rec.ea = ea = (s[uop.ea_base] + uop.imm) & MASK32
            else:
                rec.ea = ea = semantics.effective_addr(uop.instr, s)
            try:
                # Address generation takes the EX cycle; the cache access
                # begins the cycle after.
                value, done = ctx.mem_load(uop.instr, ea, cycle + 1)
            except MemRetry:
                return False
            rec.result = value
            self.stats.loads += 1
        elif kind is _STORE:
            if fast:
                rec.ea = ea = (s[uop.ea_base] + uop.imm) & MASK32
            else:
                rec.ea = ea = semantics.effective_addr(uop.instr, s)
            try:
                ctx.mem_store_prepare(uop.instr, ea)
            except MemRetry:
                return False
            rec.store_value = s[uop.store_reg]
        elif kind is Kind.BRANCH:
            taken = (uop.branch(s) if fast
                     else semantics.branch_taken(uop.instr, s))
            rec.taken = taken
            rec.next_pc = uop.target if taken else rec.pc + 4
        elif kind is Kind.JUMP or kind is Kind.CALL \
                or kind is Kind.JUMP_REG:
            rec.next_pc = arch_next_pc(uop.instr, s, rec.pc)
            if kind is Kind.CALL:
                rec.result = u32(rec.pc + 4)  # link value for $ra
        # SYSCALL / HALT / RELEASE carry no EX-stage result.
        slots[slot] = cycle + 1   # claim the instance's issue port
        rec.issued = True
        rec.done_cycle = done
        if self._in_order:
            dst = uop.dst
            if dst is not None:
                self.last_writer[dst] = rec
        else:
            rec.producers = NO_PRODUCERS
        return True

    # ---------------------------------------------------------- dispatch

    def _dispatch_control(self, rec: _InFlight) -> bool:
        """Handle fetch redirection at decode; True if dispatch must stop.

        Also stores the slots that resolution and a stop read, which
        ``step`` leaves unwritten on other records."""
        rec.taken = False
        rec.next_pc = rec.pc + 4   # control overwrites it at issue
        rec.stalled_fetch = False
        uop = rec.uop
        instr = uop.instr
        kind = uop.kind
        stop = instr.stop if not self._suppress else StopKind.NONE
        if kind is Kind.BRANCH:
            rec.resolved = False
            self.unresolved.append(rec)
            if stop in (StopKind.ALWAYS, StopKind.NOT_TAKEN):
                # Predicted task end: do not fetch beyond the boundary.
                rec.stalled_fetch = True
                self._redirect_fetch(None)
                return True
            return False
        if kind is Kind.JUMP:
            if stop is StopKind.ALWAYS:
                rec.stalled_fetch = True
                self._redirect_fetch(None)
            else:
                self._redirect_fetch(instr.target)
            return True
        if kind is Kind.CALL and instr.op is Op.JAL:
            if stop is StopKind.ALWAYS:
                rec.stalled_fetch = True
                self._redirect_fetch(None)
            else:
                self._redirect_fetch(instr.target)
            return True
        if kind in (Kind.JUMP_REG, Kind.CALL):  # jr / jalr
            rec.resolved = False
            self.unresolved.append(rec)
            rec.stalled_fetch = True
            self._redirect_fetch(None)
            return True
        if stop is StopKind.ALWAYS:
            rec.stalled_fetch = True
            self._redirect_fetch(None)
            return True
        return False

    # ------------------------------------------------------------- fetch

    def _redirect_fetch(self, target: int | None) -> None:
        """Point fetch at ``target`` (None stops it), dropping what was
        fetched but not dispatched and any request in flight."""
        self.pc = target
        self.fetch_buffer.clear()
        self.fetch_pending_until = None
        self.fetch_pending_pc = None

    # ------------------------------------------------------------- flush

    def _flush_younger(self, idx: int) -> None:
        """Discard every dispatched instruction younger than ``idx``.

        In place: ``step`` holds aliases of every container here."""
        rob = self.rob
        keep = len(rob)
        while keep and rob[keep - 1].idx > idx:
            keep -= 1  # dispatch order: the younger records are a suffix
        if keep < len(rob):
            self.stats.flushed += len(rob) - keep
            del rob[keep:]
        self.unresolved[:] = [r for r in self.unresolved if r.idx <= idx]
        self.pending_stores = sum(
            1 for r in rob if r.uop.kind is Kind.STORE)
        self._unissued = sum(1 for r in rob if not r.issued)
        # Rebuild the table from the survivors: their issued records
        # under in-order issue (a scoreboard), all of them under
        # out-of-order issue (renaming).
        last_writer = self.last_writer
        last_writer[:] = _NO_WRITERS
        in_order = self._in_order
        for rec in rob:
            if in_order and not rec.issued:
                break   # the issued records are a prefix of the ROB
            dst = rec.uop.dst
            if dst is not None:
                last_writer[dst] = rec
        self._redirect_fetch(self.pc)

    # ------------------------------------------------------- persistence

    @staticmethod
    def _rec_state(rec: _InFlight) -> dict:
        return {
            "pc": rec.pc, "idx": rec.idx,
            "issuable_at": rec.issuable_at,
            # Producer order must survive the round trip: issue gathers
            # sources in dict insertion order. Empty for an in-order
            # record and an issued out-of-order one.
            "producers": [[reg, None if p is None else p.idx]
                          for reg, p in rec.producers.items()],
            # A slot ``step`` left unwritten reads as its dispatch-time
            # value: the defaults below, the fall-through for next_pc.
            "issued": rec.issued,
            "done_cycle": getattr(rec, "done_cycle", 0),
            "result": getattr(rec, "result", None),
            "ea": getattr(rec, "ea", 0),
            "store_value": getattr(rec, "store_value", None),
            "taken": getattr(rec, "taken", False),
            "next_pc": getattr(rec, "next_pc", rec.pc + 4),
            "resolved": rec.resolved,
            "stalled_fetch": getattr(rec, "stalled_fetch", False),
        }

    def state_dict(self) -> dict:
        # "Ghosts" are committed records still referenced as producers by
        # unissued ROB entries of an out-of-order unit (an in-order or an
        # issued record names no producer). Only their
        # issued/done_cycle/result are ever read again, so a stub
        # rebuilt from (idx, pc, done_cycle, result) is
        # behaviour-identical.
        in_rob = {rec.idx for rec in self.rob}
        ghosts: dict[int, _InFlight] = {}
        for rec in self.rob:
            for producer in rec.producers.values():
                if producer is not None and producer.idx not in in_rob:
                    ghosts[producer.idx] = producer
        return {
            "pc": self.pc,
            "rob": [self._rec_state(rec) for rec in self.rob],
            "ghosts": [{"idx": g.idx, "pc": g.pc,
                        "done_cycle": g.done_cycle, "result": g.result}
                       for g in sorted(ghosts.values(),
                                       key=lambda g: g.idx)],
            "fetch_buffer": [pc for _uop, pc in self.fetch_buffer],
            "fetch_pending_until": self.fetch_pending_until,
            "fetch_pending_pc": self.fetch_pending_pc,
            "last_writer": [[reg, rec.idx] for reg, rec
                            in enumerate(self.last_writer)
                            if rec is not None],
            "unresolved": [rec.idx for rec in self.unresolved],
            "pending_stores": self.pending_stores,
            "dispatch_idx": self._dispatch_idx,
            "stop_committed": self.stop_committed,
            "last_stall": self._last_stall.name,
            "activity": self._activity,
            "unissued": self._unissued,
            "stats": asdict(self.stats),
            "fus": self.fus.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        # reset() first: it recomputes the derived caches (_fast, _width,
        # _suppress, ...) and zeroes the shared FU issue ports; every
        # field it touches is then overwritten from the snapshot, with
        # the FU pool restored last.
        self.reset(pc=None)
        uop_at = self.ctx.uop_at
        by_idx: dict[int, _InFlight] = {}
        for g in state["ghosts"]:
            rec = _InFlight(uop_at(g["pc"]), g["pc"], g["idx"], 0)
            rec.issued = True
            rec.done_cycle = g["done_cycle"]
            rec.result = g["result"]
            by_idx[rec.idx] = rec
        rob: list[_InFlight] = []
        for rs in state["rob"]:
            rec = self._record(uop_at(rs["pc"]), rs["pc"], rs["idx"],
                               rs["issuable_at"])
            rec.issued = rs["issued"]
            rec.done_cycle = rs["done_cycle"]
            rec.result = rs["result"]
            rec.ea = rs["ea"]
            rec.store_value = rs["store_value"]
            rec.taken = rs["taken"]
            rec.next_pc = rs["next_pc"]
            rec.resolved = rs["resolved"]
            rec.stalled_fetch = rs["stalled_fetch"]
            rob.append(rec)
            by_idx[rec.idx] = rec
        for rec, rs in zip(rob, state["rob"]):
            if rs["producers"]:
                rec.producers = {reg: None if idx is None else by_idx[idx]
                                 for reg, idx in rs["producers"]}
        self.pc = state["pc"]
        self.rob = rob
        self.fetch_buffer = deque(
            (uop_at(pc), pc) for pc in state["fetch_buffer"])
        self.fetch_pending_until = state["fetch_pending_until"]
        self.fetch_pending_pc = state["fetch_pending_pc"]
        for reg, idx in state["last_writer"]:
            self.last_writer[reg] = by_idx[idx]
        self.unresolved = [by_idx[idx] for idx in state["unresolved"]]
        self.pending_stores = state["pending_stores"]
        self._dispatch_idx = state["dispatch_idx"]
        self.stop_committed = state["stop_committed"]
        self._last_stall = StallReason[state["last_stall"]]
        self._activity = state["activity"]
        self._unissued = state["unissued"]
        self.stats = PipelineStats(**state["stats"])
        self.fus.load_state(state["fus"])

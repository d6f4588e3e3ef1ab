"""The multiscalar processor (Figure 1 of the paper).

A collection of processing units organized as a circular queue with
head and tail pointers. The sequencer walks the CFG task by task:
fetch a task descriptor, predict one of its successor targets, assign
the task to the unit past the tail, and continue from the prediction.
Register values flow to successor tasks on a unidirectional ring under
create/accum mask control; speculative memory lives in the ARB; tasks
retire in order at the head, and squashes (misprediction, memory-order
violation, ARB overflow) discard a suffix of the active task window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arb import ARBFullError, AddressResolutionBuffer
from repro.config import MachineConfig, multiscalar_config
from repro.core.predictor import DescriptorCache, TaskPredictor
from repro.core.results import MultiscalarResult
from repro.core.ring import ForwardingRing
from repro.core.runloop import drive
from repro.core.stats import CycleDistribution, TaskCycleRecord
from repro.isa import semantics
from repro.isa.executor import _fresh_regs, service_syscall
from repro.isa.instruction import Instruction
from repro.isa.program import Program, TargetKind, TaskDescriptor
from repro.memory import BankedDataCache, InstructionCache, SplitTransactionBus
from repro.isa.opcodes import FUClass
from repro.observability.events import Category as _Cat
from repro.pipeline import PipelineContext, UnitPipeline
from repro.pipeline.functional_units import FUPool
from repro.pipeline.unit import MemRetry
from repro.pipeline.unit import NEVER as PIPELINE_NEVER
from repro.resilience.failures import LivelockError, SimulationTimeout

#: Sentinel for "the walk ends here" predictions.
PRED_HALT = -1

#: Snapshot schema v1 records a ``cycle_horizon``. The budget belongs
#: to the run loop now, not the machine, so the key is kept for schema
#: stability and always holds the budget every caller defaults to.
_SNAPSHOT_CYCLE_HORIZON = 20_000_000

# Event-category ints, bound once so emission sites pay no enum lookup.
_TASK = int(_Cat.TASK)
_RING = int(_Cat.RING)
_ARB = int(_Cat.ARB)
_SEQ = int(_Cat.SEQ)
_PREDICT = int(_Cat.PREDICT)


class MultiscalarError(Exception):
    """Configuration or program-structure errors (missing descriptors)."""


@dataclass
class TaskInstance:
    """One task in flight on a processing unit."""

    seq: int
    descriptor: TaskDescriptor
    unit_index: int
    regs: list
    #: The register state this task *inherited* (task-entry values plus
    #: ring deliveries). Successor reconstruction reads non-created
    #: registers from here, never from ``regs``, because a task's
    #: transient writes to registers outside its create mask (e.g. a
    #: suppressed callee's saves) must not leak to successor tasks.
    snapshot: list
    pending: dict[int, int]              # reg -> producer task seq
    create_mask: frozenset[int]
    ras_checkpoint: list[int]
    committed_base: int
    forwarded: set[int] = field(default_factory=set)
    outgoing: dict[int, object] = field(default_factory=dict)
    deferred: set[int] = field(default_factory=set)
    predicted_next: int = PRED_HALT
    predicted_index: int = 0
    stopped: bool = False
    validated: bool = False
    squashed: bool = False
    actual_next: int | None = None
    cycles: TaskCycleRecord = field(default_factory=TaskCycleRecord)
    #: Unit-level cycle skip (fast path): while ``cycle < sleep_until``
    #: the unit's step is provably a no-op and is charged without being
    #: run. External events (a ring arrival, a squash, a retirement, a
    #: task assignment) clear this to 0; may hold pipeline.NEVER when
    #: the unit waits purely on such an event.
    sleep_until: int = 0

    @property
    def entry(self) -> int:
        return self.descriptor.entry


@dataclass
class _UnitSlot:
    index: int
    icache: InstructionCache
    pipeline: UnitPipeline
    context: "_UnitContext"
    task: TaskInstance | None = None


class _UnitContext(PipelineContext):
    """Glue between one unit's pipeline and the multiscalar core."""

    def __init__(self, processor: "MultiscalarProcessor", index: int) -> None:
        self.p = processor
        self.index = index
        # The program never changes for a processor's lifetime; shadow
        # the methods with direct bound references to skip a call layer.
        self.uop_at = processor.program.uop_at
        # The current task's register file and reservation table (reg
        # -> producer task seq), rebound by the processor whenever the
        # unit's task changes. Both containers are mutated in place for
        # a task's whole life, so the pipeline may alias them within a
        # step.
        self.regs: list | None = None
        self.pending: dict[int, int] | None = None

    @property
    def task(self) -> TaskInstance:
        return self.p.units[self.index].task

    def fetch_group(self, addr: int, cycle: int) -> int:
        return self.p.units[self.index].icache.fetch(addr, cycle)

    def instr_at(self, addr: int) -> Instruction | None:
        return self.p.program.instr_at(addr)

    def uop_at(self, addr: int):
        return self.p.program.uop_at(addr)

    def fetch_groups(self):
        return self.p.program.fetch_groups()

    def _is_head(self, task: TaskInstance) -> bool:
        active = self.p.active
        return bool(active) and active[0] is task

    def mem_load(self, instr: Instruction, addr: int, cycle: int):
        task = self.task
        width = semantics.load_width(instr.op)
        try:
            raw = self.p.arb.load(task.seq, addr, width,
                                  is_head=self._is_head(task))
        except ARBFullError:
            self.p.request_arb_space(task)
            raise MemRetry() from None
        value = semantics.load_from_bytes(instr.op, raw)
        done = self.p.dcache.access(addr, cycle, is_store=False)
        return value, done

    def mem_store_prepare(self, instr: Instruction, addr: int) -> None:
        task = self.task
        if self._is_head(task):
            return  # head stores can always write through
        width = semantics.load_width(instr.op)
        try:
            self.p.arb.reserve(task.seq, addr, width)
        except ARBFullError:
            self.p.request_arb_space(task)
            raise MemRetry() from None

    def mem_store(self, instr: Instruction, addr: int, value,
                  cycle: int) -> None:
        task = self.task
        raw = semantics.store_bytes(instr.op, value)
        violator = self.p.arb.store(task.seq, addr, raw,
                                    is_head=self._is_head(task))
        self.p.dcache.access(addr, cycle, is_store=True)
        if violator is not None:
            self.p.request_violation_squash(violator)

    def on_forward(self, reg: int, value) -> None:
        self.p.forward_value(self.task, reg, value)

    def on_release(self, regs) -> None:
        task = self.task
        for reg in regs:
            if reg in task.forwarded:
                continue  # a value is sent at most once per task
            if reg in task.pending:
                task.deferred.add(reg)
            else:
                self.p.forward_value(task, reg, task.regs[reg])

    def on_stop(self, instr: Instruction, next_pc: int) -> None:
        self.p.task_stopped(self.task, next_pc)

    def task_stopped(self) -> bool:
        return self.task.stopped

    def can_commit_syscall(self) -> bool:
        return self._is_head(self.task)

    def on_syscall(self) -> None:
        self.p.syscall(self.task)

    def on_halt(self) -> None:
        self.p.halted = True

    def machine_halted(self) -> bool:
        return self.p.halted


class MultiscalarProcessor:
    """Cycle-level simulator of a multiscalar processor."""

    def __init__(self, program: Program,
                 config: MachineConfig | None = None) -> None:
        if not program.is_multiscalar():
            raise MultiscalarError(
                "program carries no task descriptors; run it through "
                "repro.compiler.annotate or add .task directives")
        self.program = program
        self.config = config or multiscalar_config()
        memory_config = self.config.memory
        self.memory = program.initial_memory()
        self.bus = SplitTransactionBus(memory_config.bus_first,
                                       memory_config.bus_per_extra)
        self.dcache = BankedDataCache(memory_config, self.bus,
                                      self.config.num_banks)
        block_bits = memory_config.dcache_block.bit_length() - 1
        self.arb = AddressResolutionBuffer(
            self.memory, num_banks=self.config.num_banks,
            block_bits=block_bits,
            entries_per_bank=memory_config.arb_entries_per_bank)
        self.num_units = self.config.num_units
        self.units: list[_UnitSlot] = []
        shared_pool: FUPool | None = None
        for index in range(self.num_units):
            context = _UnitContext(self, index)
            if self.config.shared_fp_units:
                pool = FUPool(self.config.unit, share_with=shared_pool,
                              shared_classes=(FUClass.FP,
                                              FUClass.COMPLEX_INT))
                if shared_pool is None:
                    shared_pool = pool
            else:
                pool = None
            slot = _UnitSlot(
                index=index,
                icache=InstructionCache(memory_config, self.bus),
                pipeline=UnitPipeline(self.config.unit, context,
                                      fu_pool=pool,
                                      fast_path=self.config.fast_path),
                context=context)
            # Shadow the context method with the icache's bound fetch:
            # one fetch-group probe per ~4 simulated instructions.
            context.fetch_group = slot.icache.fetch
            self.units.append(slot)
        self.ring = ForwardingRing(self.num_units,
                                   self.config.ring_hop_latency,
                                   self.config.unit.issue_width)
        self.predictor = TaskPredictor(self.config.predictor,
                                       static=self.config.predictor_static)
        self.descriptor_cache = DescriptorCache(
            self.config.predictor.descriptor_cache)
        self.arch_regs = _fresh_regs()
        self.active: list[TaskInstance] = []
        self._next_unit = 0
        self._seq = 0
        self.next_pc: int | None = program.entry
        self.seq_busy_until = 0
        self.cycle = 0
        self.halted = False
        self.output: list[str] = []
        self.distribution = CycleDistribution()
        self.retired_instructions = 0
        self.squashed_instructions = 0
        self.tasks_retired = 0
        self.tasks_squashed = 0
        self.squashes_mispredict = 0
        self.squashes_memory = 0
        self.squashes_arb = 0
        self._squash_request: tuple[str, int] | None = None
        self._squashed_seqs: set[int] = set()
        # Forwarded values of recently retired tasks, kept while any
        # active task still holds a reservation naming them (a retired
        # producer has, by definition, forwarded every create-mask
        # register, but the ring message may die at a reassigned unit).
        self._retired_outgoing: dict[int, dict[int, object]] = {}
        self._last_progress = 0
        #: Cycles without a commit/retire before run() declares livelock.
        #: A watchdog may lower it (see repro.resilience.Watchdog.bind).
        self._progress_window = 200_000
        self._fast = self.config.fast_path
        self._activity = True
        #: Optional structured event bus (repro.observability.EventBus),
        #: planted by EventBus.attach and never serialized: the one way
        #: task lifecycle leaves the machine. Every emission site guards
        #: on ``is not None``, so tracing is zero-cost when disabled.
        self.trace = None

    # ================================================== public interface

    def run(self, max_cycles: int = 20_000_000, checkpointer=None,
            watchdog=None) -> MultiscalarResult:
        entry_task = self.program.task_at(self.program.entry)
        if entry_task is None:
            raise MultiscalarError(
                f"no task descriptor at program entry "
                f"{self.program.entry:#x}")
        drive(self, max_cycles, checkpointer, watchdog)
        # The halting task retires (halt only commits at the head); any
        # younger tasks are speculative overshoot past the program end.
        if self.active:
            self._retire_head(self.cycle)
        for task in self.active:
            self._discard_task(task)
        self.active.clear()
        return self._result()

    # ================================================= the run-loop seam

    def step(self) -> None:
        """Advance under no harness limit (tests single-step the
        machine; a skip then runs to its own next event)."""
        self.advance(PIPELINE_NEVER)

    def advance(self, limit: int) -> None:
        """Execute at least one cycle, stopping at or before ``limit``
        (see :mod:`repro.core.runloop`): one interpreted cycle plus
        its quiescence skip."""
        cycle = self.cycle
        self._activity = False
        self._deliver_ring(cycle)
        active = self.active
        if self.next_pc is not None and cycle >= self.seq_busy_until \
                and len(active) < self.num_units:
            self._try_assign(cycle)
        noted = 0
        issuing = moving = False
        fast = self._fast
        units = self.units
        # The walk iterates the live list, not a snapshot copy: squash
        # victims are always strictly younger than the task whose step
        # triggered the squash (memory violators, ARB youngest, and
        # mispredict successors all sit later in ``active``), so the
        # list only ever loses a suffix past the iterator's position.
        for task in active:
            if task.squashed:
                continue
            slot = units[task.unit_index]
            if slot.task is not task:
                continue
            noted += 1
            pipeline = slot.pipeline
            if task.sleep_until > cycle:
                # Unit-level cycle skip: the unit's last step was quiet
                # and no locally timetabled event fires before
                # sleep_until, so this step would change nothing. Charge
                # the (stable) stall reason exactly as it would have.
                task.cycles.stall_cycles[pipeline._last_stall] += 1
                continue
            # TaskCycleRecord.note, in line (once per unit-cycle).
            if pipeline.step(cycle):
                task.cycles.busy_cycles += 1
                issuing = True
            else:
                task.cycles.stall_cycles[pipeline._last_stall] += 1
                if pipeline._activity:
                    moving = True
                elif fast and self._squash_request is None:
                    # Quiet step: put the unit to sleep until its
                    # earliest locally known event. NEVER (purely
                    # external waits) is fine — the unblocking event
                    # itself clears the sleep.
                    wake = pipeline.wake_cycle(cycle)
                    if wake > cycle + 1:
                        task.sleep_until = wake
            if self._squash_request is not None:
                self._apply_squash_request(cycle)
                moving = True
        if issuing:
            self._last_progress = cycle
        if issuing or moving:
            self._activity = True
        self.distribution.idle += self.num_units - noted
        if active and active[0].stopped:
            self._try_retire(cycle)
        next_cycle = cycle + 1
        if self._fast and not self._activity and not self.halted \
                and self._squash_request is None:
            wake = self._wake_cycle(cycle)
            if wake > limit:
                wake = limit
            if wake > next_cycle:
                self._account_skip(next_cycle, wake)
                next_cycle = wake
        self.cycle = next_cycle

    def _wake_cycle(self, cycle: int) -> int:
        """Earliest cycle at which any machine component could act.

        Only consulted after a globally quiet step. Every locally
        timetabled event contributes a candidate: pipeline completions
        and fetch deliveries (per unit), in-flight ring messages, and
        the sequencer's busy window. Purely external waits (a blocked
        head's retirement chain) are always bounded by some other
        component's candidate or by the deadlock horizon.
        """
        wake = PIPELINE_NEVER
        if self.next_pc is not None:
            busy_until = self.seq_busy_until
            if busy_until > cycle:
                if busy_until <= cycle + 1:
                    return 0
                wake = busy_until
        ring_next = self.ring.next_arrival()
        if ring_next is not None:
            if ring_next <= cycle + 1:
                return 0
            if ring_next < wake:
                wake = ring_next
        for task in self.active:
            slot = self.units[task.unit_index]
            if task.squashed or slot.task is not task:
                return 0  # inconsistent mid-squash state: do not skip
            # A sleeping unit's bound is still valid (nothing local has
            # moved since it was computed; shared-FU claims only push
            # ports later, which makes the cached bound conservative).
            su = task.sleep_until
            unit_wake = su if su > cycle else slot.pipeline.wake_cycle(cycle)
            if unit_wake <= cycle + 1:
                return 0
            if unit_wake < wake:
                wake = unit_wake
        return wake

    def _account_skip(self, start: int, end: int) -> None:
        """Charge the skipped cycles exactly as per-cycle ticking would.

        The window is quiescent, so each active task would have been
        noted with ``issued == 0`` and its (stable) last stall reason on
        every cycle in it, and every unassigned unit would have counted
        idle.
        """
        span = end - start
        busy_units = 0
        for task in self.active:
            slot = self.units[task.unit_index]
            task.cycles.note_many(span, slot.pipeline._last_stall)
            busy_units += 1
        self.distribution.idle += span * (self.num_units - busy_units)

    # ========================================================= sequencer

    def _try_assign(self, cycle: int) -> None:
        """Assign the next task of the walk (``advance`` has checked
        there is one, the sequencer is free, and a unit may be)."""
        if self.halted:
            return
        slot = self.units[self._next_unit]
        if slot.task is not None:
            return  # previous occupant not yet retired
        entry = self.next_pc
        descriptor = self.program.task_at(entry)
        if descriptor is None:
            raise MultiscalarError(
                f"control reached {entry:#x} but no task descriptor "
                "exists there (annotation bug)")
        if not descriptor.mask_is_explicit:
            raise MultiscalarError(
                f"task {descriptor.name or hex(entry)} has no create "
                "mask; run the program through repro.compiler.annotate")
        if not self.descriptor_cache.lookup(entry):
            # Fetch the descriptor (one 4-word transfer) before assigning.
            self.seq_busy_until = self.bus.request(cycle, 4)
            self._activity = True
            if self.trace is not None:
                self.trace.emit(_SEQ, "descriptor_fetch", cycle, -1,
                                {"entry": entry})
            return
        task = self._build_task(descriptor, slot.index)
        slot.task = task
        slot.context.regs = task.regs
        slot.context.pending = task.pending
        slot.pipeline.reset(pc=entry)
        self.active.append(task)
        # The reset above zeroes any shared FU port lists, which can
        # legitimately free a port before another unit's cached sleep
        # bound expected it: wake everyone to re-evaluate.
        for t in self.active:
            t.sleep_until = 0
        self._activity = True
        self._next_unit = (self._next_unit + 1) % self.num_units
        self.seq_busy_until = cycle + 1
        self._last_progress = cycle
        # Predict this task's successor and continue the walk there.
        prediction = self.predictor.predict(descriptor)
        task.predicted_index = prediction.target_index
        if prediction.kind is TargetKind.HALT:
            task.predicted_next = PRED_HALT
            self.next_pc = None
        else:
            task.predicted_next = prediction.addr
            self.next_pc = prediction.addr
        trace = self.trace
        if trace is not None:
            trace.emit(_TASK, "assign", cycle, task.unit_index,
                       {"seq": task.seq,
                        "task": descriptor.name or hex(entry)})
            trace.emit(_PREDICT, "predict", cycle, task.unit_index,
                       {"seq": task.seq, "next": task.predicted_next})

    def _build_task(self, descriptor: TaskDescriptor,
                    unit_index: int) -> TaskInstance:
        self._seq += 1
        predecessor = self.active[-1] if self.active else None
        if predecessor is None:
            regs = list(self.arch_regs)
            pending: dict[int, int] = {}
        else:
            regs = list(predecessor.snapshot)
            # Values the predecessor itself still awaits flow through it
            # on the ring and will reach this unit too.
            pending = dict(predecessor.pending)
        seen: set[int] = set()
        for producer in reversed(self.active):
            for reg in producer.create_mask:
                if reg in seen:
                    continue
                seen.add(reg)
                if reg in producer.outgoing:
                    regs[reg] = producer.outgoing[reg]
                    pending.pop(reg, None)
                else:
                    pending[reg] = producer.seq
        # Reservations inherited from a now-retired producer resolve to
        # the value it forwarded before retiring.
        active_seqs = {t.seq for t in self.active}
        for reg, producer_seq in list(pending.items()):
            if producer_seq not in active_seqs:
                regs[reg] = self._retired_outgoing[producer_seq][reg]
                del pending[reg]
        ras_checkpoint = self.predictor.ras_snapshot()
        pipeline = self.units[unit_index].pipeline
        return TaskInstance(
            seq=self._seq, descriptor=descriptor, unit_index=unit_index,
            regs=list(regs), snapshot=regs, pending=pending,
            create_mask=descriptor.create_mask,
            ras_checkpoint=ras_checkpoint,
            committed_base=pipeline.stats.committed)

    # ============================================================== ring

    def _deliver_ring(self, cycle: int) -> None:
        arrivals = self.ring.arrivals(cycle)
        if arrivals:
            self._activity = True
        for dest, message in arrivals:
            task = self.units[dest].task
            stop_here = False
            if task is not None and not task.squashed:
                task.sleep_until = 0  # external event: re-evaluate
                if task.pending.get(message.reg) == message.sender_seq:
                    task.regs[message.reg] = message.value
                    task.snapshot[message.reg] = message.value
                    del task.pending[message.reg]
                    if message.reg in task.deferred:
                        task.deferred.discard(message.reg)
                        self.forward_value(task, message.reg, message.value)
                    self.ring.stats.deliveries += 1
                    if self.trace is not None:
                        self.trace.emit(_RING, "deliver", cycle, dest,
                                        {"seq": message.sender_seq,
                                         "reg": message.reg})
                if message.reg in task.create_mask:
                    stop_here = True  # this unit produces its own version
            if not stop_here:
                nxt = (dest + 1) % self.num_units
                if nxt != message.origin_unit:
                    self.ring.send(cycle, from_unit=dest,
                                   origin_unit=message.origin_unit,
                                   sender_seq=message.sender_seq,
                                   reg=message.reg, value=message.value)

    def forward_value(self, task: TaskInstance, reg: int, value) -> None:
        """Send a register value to successor tasks (once per task)."""
        if reg in task.forwarded:
            return
        task.forwarded.add(reg)
        task.outgoing[reg] = value
        if self.trace is not None:
            self.trace.emit(_RING, "send", self.cycle, task.unit_index,
                            {"seq": task.seq, "reg": reg})
        if self.num_units > 1:
            self.ring.send(self.cycle, from_unit=task.unit_index,
                           origin_unit=task.unit_index,
                           sender_seq=task.seq, reg=reg, value=value)

    # ================================================== task completion

    def task_stopped(self, task: TaskInstance, next_pc: int) -> None:
        task.stopped = True
        task.actual_next = next_pc
        if self.trace is not None:
            self.trace.emit(_TASK, "stop", self.cycle, task.unit_index,
                            {"seq": task.seq, "next": next_pc})
        # End-of-task release: every create-mask register not yet sent is
        # released now so successors never deadlock (Section 2.2).
        for reg in sorted(task.create_mask - task.forwarded):
            if reg in task.pending:
                task.deferred.add(reg)
            else:
                self.forward_value(task, reg, task.regs[reg])
        self._validate_prediction(task)

    def _validate_prediction(self, task: TaskInstance) -> None:
        if task.validated:
            return
        task.validated = True
        actual = task.actual_next
        descriptor = task.descriptor
        actual_index = None
        return_index = None
        for i, target in enumerate(descriptor.targets):
            if target.kind is TargetKind.ADDR and target.addr == actual:
                actual_index = i
                break
            if target.kind is TargetKind.RETURN and return_index is None:
                return_index = i
        if actual_index is None:
            actual_index = return_index if return_index is not None else 0
        was_correct = task.predicted_next == actual
        self.predictor.update(descriptor, actual_index, was_correct)
        if self.trace is not None:
            self.trace.emit(_PREDICT, "validate", self.cycle,
                            task.unit_index,
                            {"seq": task.seq, "correct": was_correct})
        if was_correct:
            return
        self.squashes_mispredict += 1
        # Repair the return-address stack: undo this task's successor
        # prediction and redo the RAS effect of the actual outcome.
        self.predictor.ras_restore(task.ras_checkpoint)
        target = descriptor.targets[actual_index]
        if target.kind is TargetKind.RETURN and self.predictor.ras:
            self.predictor.ras.pop()
        elif target.kind is TargetKind.ADDR and target.ret_addr:
            self.predictor.ras.append(target.ret_addr)
        try:
            pos = self.active.index(task)
        except ValueError:
            return  # already squashed itself; nothing to repair
        self._squash_from(pos + 1, actual)
        task.predicted_next = actual  # now confirmed

    # =========================================================== squash

    def request_violation_squash(self, violator_seq: int) -> None:
        """A predecessor store hit a successor's earlier load."""
        if self.trace is not None:
            self.trace.emit(_ARB, "violation", self.cycle, -1,
                            {"violator": violator_seq})
        current = self._squash_request
        if current is None or violator_seq < current[1]:
            self._squash_request = ("memory", violator_seq)

    def request_arb_space(self, task: TaskInstance) -> None:
        """A speculative operation found its ARB bank full."""
        if self.config.arb_full_policy == "stall":
            return  # all units but the head simply wait (Section 2.3)
        if self._squash_request is None:
            self._squash_request = ("arb", task.seq)
            if self.trace is not None:
                self.trace.emit(_ARB, "full", self.cycle, -1,
                                {"seq": task.seq})

    def _apply_squash_request(self, cycle: int) -> None:
        kind, seq = self._squash_request
        self._squash_request = None
        if kind == "memory":
            pos = next((i for i, t in enumerate(self.active)
                        if t.seq == seq), None)
            if pos is None:
                return  # violator already squashed by an earlier event
            self.squashes_memory += 1
            victim = self.active[pos]
            if self.trace is not None:
                self.trace.emit(_ARB, "memory_squash", cycle, -1,
                                {"victim": victim.seq})
            self.predictor.ras_restore(victim.ras_checkpoint)
            self._squash_from(pos, victim.entry)
        else:  # ARB overflow: free space by squashing the youngest task.
            if len(self.active) <= 1:
                return
            self.squashes_arb += 1
            victim = self.active[-1]
            if self.trace is not None:
                self.trace.emit(_ARB, "overflow_squash", cycle, -1,
                                {"victim": victim.seq})
            self.predictor.ras_restore(victim.ras_checkpoint)
            self._squash_from(len(self.active) - 1, victim.entry)

    def _squash_from(self, pos: int, restart_pc: int | None) -> None:
        """Squash active tasks [pos:] and restart the walk at restart_pc."""
        victims = self.active[pos:]
        for task in reversed(victims):
            self._discard_task(task)
        del self.active[pos:]
        if victims:
            # Shared machine state changed (ARB entries freed, shared FU
            # ports reset, in-flight messages dropped): every surviving
            # unit must re-evaluate rather than keep a stale sleep bound.
            for task in self.active:
                task.sleep_until = 0
            self._next_unit = victims[0].unit_index
            self.ring.drop_stale(self._squashed_seqs)
            self._squashed_seqs.clear()
            self.seq_busy_until = max(
                self.seq_busy_until,
                self.cycle + self.config.squash_overhead)
        self.next_pc = restart_pc

    def _discard_task(self, task: TaskInstance) -> None:
        task.squashed = True
        self.tasks_squashed += 1
        self._squashed_seqs.add(task.seq)
        self.arb.squash_task(task.seq)
        slot = self.units[task.unit_index]
        self.squashed_instructions += (
            slot.pipeline.stats.committed - task.committed_base)
        slot.pipeline.reset(pc=None)
        slot.task = None
        slot.context.regs = None
        slot.context.pending = None
        self.distribution.fold_squashed(task.cycles)
        trace = self.trace
        if trace is not None:
            trace.emit(_TASK, "squash", self.cycle, task.unit_index,
                       {"seq": task.seq})
            trace.emit(_ARB, "occupancy", self.cycle, -1,
                       {"entries": self.arb.entry_count()})

    # =========================================================== retire

    def _try_retire(self, cycle: int) -> None:
        """Retire the head task (``advance`` has checked it stopped)
        once its pipeline has drained and its last values are in."""
        head = self.active[0]
        if self.units[head.unit_index].pipeline.rob:
            return
        if head.pending or head.deferred:
            return  # a predecessor value is still in flight on the ring
        self._retired_outgoing[head.seq] = head.outgoing
        referenced = {seq for t in self.active if t is not head
                      for seq in t.pending.values()}
        for seq in [s for s in self._retired_outgoing
                    if s not in referenced and s != head.seq]:
            del self._retired_outgoing[seq]
        self._retire_head(cycle)
        # Headship moved and the ARB committed a task's stores: wake
        # every unit (syscall commit gates, store-ordering waits, and
        # "stall"-policy ARB space all key off the head).
        for task in self.active:
            task.sleep_until = 0
        self._last_progress = cycle
        self._activity = True

    def _retire_head(self, cycle: int) -> None:
        """Commit the head task's state and account for it: what a
        mid-run retirement and the halting head's epilogue share."""
        head = self.active[0]
        slot = self.units[head.unit_index]
        self.arb.commit_task(head.seq)
        self.arch_regs = list(head.regs)
        self.retired_instructions += (
            slot.pipeline.stats.committed - head.committed_base)
        self.distribution.fold_retired(head.cycles)
        self.tasks_retired += 1
        slot.task = None
        slot.context.regs = None
        slot.context.pending = None
        self.active.pop(0)
        trace = self.trace
        if trace is not None:
            # A stopped task has released its whole create mask; any
            # register it still owes is a ring-protocol bug, reported in
            # the event only then so healthy streams stay unchanged.
            args = {"seq": head.seq}
            unforwarded = head.create_mask - head.forwarded
            if head.stopped and unforwarded:
                args["unforwarded"] = sorted(unforwarded)
            trace.emit(_TASK, "retire", cycle, head.unit_index, args)
            trace.emit(_ARB, "occupancy", cycle, -1,
                       {"entries": self.arb.entry_count()})

    # =========================================================== system

    def syscall(self, task: TaskInstance) -> None:
        if service_syscall(task.regs, self.output,
                           lambda addr: self._read_string(task, addr)):
            self.halted = True

    def _read_string(self, task: TaskInstance, addr: int,
                     limit: int = 1 << 16) -> str:
        # Read through the ARB so the head sees its own pending stores.
        out = bytearray()
        for i in range(limit):
            byte = self.arb.load(task.seq, addr + i, 1, is_head=True)[0]
            if byte == 0:
                break
            out.append(byte)
        return out.decode("latin-1")

    # ============================================================ result

    def _result(self) -> MultiscalarResult:
        cycles = self.cycle
        instructions = self.retired_instructions
        return MultiscalarResult(
            cycles=cycles,
            instructions=instructions,
            output="".join(self.output),
            ipc=instructions / cycles if cycles else 0.0,
            tasks_retired=self.tasks_retired,
            tasks_squashed=self.tasks_squashed,
            squashes_mispredict=self.squashes_mispredict,
            squashes_memory=self.squashes_memory,
            squashes_arb=self.squashes_arb,
            prediction_accuracy=self.predictor.stats.accuracy,
            distribution=self.distribution,
            icache_misses=sum(s.icache.stats.misses for s in self.units),
            dcache_misses=self.dcache.stats.misses,
            arb_peak_entries=self.arb.stats.peak_entries,
            ring_sends=self.ring.stats.sends)

    def _deadlock_report(self) -> str:
        lines = [f"no forward progress since cycle {self._last_progress} "
                 f"(now {self.cycle})"]
        for i, task in enumerate(self.active):
            slot = self.units[task.unit_index]
            pending = {reg: seq for reg, seq in task.pending.items()}
            lines.append(
                f"  [{i}] unit {task.unit_index} task "
                f"{task.descriptor.name or hex(task.entry)} seq {task.seq} "
                f"stopped={task.stopped} pending={pending} "
                f"rob={len(slot.pipeline.rob)} pc={slot.pipeline.pc}")
        return "\n".join(lines)

    def _timeout_error(self, budget: int) -> SimulationTimeout:
        return SimulationTimeout(
            f"exceeded {budget} cycles (head task at "
            f"{self.active[0].entry:#x})" if self.active else
            f"exceeded {budget} cycles")

    def instructions_executed(self) -> int:
        """Dynamic instructions executed so far (retired + squashed +
        in flight)."""
        in_flight = sum(slot.pipeline.stats.committed
                        - slot.task.committed_base
                        for slot in self.units if slot.task is not None)
        return (self.retired_instructions + self.squashed_instructions
                + in_flight)

    def state_entries(self) -> int:
        """Simulated-state footprint: touched memory pages plus live
        ARB entries and ROB occupancy."""
        return (len(self.memory._pages) + self.arb.entry_count()
                + sum(len(slot.pipeline.rob) for slot in self.units))

    def _livelock_error(self) -> LivelockError:
        units = []
        for i, task in enumerate(self.active):
            slot = self.units[task.unit_index]
            units.append({
                "position": i,
                "unit": task.unit_index,
                "task": task.descriptor.name or hex(task.entry),
                "seq": task.seq,
                "stopped": task.stopped,
                "pending": dict(task.pending),
                "rob": len(slot.pipeline.rob),
                "pc": slot.pipeline.pc,
            })
        message = self._deadlock_report()
        if units:
            head = units[0]
            message += (f"\n  stuck head: unit {head['unit']} task "
                        f"{head['task']} seq {head['seq']}")
        return LivelockError(message, cycle=self.cycle,
                             last_progress=self._last_progress, units=units)

    # ======================================================= persistence

    def state_dict(self) -> dict:
        """Complete machine state as a JSON-serializable dict.

        Invariant: a processor restored from this dict continues
        bit-identically to one that never stopped (same cycle counts,
        stall distributions, outputs, and memory). Non-JSON containers
        use canonical encodings: int-keyed dicts as sorted [k, v] pair
        lists, sets as sorted lists, bytes as base64.
        """
        return {
            "cycle": self.cycle,
            "halted": self.halted,
            "next_pc": self.next_pc,
            "seq_busy_until": self.seq_busy_until,
            "next_unit": self._next_unit,
            "seq": self._seq,
            "output": list(self.output),
            "arch_regs": list(self.arch_regs),
            "memory": self.memory.state_dict(),
            "bus": self.bus.state_dict(),
            "dcache": self.dcache.state_dict(),
            "arb": self.arb.state_dict(),
            "ring": self.ring.state_dict(),
            "predictor": self.predictor.state_dict(),
            "descriptor_cache": self.descriptor_cache.state_dict(),
            "active": [self._task_state(task) for task in self.active],
            "units": [
                {"icache": slot.icache.state_dict(),
                 "pipeline": slot.pipeline.state_dict(),
                 "task_seq": None if slot.task is None else slot.task.seq}
                for slot in self.units],
            "distribution": self.distribution.as_dict(),
            "retired_instructions": self.retired_instructions,
            "squashed_instructions": self.squashed_instructions,
            "tasks_retired": self.tasks_retired,
            "tasks_squashed": self.tasks_squashed,
            "squashes_mispredict": self.squashes_mispredict,
            "squashes_memory": self.squashes_memory,
            "squashes_arb": self.squashes_arb,
            "squash_request": (None if self._squash_request is None
                               else list(self._squash_request)),
            "squashed_seqs": sorted(self._squashed_seqs),
            "retired_outgoing": [
                [seq, sorted([reg, value] for reg, value
                             in outgoing.items())]
                for seq, outgoing in sorted(self._retired_outgoing.items())],
            "last_progress": self._last_progress,
            "progress_window": self._progress_window,
            "cycle_horizon": _SNAPSHOT_CYCLE_HORIZON,
            "activity": self._activity,
        }

    @staticmethod
    def _task_state(task: TaskInstance) -> dict:
        return {
            "seq": task.seq,
            "entry": task.entry,
            "unit_index": task.unit_index,
            "regs": list(task.regs),
            "snapshot": list(task.snapshot),
            "pending": sorted([reg, seq]
                              for reg, seq in task.pending.items()),
            "ras_checkpoint": list(task.ras_checkpoint),
            "committed_base": task.committed_base,
            "forwarded": sorted(task.forwarded),
            "outgoing": sorted([reg, value]
                               for reg, value in task.outgoing.items()),
            "deferred": sorted(task.deferred),
            "predicted_next": task.predicted_next,
            "predicted_index": task.predicted_index,
            "stopped": task.stopped,
            "validated": task.validated,
            "squashed": task.squashed,
            "actual_next": task.actual_next,
            "cycles": task.cycles.as_dict(),
            "sleep_until": task.sleep_until,
        }

    def load_state(self, state: dict) -> None:
        """Restore the machine from :meth:`state_dict` output.

        The processor must have been constructed with the same program
        and configuration that produced the snapshot.
        """
        self.cycle = state["cycle"]
        self.halted = state["halted"]
        self.next_pc = state["next_pc"]
        self.seq_busy_until = state["seq_busy_until"]
        self._next_unit = state["next_unit"]
        self._seq = state["seq"]
        self.output = list(state["output"])
        self.arch_regs = list(state["arch_regs"])
        # The ARB and every unit context hold references to this
        # SparseMemory object; load_state rebinds its page table in
        # place of the same object, keeping those references valid.
        self.memory.load_state(state["memory"])
        self.bus.load_state(state["bus"])
        self.dcache.load_state(state["dcache"])
        self.arb.load_state(state["arb"])
        self.ring.load_state(state["ring"])
        self.predictor.load_state(state["predictor"])
        self.descriptor_cache.load_state(state["descriptor_cache"])
        self.active = [self._load_task(ts) for ts in state["active"]]
        by_seq = {task.seq: task for task in self.active}
        # Pipelines restore after their tasks exist so each context's
        # regs/pending can rebind to the restored containers.
        # The per-pipeline reset() inside load_state zeroes shared FU
        # ports already restored by an earlier unit, but every aliasing
        # pool then rewrites them with identical snapshot values.
        for slot, unit_state in zip(self.units, state["units"]):
            slot.icache.load_state(unit_state["icache"])
            slot.pipeline.load_state(unit_state["pipeline"])
            task_seq = unit_state["task_seq"]
            task = None if task_seq is None else by_seq[task_seq]
            slot.task = task
            slot.context.regs = None if task is None else task.regs
            slot.context.pending = (None if task is None
                                        else task.pending)
        self.distribution = CycleDistribution.from_dict(
            state["distribution"])
        self.retired_instructions = state["retired_instructions"]
        self.squashed_instructions = state["squashed_instructions"]
        self.tasks_retired = state["tasks_retired"]
        self.tasks_squashed = state["tasks_squashed"]
        self.squashes_mispredict = state["squashes_mispredict"]
        self.squashes_memory = state["squashes_memory"]
        self.squashes_arb = state["squashes_arb"]
        request = state["squash_request"]
        self._squash_request = None if request is None else tuple(request)
        self._squashed_seqs = set(state["squashed_seqs"])
        self._retired_outgoing = {
            seq: {reg: value for reg, value in pairs}
            for seq, pairs in state["retired_outgoing"]}
        self._last_progress = state["last_progress"]
        self._progress_window = state["progress_window"]
        self._activity = state["activity"]

    def _load_task(self, state: dict) -> TaskInstance:
        descriptor = self.program.task_at(state["entry"])
        if descriptor is None:
            raise MultiscalarError(
                f"snapshot names a task at {state['entry']:#x} but the "
                "program has no descriptor there (program mismatch)")
        return TaskInstance(
            seq=state["seq"], descriptor=descriptor,
            unit_index=state["unit_index"],
            regs=list(state["regs"]), snapshot=list(state["snapshot"]),
            pending={reg: seq for reg, seq in state["pending"]},
            create_mask=descriptor.create_mask,
            ras_checkpoint=list(state["ras_checkpoint"]),
            committed_base=state["committed_base"],
            forwarded=set(state["forwarded"]),
            outgoing={reg: value for reg, value in state["outgoing"]},
            deferred=set(state["deferred"]),
            predicted_next=state["predicted_next"],
            predicted_index=state["predicted_index"],
            stopped=state["stopped"],
            validated=state["validated"],
            squashed=state["squashed"],
            actual_next=state["actual_next"],
            cycles=TaskCycleRecord.from_dict(state["cycles"]),
            sleep_until=state["sleep_until"])

"""The scalar baseline processor (Section 5.1, "Scalar IPC" columns).

A single aggressive processing unit: the same 5-stage pipeline as a
multiscalar unit (in-order or out-of-order, 1- or 2-way issue), a 32 KB
instruction cache, a single data cache with a 1-cycle hit, and the
shared split-transaction memory bus. Multiscalar tag bits are ignored,
so the scalar core can also run annotated binaries for equivalence
testing (release instructions execute as no-ops).
"""

from __future__ import annotations

from repro.config import MachineConfig, scalar_config
from repro.core.results import ScalarResult
from repro.core.runloop import drive
from repro.isa import semantics
from repro.isa.executor import _fresh_regs, service_syscall
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.memory import InstructionCache, ScalarDataCache, SplitTransactionBus
from repro.pipeline import PipelineContext, UnitPipeline
from repro.pipeline.context import StallReason
from repro.resilience.failures import LivelockError, SimulationTimeout


class _ScalarContext(PipelineContext):
    def __init__(self, processor: "ScalarProcessor") -> None:
        self.p = processor
        # Shadow the methods with direct bound references (the program
        # and register file are fixed per processor); skips a call layer
        # on the hot path. fetch_group is bound in ScalarProcessor's
        # constructor once the icache exists.
        self.uop_at = processor.program.uop_at
        self.regs = processor.regs
        self.pending = {}

    def fetch_group(self, addr: int, cycle: int) -> int:
        return self.p.icache.fetch(addr, cycle)

    def instr_at(self, addr: int) -> Instruction | None:
        return self.p.program.instr_at(addr)

    def uop_at(self, addr: int):
        return self.p.program.uop_at(addr)

    def fetch_groups(self):
        return self.p.program.fetch_groups()

    def mem_load(self, instr: Instruction, addr: int, cycle: int):
        value = semantics.do_load(instr.op, self.p.memory, addr)
        done = self.p.dcache.access(addr, cycle, is_store=False)
        return value, done

    def mem_store(self, instr: Instruction, addr: int, value,
                  cycle: int) -> None:
        semantics.do_store(instr.op, self.p.memory, addr, value)
        self.p.dcache.access(addr, cycle, is_store=True)

    def suppress_annotations(self) -> bool:
        return True

    def on_syscall(self) -> None:
        self.p.syscall()

    def on_halt(self) -> None:
        self.p.halted = True

    def machine_halted(self) -> bool:
        return self.p.halted


class ScalarProcessor:
    """Runs a program on one pipelined processing unit."""

    def __init__(self, program: Program,
                 config: MachineConfig | None = None) -> None:
        self.program = program
        self.config = config or scalar_config()
        self.memory = program.initial_memory()
        self.regs = _fresh_regs()
        self.bus = SplitTransactionBus(self.config.memory.bus_first,
                                       self.config.memory.bus_per_extra)
        self.icache = InstructionCache(self.config.memory, self.bus)
        self.dcache = ScalarDataCache(self.config.memory, self.bus)
        self.halted = False
        self.output: list[str] = []
        self.cycle = 0
        #: Optional structured event bus (repro.observability.EventBus),
        #: planted by EventBus.attach; never serialized.
        self.trace = None
        self._last_progress = 0
        #: Cycles without an issue before run() declares livelock.
        self._progress_window = 200_000
        self.stall_cycles: dict[str, int] = {r.name: 0 for r in StallReason}
        self._fast = self.config.fast_path
        ctx = _ScalarContext(self)
        ctx.fetch_group = self.icache.fetch
        self.pipeline = UnitPipeline(self.config.unit, ctx,
                                     fast_path=self.config.fast_path)
        self.pipeline.reset(pc=program.entry)
        #: Trace-JIT engine (repro.jit), built by run(); None before the
        #: first run and for configurations the JIT does not serve.
        self._jit = None

    def syscall(self) -> None:
        if service_syscall(self.regs, self.output,
                           self.memory.read_cstring):
            self.halted = True

    def run(self, max_cycles: int = 20_000_000, checkpointer=None,
            watchdog=None) -> ScalarResult:
        jit = self._jit
        if self.config.jit and (jit is None or not jit.fresh()):
            # Annotation passes replace the program's uop list
            # (Program.invalidate_uops), which stales a cached engine.
            from repro.jit.engine import engine_for

            self._jit = engine_for(self.program, self.config)
        # The scalar budget is inclusive: the run may *reach* cycle
        # max_cycles, so the first forbidden cycle is one past it.
        drive(self, max_cycles + 1, checkpointer, watchdog)
        committed = self.pipeline.stats.committed
        return ScalarResult(
            cycles=self.cycle,
            instructions=committed,
            output="".join(self.output),
            ipc=committed / self.cycle if self.cycle else 0.0,
            icache_misses=self.icache.stats.misses,
            dcache_misses=self.dcache.stats.misses,
            stall_cycles=dict(self.stall_cycles),
        )

    # ------------------------------------------------- the run-loop seam

    def advance(self, limit: int) -> None:
        """Execute at least one cycle, stopping at or before ``limit``
        (see :mod:`repro.core.runloop`)."""
        pipeline = self.pipeline
        stall_cycles = self.stall_cycles
        cycle = self.cycle
        jit = self._jit
        window = None
        if jit is not None:
            window = jit.try_run(pipeline, pipeline.ctx, cycle, limit)
        if window is not None:
            next_cycle, _code, last_issue, _busy = window
            if last_issue >= 0:
                self._last_progress = last_issue
            counts = jit.counts
            for reason in StallReason:
                stalled = counts[reason]
                if stalled:
                    stall_cycles[reason.name] += stalled
                    counts[reason] = 0
        else:
            issued = pipeline.step(cycle)
            if issued:
                self._last_progress = cycle
            else:
                reason = pipeline._last_stall
                stall_cycles[reason.name] += 1
            next_cycle = cycle + 1
            if self._fast and not issued and not self.halted:
                # Quiescence-aware cycle skipping: with nothing issued
                # and no local state change, jump to the unit's next
                # known event, charging the skipped cycles to the same
                # (stable) stall reason per-cycle ticking would have.
                wake = pipeline.wake_cycle(cycle)
                if wake > limit:
                    wake = limit
                if wake > next_cycle:
                    stall_cycles[reason.name] += wake - next_cycle
                    next_cycle = wake
        self.cycle = next_cycle

    def _timeout_error(self, budget: int) -> SimulationTimeout:
        return SimulationTimeout(
            f"scalar run exceeded {budget - 1} cycles")

    def instructions_executed(self) -> int:
        """Dynamic instructions executed so far."""
        return self.pipeline.stats.committed

    def state_entries(self) -> int:
        """Simulated-state footprint: touched memory pages plus ROB
        occupancy."""
        return len(self.memory._pages) + len(self.pipeline.rob)

    def _livelock_error(self) -> LivelockError:
        pipeline = self.pipeline
        units = [{
            "position": 0,
            "unit": 0,
            "task": "scalar",
            "seq": 0,
            "stopped": False,
            "pending": {},
            "rob": len(pipeline.rob),
            "pc": pipeline.pc,
        }]
        message = (f"scalar pipeline made no progress since cycle "
                   f"{self._last_progress} (now {self.cycle}): "
                   f"rob={len(pipeline.rob)} pc={pipeline.pc} "
                   f"stall={pipeline._last_stall.name}"
                   f"\n  stuck head: unit 0 task scalar seq 0")
        return LivelockError(message, cycle=self.cycle,
                             last_progress=self._last_progress, units=units)

    # ------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Complete machine state as a JSON-serializable dict."""
        return {
            "cycle": self.cycle,
            "halted": self.halted,
            "output": list(self.output),
            "regs": list(self.regs),
            "memory": self.memory.state_dict(),
            "bus": self.bus.state_dict(),
            "icache": self.icache.state_dict(),
            "dcache": self.dcache.state_dict(),
            "pipeline": self.pipeline.state_dict(),
            "stall_cycles": dict(self.stall_cycles),
            "last_progress": self._last_progress,
            "progress_window": self._progress_window,
        }

    def load_state(self, state: dict) -> None:
        """Restore the machine from :meth:`state_dict` output.

        The processor must have been constructed with the same program
        and configuration that produced the snapshot.
        """
        self.cycle = state["cycle"]
        self.halted = state["halted"]
        self.output = list(state["output"])
        # In-place restore: the pipeline context aliases this list.
        self.regs[:] = state["regs"]
        self.memory.load_state(state["memory"])
        self.bus.load_state(state["bus"])
        self.icache.load_state(state["icache"])
        self.dcache.load_state(state["dcache"])
        self.pipeline.load_state(state["pipeline"])
        self.stall_cycles = {str(name): count for name, count
                             in state["stall_cycles"].items()}
        self._last_progress = state["last_progress"]
        self._progress_window = state["progress_window"]

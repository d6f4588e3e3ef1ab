"""The interface between a unit pipeline and its surrounding machine.

The pipeline engine is identical for the scalar baseline and for each
multiscalar processing unit; everything that differs — where register
values live, how memory is reached, what the multiscalar tag bits mean —
is behind :class:`PipelineContext`.
"""

from __future__ import annotations

import abc

from repro.isa.instruction import Instruction
from repro.pipeline.stall import StallReason  # re-exported: its old home


class PipelineContext(abc.ABC):
    """Machine-side services for one :class:`UnitPipeline`."""

    # ----------------------------------------------------------- fetch

    @abc.abstractmethod
    def fetch_group(self, addr: int, cycle: int) -> int:
        """Start an icache fetch for the group at ``addr``.

        Returns the cycle the instructions become available to decode.
        """

    @abc.abstractmethod
    def instr_at(self, addr: int) -> Instruction | None:
        """Decoded instruction at ``addr`` (None outside the text)."""

    def uop_at(self, addr: int):
        """Pre-decoded micro-op at ``addr`` (None outside the text).

        The processor contexts override this with the program's interned
        micro-op table; the default decodes on demand (with a per-context
        memo) so simple test contexts only need ``instr_at``.
        """
        cache = getattr(self, "_uop_cache", None)
        if cache is None:
            cache = self._uop_cache = {}
        uop = cache.get(addr)
        if uop is None:
            instr = self.instr_at(addr)
            if instr is None:
                return None
            from repro.isa.uop import MicroOp

            uop = cache[addr] = MicroOp(instr)
        return uop

    @abc.abstractmethod
    def fetch_groups(self) -> dict:
        """The program's fetch-group table (``Program.fetch_groups``):
        fetch address -> ``(((uop, pc), ...), next fetch pc)``."""

    # -------------------------------------------------------- registers

    #: The unit's register file, indexed by unified register number,
    #: and the registers in it still awaiting a value from a
    #: predecessor task (only the keys matter here; always empty on a
    #: scalar core). The pipeline reads and writes both directly — a
    #: few times per simulated instruction, too often for a method
    #: call each — so a context keeps the two names bound to the
    #: current task's containers. A committed result is stored into
    #: ``regs`` and supersedes any wait recorded in ``pending``.
    regs: list
    pending: dict

    # ----------------------------------------------------------- memory

    @abc.abstractmethod
    def mem_load(self, instr: Instruction, addr: int, cycle: int):
        """Perform a load; returns ``(value, done_cycle)``."""

    def mem_store_prepare(self, instr: Instruction, addr: int) -> None:
        """Called when a store issues (address known).

        A multiscalar context reserves ARB space here so that the commit
        -time store can never fail; raises MemRetry when the ARB bank is
        full and the store must retry issue later.
        """

    @abc.abstractmethod
    def mem_store(self, instr: Instruction, addr: int, value,
                  cycle: int) -> None:
        """Perform a store (called at commit time)."""

    # ------------------------------------------- multiscalar annotations

    def on_forward(self, reg: int, value) -> None:
        """A committed instruction had its forward bit set."""

    def on_release(self, regs: tuple[int, ...]) -> None:
        """A release instruction committed."""

    def on_stop(self, instr: Instruction, next_pc: int) -> None:
        """The task's stop condition was satisfied at commit."""

    def task_stopped(self) -> bool:
        """True once the task has committed its stop instruction."""
        return False

    # ------------------------------------------------------------ system

    def can_commit_syscall(self) -> bool:
        """True when a syscall may commit (non-speculative context)."""
        return True

    @abc.abstractmethod
    def on_syscall(self) -> None:
        """Execute a syscall's architectural effect."""

    def machine_halted(self) -> bool:
        """True once the machine has halted (e.g. an exit syscall).

        Checked right after a syscall commits: nothing younger may
        commit once the program has exited, exactly as for HALT.
        """
        return False

    @abc.abstractmethod
    def on_halt(self) -> None:
        """A HALT instruction committed."""

    def suppress_annotations(self) -> bool:
        """True when tag bits are ignored (scalar mode, suppressed calls)."""
        return False

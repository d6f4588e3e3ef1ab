"""Program images: code, data, symbols, and task descriptors.

A :class:`Program` is what the assembler produces and what every
simulator consumes. It bundles the decoded instruction stream (word
addressed, starting at ``TEXT_BASE``), the initial data image, the
symbol table, and — for multiscalar binaries — the task descriptors that
the sequencer walks (Section 2.2 of the paper: successor targets and the
create mask of each task).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.memory_image import SparseMemory
from repro.isa.registers import reg_name

#: Base address of the instruction text segment.
TEXT_BASE = 0x0000_1000
#: Base address of the static data segment.
DATA_BASE = 0x1000_0000
#: Initial stack pointer (stack grows down).
STACK_TOP = 0x7FFF_F000
#: Base address of the heap used by the workloads' bump allocator.
HEAP_BASE = 0x2000_0000


class TargetKind(enum.Enum):
    """Kinds of successor-task targets in a task descriptor."""

    ADDR = enum.auto()     # a static task entry address
    RETURN = enum.auto()   # successor comes from the return-address stack
    HALT = enum.auto()     # program exits after this task


@dataclass(frozen=True)
class TaskTarget:
    """One possible successor of a task.

    ``ret_addr`` is set on call-type targets (a task that ends by
    calling a task-partitioned function): it is the task entry the
    callee eventually returns to, pushed on the sequencer's
    return-address stack when this target is predicted.
    """

    kind: TargetKind
    addr: int = 0
    ret_addr: int = 0

    def __str__(self) -> str:
        if self.kind is TargetKind.ADDR:
            return f"{self.addr:#x}"
        return self.kind.name.lower()


@dataclass
class TaskDescriptor:
    """Static description of one task (paper Section 2.2, Figure 4).

    ``targets`` lists the possible successor tasks (at most four, per the
    paper's PAs predictor configuration); ``create_mask`` is the set of
    unified register indices the task may produce and must therefore
    forward or release before successors may read them.
    """

    entry: int
    targets: tuple[TaskTarget, ...]
    create_mask: frozenset[int]
    name: str = ""
    #: False when the assembler saw no ``creates=`` clause; the compiler's
    #: annotation pass then computes the mask from the CFG (Section 2.2).
    mask_is_explicit: bool = True

    def __post_init__(self) -> None:
        if len(self.targets) > 4:
            raise ValueError(
                f"task at {self.entry:#x} has {len(self.targets)} targets; "
                "the sequencer predicts among at most 4")

    def describe(self) -> str:
        regs = ", ".join(reg_name(r) for r in sorted(self.create_mask))
        tgts = ", ".join(str(t) for t in self.targets)
        return (f"task {self.name or hex(self.entry)}: "
                f"targets=[{tgts}] creates={{{regs}}}")


@dataclass
class Program:
    """A complete machine program image."""

    instructions: list[Instruction]
    labels: dict[str, int]
    data: SparseMemory
    entry: int
    tasks: dict[int, TaskDescriptor] = field(default_factory=dict)
    source_name: str = "<asm>"
    #: Lazily built pre-decoded micro-op list, parallel to
    #: ``instructions`` (repro.isa.uop). Rebuilt whenever the
    #: instruction list changes length; callers that mutate instructions
    #: in place must call :meth:`invalidate_uops`.
    _uops: list = field(default=None, repr=False, compare=False)
    #: The table behind :meth:`fetch_groups`; built on first use and
    #: dropped with the uop list it was built from.
    _fetch_groups: dict = field(default=None, repr=False, compare=False)

    @property
    def text_base(self) -> int:
        return TEXT_BASE

    @property
    def text_end(self) -> int:
        return TEXT_BASE + 4 * len(self.instructions)

    def instr_at(self, addr: int) -> Instruction | None:
        """Instruction at a word address, or None if outside the text."""
        index = (addr - TEXT_BASE) >> 2
        if 0 <= index < len(self.instructions) and (addr & 3) == 0:
            return self.instructions[index]
        return None

    def uops(self) -> list:
        """The pre-decoded micro-op list, built on first use."""
        if self._uops is None or len(self._uops) != len(self.instructions):
            from repro.isa.uop import predecode

            self._uops = predecode(self.instructions)
            self._fetch_groups = None
        return self._uops

    def uop_at(self, addr: int):
        """Micro-op at a word address, or None if outside the text."""
        uops = self._uops
        if uops is None or len(uops) != len(self.instructions):
            uops = self.uops()
        index = (addr - TEXT_BASE) >> 2
        if 0 <= index < len(uops) and (addr & 3) == 0:
            return uops[index]
        return None

    def fetch_groups(self) -> "FetchGroups":
        """The fetch-group table: ``groups[addr]`` is what one
        instruction fetch starting at ``addr`` delivers (see
        :class:`FetchGroups`). Built once per micro-op list and shared
        by every unit of every processor running this program."""
        uops = self._uops
        if uops is None or len(uops) != len(self.instructions):
            uops = self.uops()
        groups = self._fetch_groups
        if groups is None:
            groups = self._fetch_groups = FetchGroups(uops)
        return groups

    def invalidate_uops(self) -> None:
        """Drop the cached micro-ops and the fetch-group table built
        from them (after mutating ``instructions``)."""
        self._uops = None
        self._fetch_groups = None

    def label_addr(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(f"no such label: {name!r}") from None

    def task_at(self, addr: int) -> TaskDescriptor | None:
        return self.tasks.get(addr)

    def initial_memory(self) -> SparseMemory:
        """A fresh copy of the initial data image for one simulation run."""
        return self.data.copy()

    def is_multiscalar(self) -> bool:
        """True if the binary carries task descriptors."""
        return bool(self.tasks)

    def listing(self) -> str:
        """Human-readable disassembly with addresses and tags."""
        addr_to_label = {a: n for n, a in self.labels.items()}
        lines = []
        for instr in self.instructions:
            if instr.addr in addr_to_label:
                lines.append(f"{addr_to_label[instr.addr]}:")
            if instr.addr in self.tasks:
                lines.append(f"    # {self.tasks[instr.addr].describe()}")
            lines.append(f"    {instr.addr:#08x}  {instr}")
        return "\n".join(lines)


class FetchGroups(dict):
    """Fetch address -> ``(pairs, next_pc)``: the ``(uop, pc)`` pairs
    from that address to the end of its 16-byte fetch group, and the pc
    fetch continues at (None when the group ran off the end of the
    text). A delivery is one subscript and one ``deque.extend``; the
    pairs are built once and shared by every fetch."""

    def __init__(self, uops: list) -> None:
        pairs = [(uop, TEXT_BASE + 4 * index)
                 for index, uop in enumerate(uops)]
        for index in range(len(uops)):
            end = (index | 3) + 1       # TEXT_BASE is group-aligned
            self[TEXT_BASE + 4 * index] = (
                tuple(pairs[index:end]),
                TEXT_BASE + 4 * end if end <= len(uops) else None)

    def __missing__(self, addr: int) -> tuple[tuple, int | None]:
        # Outside the text or misaligned: nothing arrives. Fetch stops,
        # unless the address sits in the last bytes of its group, where
        # the (empty) request counts as complete and is reissued.
        return (), (None if ((addr & ~15) + 16 - addr) >> 2 else addr)

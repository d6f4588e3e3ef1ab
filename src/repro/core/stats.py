"""Cycle accounting for multiscalar execution (paper Section 3).

Every unit-cycle of a run falls into exactly one bucket:

* **useful** — the unit issued computation that was ultimately retired;
* **non-useful** — the unit issued computation that was later squashed
  (incorrect data value or incorrect prediction);
* **no-computation** — the unit held a task but issued nothing, split
  into the paper's sub-causes: waiting on a predecessor task's value
  (inter-task), waiting on an in-task dependence/fetch (intra-task),
  waiting to be retired at the head, or holding a syscall until
  non-speculative;
* **idle** — the unit had no assigned task.

The invariant ``idle + useful + non_useful + sum(no_comp) ==
units × cycles`` is checked by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.stall import StallReason

#: Stall buckets a task can be charged with (classification never
#: yields NONE for a stalled cycle). Pre-seeding every task's tally
#: with these keys lets the per-cycle noting use a bare ``+=``.
_CHARGEABLE = tuple(r for r in StallReason if r is not StallReason.NONE)


def _fresh_stalls() -> dict[StallReason, int]:
    return dict.fromkeys(_CHARGEABLE, 0)


@dataclass
class TaskCycleRecord:
    """Per-task tallies, folded into the totals at retire or squash."""

    busy_cycles: int = 0
    stall_cycles: dict[StallReason, int] = field(
        default_factory=_fresh_stalls)

    def note(self, issued: int, reason: StallReason) -> None:
        if issued:
            self.busy_cycles += 1
        else:
            self.stall_cycles[reason] += 1

    def note_many(self, span: int, reason: StallReason) -> None:
        """Charge ``span`` stalled cycles at once (cycle-skip fast path).

        Only valid for stall cycles: a skipped window is by construction
        quiescent, so every cycle in it would have been noted with
        ``issued == 0`` and the same (stable) stall reason.
        """
        self.stall_cycles[reason] += span

    def as_dict(self) -> dict:
        return {"busy_cycles": self.busy_cycles,
                "stall_cycles": {reason.name: count for reason, count
                                 in self.stall_cycles.items()}}

    @classmethod
    def from_dict(cls, data: dict) -> "TaskCycleRecord":
        record = cls(busy_cycles=int(data["busy_cycles"]))
        for name, count in data["stall_cycles"].items():
            record.stall_cycles[StallReason[name]] = int(count)
        return record


@dataclass
class CycleDistribution:
    """Machine-wide cycle distribution."""

    useful: int = 0
    non_useful: int = 0
    idle: int = 0
    no_comp_inter_task: int = 0
    no_comp_intra_task: int = 0
    no_comp_wait_retire: int = 0
    no_comp_syscall: int = 0

    _STALL_FIELD = {
        StallReason.INTER_TASK: "no_comp_inter_task",
        StallReason.INTRA_TASK: "no_comp_intra_task",
        StallReason.FETCH: "no_comp_intra_task",
        StallReason.WAIT_RETIRE: "no_comp_wait_retire",
        StallReason.SYSCALL: "no_comp_syscall",
    }

    def fold_retired(self, record: TaskCycleRecord) -> None:
        self.useful += record.busy_cycles
        self._fold_stalls(record)

    def fold_squashed(self, record: TaskCycleRecord) -> None:
        self.non_useful += record.busy_cycles
        self._fold_stalls(record)

    def _fold_stalls(self, record: TaskCycleRecord) -> None:
        for reason, count in record.stall_cycles.items():
            if count:
                name = self._STALL_FIELD[reason]
                setattr(self, name, getattr(self, name) + count)

    @property
    def no_computation(self) -> int:
        return (self.no_comp_inter_task + self.no_comp_intra_task
                + self.no_comp_wait_retire + self.no_comp_syscall)

    def total(self) -> int:
        return self.useful + self.non_useful + self.idle \
            + self.no_computation

    def as_dict(self) -> dict[str, int]:
        return {
            "useful": self.useful,
            "non_useful": self.non_useful,
            "no_comp_inter_task": self.no_comp_inter_task,
            "no_comp_intra_task": self.no_comp_intra_task,
            "no_comp_wait_retire": self.no_comp_wait_retire,
            "no_comp_syscall": self.no_comp_syscall,
            "idle": self.idle,
        }

    def fractions(self) -> dict[str, float]:
        total = self.total() or 1
        return {name: count / total for name, count in self.as_dict().items()}

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "CycleDistribution":
        return cls(**{name: int(data[name]) for name in cls().as_dict()})

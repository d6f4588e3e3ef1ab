"""Pipelined functional units (Table 1 of the paper).

Each unit class has a fixed number of instances (Section 5.1: one or two
simple-integer units matching the issue width, and one each of
complex-integer, floating-point, branch, and memory units). Units are
fully pipelined: an instance accepts at most one new operation per
cycle, while operations of multi-cycle latency overlap inside it.
"""

from __future__ import annotations

from repro.config import UnitConfig
from repro.isa.opcodes import FUClass


class FUPool:
    """Issue-port tracker for one processing unit's functional units.

    ``share_with`` implements the paper's Section 2.3 alternate
    microarchitecture ("share the functional units (such as the
    floating point units) between the different processing units"):
    the listed FU classes alias another pool's instances, so all units
    compete for the same issue ports.
    """

    def __init__(self, config: UnitConfig,
                 share_with: "FUPool | None" = None,
                 shared_classes: tuple[FUClass, ...] = ()) -> None:
        counts = config.fu_counts()
        self.latencies = config.latencies
        # Per FU class, the next cycle at which each instance can accept.
        self._free: dict[FUClass, list[int]] = {
            FUClass[name]: [0] * count for name, count in counts.items()
        }
        if share_with is not None:
            for fu in shared_classes:
                self._free[fu] = share_with._free[fu]  # alias, not copy
        # Value-indexed view of the same slot lists (see MicroOp.fui):
        # lets the issue loop index with an int instead of hashing an
        # Enum. The inner lists are shared, so resets stay in sync.
        size = max(fu.value for fu in self._free) + 1
        self._free_by_val: list[list[int] | None] = [None] * size
        for fu, slots in self._free.items():
            self._free_by_val[fu.value] = slots

    def can_accept(self, fu: FUClass, cycle: int) -> bool:
        slots = self._free[fu]
        for free in slots:
            if free <= cycle:
                return True
        return False

    def accept(self, fu: FUClass, cycle: int) -> None:
        """Claim an instance's issue port for this cycle."""
        slots = self._free[fu]
        for i, free in enumerate(slots):
            if free <= cycle:
                slots[i] = cycle + 1
                return
        raise RuntimeError(f"no free {fu.name} unit at cycle {cycle}")

    def latency(self, key: str) -> int:
        return self.latencies[key]

    def state_dict(self) -> dict:
        return {"free": sorted([fu.name, list(slots)]
                               for fu, slots in self._free.items())}

    def load_state(self, state: dict) -> None:
        # In-place slice assignment: shared-class slot lists are aliased
        # across pools (and by _free_by_val); rebinding would break the
        # sharing. Shared lists are written once per aliasing pool with
        # identical values, which is idempotent.
        for name, values in state["free"]:
            self._free[FUClass[name]][:] = values

    def reset(self) -> None:
        # Shared instance lists are intentionally reset too: a unit
        # reset (task reassignment) does not physically change another
        # unit's in-flight occupancy, but by the time a unit is
        # reassigned the shared ports' reservations have expired (they
        # are per-cycle issue ports, not long-lived state).
        for slots in self._free.values():
            for i in range(len(slots)):
                slots[i] = 0

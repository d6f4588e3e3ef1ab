"""The unidirectional register-forwarding ring (Figure 1, Section 2.3).

Register values produced by a task (forward bits, release instructions,
and end-of-task auto-releases) travel hop by hop from each unit to its
successor. Each link imposes one cycle of latency per hop and carries at
most ``width`` values per cycle (the paper matches ring width to the
unit issue width). A value stops propagating when it reaches a unit
whose own create mask contains the register — that unit will produce
(and forward) its own version — or when it has travelled all the way
around to the unit before its sender.

Messages are tagged with the sending task's sequence number so that
values produced by squashed tasks can be dropped in flight.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush


@dataclass(order=True)
class RingMessage:
    arrive_cycle: int
    order: int                       # FIFO tiebreak per link
    sender_seq: int = field(compare=False)
    from_unit: int = field(compare=False)   # hop origin of this leg
    origin_unit: int = field(compare=False)  # unit that created the value
    reg: int = field(compare=False)
    value: object = field(compare=False)


@dataclass
class RingStats:
    sends: int = 0
    deliveries: int = 0
    dropped_stale: int = 0
    bandwidth_delay_cycles: int = 0


class ForwardingRing:
    """Per-link FIFO queues with latency and bandwidth modelling."""

    def __init__(self, num_units: int, hop_latency: int = 1,
                 width: int = 1) -> None:
        self.num_units = num_units
        self.hop_latency = hop_latency
        self.width = width
        # One outgoing link per unit: messages heading to (u + 1) % N.
        self._links: list[list[RingMessage]] = [[] for _ in range(num_units)]
        # Per link: (cycle, messages already inserted for that cycle).
        self._link_load: list[tuple[int, int]] = [(0, 0)] * num_units
        self._order = 0
        self.stats = RingStats()

    def send(self, cycle: int, from_unit: int, origin_unit: int,
             sender_seq: int, reg: int, value) -> None:
        """Place a value on ``from_unit``'s outgoing link."""
        load_cycle, load = self._link_load[from_unit]
        depart = max(cycle, load_cycle)
        if depart == load_cycle and load >= self.width:
            # Link already carries `width` values this cycle: delay.
            depart += 1
            load = 1
        elif depart == load_cycle:
            load += 1
        else:
            load = 1
        self.stats.bandwidth_delay_cycles += depart - cycle
        self._link_load[from_unit] = (depart, load)
        self._order += 1
        message = RingMessage(
            arrive_cycle=depart + self.hop_latency, order=self._order,
            sender_seq=sender_seq, from_unit=from_unit,
            origin_unit=origin_unit, reg=reg, value=value)
        heappush(self._links[from_unit], message)
        self.stats.sends += 1

    def arrivals(self, cycle: int) -> list[tuple[int, RingMessage]]:
        """Pop every message arriving by ``cycle``.

        Returns (destination unit, message) pairs in arrival order.
        """
        if not any(self._links):
            # The common cycle (~96% at 8 units): a value lives one
            # cycle per hop, so the ring is usually empty.
            return []
        out: list[tuple[int, RingMessage]] | None = None
        for from_unit, link in enumerate(self._links):
            if not link or link[0].arrive_cycle > cycle:
                continue
            if out is None:
                out = []
            destination = (from_unit + 1) % self.num_units
            while link and link[0].arrive_cycle <= cycle:
                out.append((destination, heappop(link)))
        if out is None:
            return []
        out.sort(key=lambda pair: (pair[1].arrive_cycle, pair[1].order))
        return out

    def next_arrival(self) -> int | None:
        """Earliest arrival cycle of any in-flight message, or None."""
        nxt: int | None = None
        for link in self._links:
            if link:
                arrive = link[0].arrive_cycle
                if nxt is None or arrive < nxt:
                    nxt = arrive
        return nxt

    def state_dict(self) -> dict:
        return {
            "links": [[[m.arrive_cycle, m.order, m.sender_seq,
                        m.from_unit, m.origin_unit, m.reg, m.value]
                       for m in sorted(link)]
                      for link in self._links],
            "link_load": [list(pair) for pair in self._link_load],
            "order": self._order,
            "stats": asdict(self.stats),
        }

    def load_state(self, state: dict) -> None:
        # A sorted message list is a valid heap, and pop order is fully
        # determined by (arrive_cycle, order), so restoring sorted is
        # behaviour-identical to the captured heap.
        self._links = [
            [RingMessage(arrive_cycle=m[0], order=m[1], sender_seq=m[2],
                         from_unit=m[3], origin_unit=m[4], reg=m[5],
                         value=m[6]) for m in link]
            for link in state["links"]]
        self._link_load = [tuple(pair) for pair in state["link_load"]]
        self._order = state["order"]
        self.stats = RingStats(**state["stats"])

    def drop_stale(self, squashed_seqs: set[int]) -> None:
        """Purge in-flight messages from squashed tasks."""
        for index, link in enumerate(self._links):
            kept = [m for m in link if m.sender_seq not in squashed_seqs]
            self.stats.dropped_stale += len(link) - len(kept)
            if len(kept) != len(link):
                kept.sort()
                self._links[index] = kept

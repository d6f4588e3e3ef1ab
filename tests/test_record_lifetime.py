"""A pipeline record lives from dispatch to commit, and no longer.

The paper's processing unit holds an instruction from dispatch to
in-order commit; once it issues it has read its operands and keeps
only the values it computed. ``_InFlight`` records follow suit
(docs/INTERNALS.md §3). Under in-order issue a record links no record
at all: issue reads its sources from the unit's scoreboard
(``last_writer``, which holds only issued records still in the ROB),
so every live record is in a ROB. Under out-of-order issue a record
captures its producers at dispatch; issue swaps them for the shared
empty ``NO_PRODUCERS``, and no record issues holding a ``blocker``, so
a loop-carried register cannot chain each record to the previous
iteration's. Checked here on the live heap, at sampled cycles, on the
interpreter (8 units, both issue shapes) and on the scalar core with
its compiled windows on and off.
"""

from __future__ import annotations

import gc

import pytest

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.pipeline.unit import UnitPipeline, _InFlight
from repro.workloads import WORKLOADS


class _Sampled(Exception):
    """Ends a run once every sample has been checked."""


class _RecordProbe:
    """A run-loop checkpointer (``next_cycle`` + ``capture``) that checks
    the live records every ``every`` cycles instead of capturing state,
    and stops the run after ``samples`` checks."""

    def __init__(self, every: int, samples: int) -> None:
        self.every = every
        self.samples = samples
        self.next_cycle = every
        self.records_seen = 0

    def capture(self, machine) -> None:
        self.records_seen += _check_live_records()
        self.samples -= 1
        if not self.samples:
            raise _Sampled
        self.next_cycle = machine.cycle + self.every


def _check_live_records() -> int:
    """Every ``_InFlight`` on the heap is in a unit's ROB or (out of
    order only) a producer of an unissued record there; an in-order
    unit's ``last_writer`` holds only issued records of its ROB; and no
    issued record links a record. Returns how many records the heap
    held."""
    gc.collect()    # what only the cycle collector would free is not live
    objects = gc.get_objects()
    records = [o for o in objects if isinstance(o, _InFlight)]
    allowed: set[int] = set()
    for pipeline in (o for o in objects if type(o) is UnitPipeline):
        in_rob = {id(rec) for rec in pipeline.rob}
        allowed |= in_rob
        if pipeline.config.out_of_order:
            for rec in pipeline.rob:
                if not rec.issued:
                    allowed.update(id(p) for p in rec.producers.values()
                                   if p is not None)
        else:
            board = [rec for rec in pipeline.last_writer if rec is not None]
            assert all(id(rec) in in_rob and rec.issued for rec in board), \
                "an in-order scoreboard holds a record that is not an " \
                "issued record of its ROB"
    strays = [rec for rec in records if id(rec) not in allowed]
    assert not strays, (f"{len(strays)} of {len(records)} live records are "
                        f"neither in a ROB nor an out-of-order unissued "
                        f"record's producer")
    linked = [rec for rec in records
              if rec.issued and (rec.producers or rec.blocker is not None)]
    assert not linked, f"{len(linked)} issued records still link a record"
    return len(records)


def _build(kernel: str, units: int, shape: str, jit: bool):
    spec = WORKLOADS[kernel]
    width, ooo = {"1w-io": (1, False), "2w-ooo": (2, True)}[shape]
    if units == 1:
        return ScalarProcessor(spec.scalar_program(),
                               scalar_config(width, ooo, jit=jit))
    return MultiscalarProcessor(spec.multiscalar_program(),
                                multiscalar_config(units, width, ooo))


@pytest.mark.parametrize("kernel, units, shape, jit, every", [
    ("sc", 8, "1w-io", False, 1_500),
    ("sc", 8, "2w-ooo", False, 900),
    ("tomcatv", 1, "1w-io", True, 7_000),
    ("tomcatv", 1, "1w-io", False, 7_000),
], ids=("sc-ms8-1w-io", "sc-ms8-2w-ooo", "tomcatv-scalar-jit",
        "tomcatv-scalar-nojit"))
def test_records_live_from_dispatch_to_commit(kernel, units, shape, jit,
                                              every):
    machine = _build(kernel, units, shape, jit)
    probe = _RecordProbe(every, samples=6)
    with pytest.raises(_Sampled):    # all six samples fall inside the run
        machine.run(checkpointer=probe)
    assert probe.records_seen    # the samples saw records in flight

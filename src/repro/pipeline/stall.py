"""The stall taxonomy, as a leaf module.

:class:`StallReason` is named by stored results (the cycle
distribution) as well as by the pipeline, so it lives here with no
imports of its own: reading a cached result must not load the machine.
:mod:`repro.pipeline.context` re-exports it.
"""

from __future__ import annotations

import enum


class StallReason(enum.IntEnum):
    """Why a unit performed no computation in a cycle (paper Section 3).

    An ``IntEnum`` so the per-cycle stall tallies hash members through
    the C-level int hash instead of ``Enum.__hash__`` (a Python-level
    function that shows up in simulator profiles).
    """

    NONE = enum.auto()           # it did issue work
    INTER_TASK = enum.auto()     # waiting on a value from an earlier task
    INTRA_TASK = enum.auto()     # waiting on a value produced in-task
    WAIT_RETIRE = enum.auto()    # task complete, waiting to become head
    FETCH = enum.auto()          # nothing decoded yet (icache miss, flush)
    SYSCALL = enum.auto()        # syscall held until non-speculative

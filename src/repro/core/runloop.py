"""The run loop, written once for both processors.

The paper's numbers are ratios between a scalar baseline and a
multiscalar machine, so the two must be clocked, budgeted and
interrupted by identical rules. :func:`drive` is those rules; a
processor is only its machine semantics behind a small seam:

* ``halted``, ``cycle``, ``_last_progress``, ``_progress_window`` —
  read here, written by the machine;
* ``advance(limit)`` — execute at least one cycle and stop at or
  before ``limit``: one interpreter step, a quiescence skip or a
  compiled unit window;
* ``_timeout_error(budget)`` / ``_livelock_error()`` — build the typed
  failure for this machine;
* ``instructions_executed()`` / ``state_entries()`` — the budget
  probes a bound :class:`~repro.resilience.watchdog.Watchdog` reads.

This module imports nothing from ``repro`` at module scope
(docs/INTERNALS.md, "Run loop" and "Import layering").
"""

from __future__ import annotations


def drive(machine, budget: int, checkpointer=None, watchdog=None) -> None:
    """Advance ``machine`` until it halts or a typed failure raises.

    ``budget`` is the first cycle the machine may not reach.
    ``checkpointer`` is duck-typed: a ``next_cycle`` attribute plus
    ``capture(machine)``, which moves ``next_cycle`` forward.

    Every iteration hands the machine one ``limit`` — the earliest
    cycle at which this loop needs control back — and then runs the
    checks in a fixed order: timeout, livelock, checkpoint capture,
    watchdog. Because skips and compiled windows all stop at the same
    limit, each check fires at the cycle per-cycle ticking would reach
    it, in every execution mode.
    """
    if watchdog is not None:
        watchdog.bind(machine)
    advance = machine.advance
    while not machine.halted:
        cycle = machine.cycle
        # A machine must not coast past its progress deadline.
        limit = machine._last_progress + machine._progress_window + 1
        if budget < limit:
            limit = budget
        if watchdog is not None:
            # Keep the budget checks' cadence.
            cap = cycle + watchdog.check_interval
            if cap < limit:
                limit = cap
        if checkpointer is not None \
                and cycle < checkpointer.next_cycle < limit:
            # Snapshots land exactly on the requested cycle.
            limit = checkpointer.next_cycle
        advance(limit)
        cycle = machine.cycle
        if cycle >= budget:
            raise machine._timeout_error(budget)
        if cycle - machine._last_progress > machine._progress_window:
            raise machine._livelock_error()
        if checkpointer is not None and cycle >= checkpointer.next_cycle:
            checkpointer.capture(machine)
        if watchdog is not None:
            watchdog.check(machine)


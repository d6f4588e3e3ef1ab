"""Two host measurements that outlive the retired throughput gate.

* :func:`calibrate` — a machine-speed score (iterations/sec of a fixed
  pure-Python loop) that ``perf/run.py`` stamps into every result.
* :func:`measure_trace_overhead` — the exact, call-counted cost of the
  observability instrumentation with tracing off, which tier-1 gates.

Simulator throughput itself is measured by ``perf/`` (the
``scalar-grid`` and ``ms-grid`` workloads), recorded across commits in
``BENCH_trajectory.json``, and counted exactly (interpreter opcodes per
simulated cycle) by ``benchmarks/opcount.py``.

Nothing from the simulator is imported at module scope (INTERNALS §13):
``perf/run.py`` imports :func:`calibrate` without loading a core.
"""

from __future__ import annotations

import time

#: Iterations of the calibration loop (fixed forever: the score is only
#: comparable across runs because the work is identical).
_CALIBRATION_ITERS = 2_000_000


def calibrate() -> float:
    """Machine-speed score: iterations/sec of a fixed pure-Python loop."""
    x = 0
    start = time.perf_counter()
    for i in range(_CALIBRATION_ITERS):
        x = (x + i) & 0xFFFFFFFF
    elapsed = time.perf_counter() - start
    return _CALIBRATION_ITERS / elapsed if elapsed > 0 else float("inf")


def measure_trace_overhead() -> dict:
    """Cost of the observability instrumentation when tracing is off,
    as a count that repeats exactly.

    Runs ``wc`` on 4 units twice under ``sys.setprofile`` and counts
    Python-level calls (Python and C functions alike):

    * **disabled** — the default state: every ``trace`` attribute is
      ``None`` and each emission site costs one attribute load and an
      ``is not None`` test, no call at all.
    * **masked** — an :class:`~repro.observability.EventBus` with an
      empty category mask is attached, so the hot sites additionally
      pay their mask test and the cold sites an ``emit()`` call that
      filters immediately.

    ``overhead`` is the extra share of calls the masked run makes
    (measured 0.06-0.09 %), and ``events_constructed`` how many
    ``TraceEvent`` objects it built (must be none). A wall-clock ratio
    used to stand here; on a shared box it failed one run in three on
    unchanged code, where this count cannot move unless an emission
    site does. Both runs pin ``jit=False``: the quantity under the gate
    is the cost of the emission sites in the interpreter.
    """
    import sys

    from repro.config import multiscalar_config
    from repro.core.processor import MultiscalarProcessor
    from repro.observability.events import EventBus, TraceEvent
    from repro.workloads import WORKLOADS

    program = WORKLOADS["wc"].multiscalar_program()
    event_init = TraceEvent.__init__.__code__

    def processor():
        return MultiscalarProcessor(program, multiscalar_config(4, jit=False))

    def count_calls(masked: bool) -> tuple[int, int]:
        machine = processor()
        if masked:
            EventBus(0).attach(machine)
        calls = events = 0

        def profiler(frame, event, arg):
            nonlocal calls, events
            if event == "call":
                calls += 1
                if frame.f_code is event_init:
                    events += 1
            elif event == "c_call":
                calls += 1

        sys.setprofile(profiler)
        try:
            machine.run()
        finally:
            sys.setprofile(None)
        return calls, events

    # The first run of a program builds its lazy decode tables; keep
    # that one-off work out of both counted runs.
    processor().run()
    disabled, _ = count_calls(masked=False)
    masked, constructed = count_calls(masked=True)
    return {
        "case": "wc:ms4",
        "disabled_calls": disabled,
        "masked_calls": masked,
        "events_constructed": constructed,
        "overhead": round(masked / disabled - 1.0, 6),
    }

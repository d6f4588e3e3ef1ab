"""Trace-JIT for the simulator core (the PR-6 tentpole).

The interpreter executes one unit-cycle per ``UnitPipeline.step``
call; this package compiles hot straight-line uop regions into
generated Python functions that run many cycles of the scalar core's
unit per call in one flat loop, deopting back to the interpreter at
every irregular boundary (syscalls/halt, run-loop limits). The
multiscalar machine is interpreter-only. Results are bit-identical to
the interpreter by construction — see docs/INTERNALS.md §12 for the
discovery/guard/deopt protocol and the measurement behind the split.

Layout:

* :mod:`repro.jit.blocks` — flat per-word decode tables, trace-region
  and basic-block discovery, per-region statistics;
* :mod:`repro.jit.codegen` — source generation for the specialized
  per-cycle executors;
* :mod:`repro.jit.engine` — window eligibility, the body cache, and
  the ``engine_for`` factory ``ScalarProcessor.run`` calls.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EXIT_NAMES",
    "MIN_WINDOW",
    "TraceTables",
    "UnitJIT",
    "current_injection",
    "engine_for",
    "set_injection",
    "tables_for",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "blocks": ("EXIT_NAMES", "TraceTables", "tables_for"),
    "engine": (
        "MIN_WINDOW", "UnitJIT", "current_injection", "engine_for",
        "set_injection",
    ),
})

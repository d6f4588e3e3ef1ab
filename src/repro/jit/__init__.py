"""Trace-JIT for the simulator core (the PR-6 tentpole).

The interpreter executes one unit-cycle per ``UnitPipeline.step``
call; this package compiles hot straight-line uop regions into
generated Python functions that run many cycles of one unit per call
in one flat loop, deopting back to the interpreter at every irregular
boundary (annotation side effects, syscalls/halt, squash requests).
Results are bit-identical to the interpreter by construction — see
docs/INTERNALS.md §12 for the discovery/guard/deopt protocol.

Layout:

* :mod:`repro.jit.blocks` — flat per-word decode tables, trace-region
  and basic-block discovery, per-region statistics;
* :mod:`repro.jit.codegen` — source generation for the specialized
  per-cycle executors;
* :mod:`repro.jit.engine` — window eligibility, the body cache, and
  the ``engine_for`` factory the run loop calls.
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

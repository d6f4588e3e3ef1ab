"""Differential verification: fuzzing the simulators against each other.

The paper's central correctness claim (Sections 3-4) is that a
multiscalar processor — despite speculative tasks, ring-forwarded
registers, and ARB-held memory — always retires the same architectural
state as sequential execution. This package turns that claim into a
reusable, one-command regression oracle:

* :mod:`repro.difftest.generator` — seeded random program generators at
  two levels: raw assembly (branches, aliasing load/store traffic,
  forward/release annotations) and MinC (parallel loops with
  global-scalar conflicts that provoke memory-order squashes);
* :mod:`repro.difftest.oracle` — runs each program on
  :class:`FunctionalCPU`, :class:`ScalarProcessor`, and
  :class:`MultiscalarProcessor` across a configuration grid and diffs
  final registers, memory, program output, and machine invariants;
* :mod:`repro.difftest.shrink` — a delta-debugging (ddmin) shrinker
  that minimizes any diverging program to a near-minimal reproducer;
* :mod:`repro.difftest.campaign` — the fuzzing loop behind
  ``python -m repro fuzz``;
* :mod:`repro.difftest.injection` — a backend-scoped fault-injection
  seam used to validate that the oracle actually catches bugs.
"""

from repro._lazy import lazy_exports
# Eager on purpose: the function shares its submodule's name, and the
# import system binds ``repro.difftest.shrink`` to the *module* whenever
# anything imports it first, which a lazy hook could never override.
from repro.difftest.shrink import shrink

__all__ = [
    "AsmProgramGenerator",
    "CampaignResult",
    "DiffReport",
    "Divergence",
    "FuzzCampaign",
    "GeneratedProgram",
    "MinicProgramGenerator",
    "backend_label",
    "check_program",
    "current_backend",
    "full_grid",
    "generator_for",
    "inject_jit_guard_miss",
    "inject_livelock",
    "inject_opcode_bug",
    "shrink",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "campaign": ("CampaignResult", "FuzzCampaign"),
    "generator": (
        "AsmProgramGenerator", "GeneratedProgram", "MinicProgramGenerator",
        "generator_for",
    ),
    "injection": (
        "current_backend", "inject_jit_guard_miss", "inject_livelock",
        "inject_opcode_bug",
    ),
    "oracle": (
        "DiffReport", "Divergence", "backend_label", "check_program",
        "full_grid",
    ),
})

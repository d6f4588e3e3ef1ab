"""The multiscalar compiler substrate.

The paper produces multiscalar binaries with a modified GCC 2.5.8 that
partitions the CFG into tasks and emits task descriptors, create masks,
and forward/stop/release annotations (Section 2.2). This package is the
equivalent layer for our ISA:

* :mod:`repro.compiler.cfg` — basic blocks, edges, dominators, loops,
  and call-graph summaries;
* :mod:`repro.compiler.liveness` — interprocedural register liveness;
* :mod:`repro.compiler.regions` — task regions, exit edges, create
  masks;
* :mod:`repro.compiler.annotate` — the rewrite pass that produces an
  annotated multiscalar binary from an unannotated one.

Functions called from inside a task are *suppressed* (executed within
the calling task, paper Section 3.2.3): regions never descend into
callees, whose register effects are folded in through conservative
may-def/may-use summaries.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AnnotationError",
    "CREATE_MASK_POLICIES",
    "CompilerKnobs",
    "ControlFlowGraph",
    "DEFAULT_KNOBS",
    "LOOP_CUT_STRATEGIES",
    "LivenessAnalysis",
    "TaskRegion",
    "annotate_program",
    "strip_annotations",
    "build_cfg",
    "compute_regions",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "annotate": ("AnnotationError", "annotate_program", "strip_annotations"),
    "cfg": ("ControlFlowGraph", "build_cfg"),
    "knobs": (
        "CREATE_MASK_POLICIES", "DEFAULT_KNOBS", "LOOP_CUT_STRATEGIES",
        "CompilerKnobs",
    ),
    "liveness": ("LivenessAnalysis",),
    "regions": ("TaskRegion", "compute_regions"),
})

"""Design-space autopilot: search configs + compiler knobs, report
Pareto frontiers.

``repro explore`` closes the loop the paper leaves open: given the
simulator (``repro.core``), the compiler's partitioning knobs
(``repro.compiler``), and the content-addressed job engine
(``repro.engine``), *which* machine + compiler configuration is worth
its area? The package is four small layers:

* :mod:`repro.explore.space` — the axes and :class:`DesignPoint`;
* :mod:`repro.explore.cost` — the deterministic hardware-cost model;
* :mod:`repro.explore.evaluate` — points -> cycles via the shared
  cache, locally or through ``repro serve``;
* :mod:`repro.explore.search` — the seeded probe/explore/exploit loop;
* :mod:`repro.explore.report` — deterministic JSON/Markdown reports.

Every evaluated point is an ordinary :class:`~repro.engine.job.SimJob`,
so explore shares its cache with ``repro sweep`` and search resumption
is free. The whole run is a pure function of (seed, budget, workloads,
simulator version); see ``docs/EXPLORE.md`` for the reproducibility
contract.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AXES",
    "DesignPoint",
    "ExploreRequest",
    "ExploreSummary",
    "LocalEvaluator",
    "PointResult",
    "ServerEvaluator",
    "WorkloadSearch",
    "build_report",
    "cost_breakdown",
    "default_point",
    "hardware_cost",
    "knob_probes",
    "mutate",
    "pareto_frontier",
    "render_markdown",
    "render_terminal",
    "run_explore",
    "sample",
    "search_workload",
    "space_size",
    "validate_report",
    "write_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cost": ("cost_breakdown", "hardware_cost"),
    "evaluate": ("LocalEvaluator", "PointResult", "ServerEvaluator"),
    "report": (
        "build_report", "render_markdown", "render_terminal",
        "validate_report", "write_report",
    ),
    "search": (
        "ExploreRequest", "ExploreSummary", "WorkloadSearch",
        "pareto_frontier", "run_explore", "search_workload",
    ),
    "space": (
        "AXES", "DesignPoint", "default_point", "knob_probes", "mutate",
        "sample", "space_size",
    ),
})

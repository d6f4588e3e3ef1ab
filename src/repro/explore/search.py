"""The optimizer loop: seeded probe / explore / exploit search.

Per workload the search spends a fixed ``budget`` of design points in
three phases:

1. **Probe** — the paper's default machine plus every single-knob
   deviation from it (:func:`repro.explore.space.knob_probes`). This
   anchors the report: default-knob and knob-variant speedups exist on
   identical hardware, so knob wins are directly attributable.
2. **Explore** — uniform random samples over the full space, until
   roughly 60% of the budget is spent.
3. **Exploit** — successive halving by local mutation: the current
   Pareto frontier (cost vs cycles) seeds each round, every member is
   mutated along one random axis, and dominated parents fall away on
   re-ranking. Repeats until the budget is exhausted.

Everything is driven by one ``random.Random`` seeded from
``f"{seed}:{workload}"`` (string seeding hashes through SHA-512, so it
is stable across processes and platforms). Simulation results are
deterministic, so the whole trajectory — and therefore the report — is
a pure function of (seed, budget, workload, simulator version).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.explore.evaluate import PointResult
from repro.explore.space import (
    DesignPoint,
    default_point,
    knob_probes,
    mutate,
    sample,
)

__all__ = [
    "ExploreRequest",
    "WorkloadSearch",
    "ExploreSummary",
    "pareto_frontier",
    "search_workload",
    "run_explore",
]

#: Fraction of the budget spent before the exploit phase starts.
_EXPLORE_FRACTION = 0.6
#: Points evaluated per batch in the explore/exploit phases.
_BATCH = 8
#: Give up drawing fresh candidates after this many rejected draws.
_MAX_DRAWS = 200


@dataclass(frozen=True)
class ExploreRequest:
    """One ``repro explore`` invocation (search parameters only; how
    points get evaluated — locally or via a server — is the
    evaluator's concern)."""

    workloads: tuple[str, ...]
    budget: int = 40
    seed: int = 0
    max_cycles: int = 20_000_000
    jobs: int = 1
    use_cache: bool = True


@dataclass
class WorkloadSearch:
    """The full search record for one workload."""

    workload: str
    scalar_cycles: int
    #: Every evaluated point, in evaluation order (the search log).
    evaluated: list[PointResult] = field(default_factory=list)
    #: Non-dominated points, sorted by ascending cost.
    pareto: list[PointResult] = field(default_factory=list)
    #: Highest-speedup point overall.
    best: PointResult | None = None
    infeasible: int = 0
    failures: int = 0


@dataclass
class ExploreSummary:
    """Results of one explore run across all requested workloads."""

    request: ExploreRequest
    searches: list[WorkloadSearch] = field(default_factory=list)
    cache_hits: int = 0
    fresh_runs: int = 0
    points_without_metrics: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of dispatched jobs served from cache."""
        total = self.cache_hits + self.fresh_runs
        return self.cache_hits / total if total else 0.0

    @property
    def ok(self) -> bool:
        """True when every workload produced a non-empty frontier."""
        return all(search.pareto for search in self.searches)


def pareto_frontier(results: list[PointResult]) -> list[PointResult]:
    """Non-dominated subset of ``results`` over (cost, cycles), both
    minimized; sorted by ascending cost (ties: ascending cycles, then
    label, so the frontier is deterministic). A point dominates another
    when it is no worse on both axes and better on at least one."""
    ok = [r for r in results if r.ok]
    frontier: list[PointResult] = []
    for candidate in ok:
        dominated = False
        for other in ok:
            if (other.cost <= candidate.cost
                    and other.cycles <= candidate.cycles
                    and (other.cost < candidate.cost
                         or other.cycles < candidate.cycles)):
                dominated = True
                break
        if not dominated:
            frontier.append(candidate)
    frontier.sort(key=lambda r: (r.cost, r.cycles, r.point.label()))
    # Duplicate (cost, cycles) pairs: keep the first label only.
    deduped: list[PointResult] = []
    for result in frontier:
        if deduped and (deduped[-1].cost, deduped[-1].cycles) == \
                (result.cost, result.cycles):
            continue
        deduped.append(result)
    return deduped


def _best(results: list[PointResult]) -> PointResult | None:
    ok = [r for r in results if r.ok]
    if not ok:
        return None
    return max(ok, key=lambda r: (r.speedup, -r.cost,
                                  r.point.label()))


def search_workload(workload: str, evaluator, budget: int,
                    seed: int, progress=None) -> WorkloadSearch:
    """Run the three-phase search for one workload.

    ``evaluator`` is an :class:`~repro.explore.evaluate.Evaluator`.
    ``budget`` caps the number of distinct design points considered
    (infeasible points count — they are part of the trajectory)."""
    progress = progress or (lambda message: None)
    rng = random.Random(f"{seed}:{workload}")
    search = WorkloadSearch(workload=workload,
                            scalar_cycles=evaluator.scalar_cycles(workload))
    seen: set[DesignPoint] = set()

    def spend(points: list[DesignPoint], phase: str) -> None:
        points = points[:budget - len(seen)]
        if not points:
            return
        seen.update(points)
        results = evaluator.evaluate(workload, points)
        search.evaluated.extend(results)
        search.infeasible += sum(r.infeasible for r in results)
        search.failures += sum(
            1 for r in results if not r.ok and not r.infeasible)
        best = _best(search.evaluated)
        note = f"best speedup {best.speedup:.2f}" if best else "no result"
        progress(f"{workload}: {phase} +{len(points)} "
                 f"({len(seen)}/{budget} points, {note})")

    def draw(generate) -> list[DesignPoint]:
        cap = min(_BATCH, budget - len(seen))
        batch: list[DesignPoint] = []
        for _ in range(_MAX_DRAWS):
            if len(batch) >= cap:
                break
            point = generate()
            if point not in seen and point not in batch:
                batch.append(point)
        return batch

    # Phase 1: deterministic probes (default machine + knob deviations).
    spend(knob_probes(default_point()), "probe")
    # Phase 2: random exploration.
    explore_target = max(len(seen), int(budget * _EXPLORE_FRACTION))
    while len(seen) < min(budget, explore_target):
        batch = draw(lambda: sample(rng))
        if not batch:
            break
        spend(batch, "explore")
    # Phase 3: exploit by mutating the current frontier.
    while len(seen) < budget:
        frontier = pareto_frontier(search.evaluated)
        parents = [r.point for r in frontier] or [default_point()]
        batch = draw(lambda: mutate(rng.choice(parents), rng))
        if not batch:
            break   # space exhausted around the frontier
        spend(batch, "exploit")

    search.pareto = pareto_frontier(search.evaluated)
    search.best = _best(search.evaluated)
    return search


def run_explore(request: ExploreRequest, evaluator,
                progress=None) -> ExploreSummary:
    """Search every requested workload and gather the summary."""
    summary = ExploreSummary(request=request)
    for workload in request.workloads:
        summary.searches.append(search_workload(
            workload, evaluator, request.budget, request.seed,
            progress=progress))
    summary.cache_hits = evaluator.cache_hits
    summary.fresh_runs = evaluator.fresh_runs
    summary.points_without_metrics = evaluator.points_without_metrics
    return summary

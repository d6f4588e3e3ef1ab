"""Shared plumbing: paths, sizing, statistics, child processes, results."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perf.metrics import KERNELS, RUN_SECONDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / "perf" / "out"

#: The repo's own quick subset (``repro bench --quick``); smoke runs use
#: it so the plumbing can be checked in seconds.
QUICK_KERNELS = ("gcc", "wc", "example")
#: ``--seconds`` below this is a smoke run: quick kernels, one of each.
SMOKE_BELOW = 5.0


# ------------------------------------------------------------------ sizing

@dataclass(frozen=True)
class Sizing:
    """Every pass/round/op count of the benchmark, in one place.

    The numbers are what fits the contract's time cap on the 2-core
    sandbox at ``--seconds 20`` (about 15-30 s per run, set-up
    included); ``--seconds`` scales them linearly, never below one.
    Medians need three samples, which the nominal counts provide.
    Kernel inputs are never shrunk; a smoke run takes fewer kernels."""

    kernels: tuple[str, ...] = KERNELS
    setup_repeats: int = 3
    scalar_passes: int = 8
    ms_passes: int = 3
    sweep_rounds: int = 3
    sweep_warm_per_round: int = 4
    serve_kernels: tuple[str, ...] = ("gcc", "wc", "example", "sc", "cmp",
                                      "eqntott")
    serve_rounds: int = 3                 # after one warm-up round
    serve_cached_ops: int = 1500
    serve_verify_jobs: int = 6
    serve_fresh_small: int = 8            # traced run only
    explore_targets: tuple[str, ...] = ("gcc", "cmp")
    explore_budget: int = 16
    #: The search seed is fixed (the one docs/EXPLORE.md uses): which
    #: design points a search simulates depends on it, and ten runs on
    #: ten search seeds differ by 15 % in cycles simulated per second.
    #: ``--seed`` orders the targets; every run simulates the same jobs.
    explore_search_seed: int = 7
    explore_rounds: int = 3
    explore_warm_per_round: int = 2
    #: Repeats of the small host-time probes of the traced run.
    probe_repeats: int = 3
    micro_ops: int = 30
    smoke: bool = False


def sizing(seconds: float) -> Sizing:
    """The counts for a run of ``seconds`` (nominal at RUN_SECONDS)."""
    nominal = Sizing()
    scale = seconds / RUN_SECONDS

    def n(count: int) -> int:
        return max(1, round(count * scale))

    smoke = seconds < SMOKE_BELOW
    return Sizing(
        kernels=QUICK_KERNELS if smoke else nominal.kernels,
        setup_repeats=n(nominal.setup_repeats),
        scalar_passes=n(nominal.scalar_passes),
        ms_passes=n(nominal.ms_passes),
        sweep_rounds=n(nominal.sweep_rounds),
        sweep_warm_per_round=n(nominal.sweep_warm_per_round),
        serve_kernels=QUICK_KERNELS if smoke else nominal.serve_kernels,
        serve_rounds=n(nominal.serve_rounds),
        serve_cached_ops=max(20, n(nominal.serve_cached_ops)),
        serve_verify_jobs=3 if smoke else nominal.serve_verify_jobs,
        serve_fresh_small=n(nominal.serve_fresh_small),
        explore_targets=("cmp",) if smoke else nominal.explore_targets,
        explore_budget=6 if smoke else nominal.explore_budget,
        explore_rounds=n(nominal.explore_rounds),
        explore_warm_per_round=n(nominal.explore_warm_per_round),
        probe_repeats=n(nominal.probe_repeats),
        micro_ops=max(5, n(nominal.micro_ops)),
        smoke=smoke,
    )


# -------------------------------------------------------------- statistics

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail_percentile(count: int, beyond: int = 10) -> int | None:
    """The highest whole percentile that still has ``beyond`` samples
    above it among ``count`` samples, or ``None`` when not even the
    median does (the choosing-metrics rule for which tail to report)."""
    if count < 2 * beyond:
        return None
    return min(99, int(100.0 * (count - beyond) / count))


# --------------------------------------------------------------- processes

def child_env() -> dict[str, str]:
    """Environment for the CLI/server children: the user's, with the
    repo importable and every ``REPRO_*`` override dropped, so a child
    hashes its own fingerprint and uses the store it is pointed at."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


@dataclass
class CliRun:
    wall: float
    cpu: float
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv: list[str], cwd: Path, timeout: float = 170.0) -> CliRun:
    """Run ``python -m repro <argv>`` (or any ``[sys.executable, ...]``
    tail) to completion; wall and children CPU seconds measured here."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + \
        (after.ru_stime - before.ru_stime)
    return CliRun(wall, cpu, done.returncode, done.stdout, done.stderr)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def fresh_dir(path: Path) -> Path:
    """Empty ``path`` (a private temp store) and recreate it."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------- results

@dataclass
class Checks:
    """Operations attempted and failed, with the reason for each failure
    (a simulation whose output is wrong, a non-zero CLI exit, a server
    error, a payload or hit-rate that differs from what it must be)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ok(self, condition: bool, problem: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(problem)
        return bool(condition)

    def add(self, attempted: int, problems: list[str]) -> None:
        """Fold in a batch counted elsewhere (a client thread's)."""
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems[:max(0, 50 - len(self.problems))])


@dataclass
class Measured:
    """One metric's value with the raw samples behind it."""

    value: float
    samples: list[float] = field(default_factory=list)

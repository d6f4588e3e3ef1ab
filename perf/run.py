"""The benchmark's one command.

Driver form — one workload, one run, a JSON object on the last line::

    python3 perf/run.py --workload ms-grid --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes ``trace-<workload>.json`` (Chrome trace-event
format, loadable in Perfetto) under ``--out``.

Without ``--workload`` it runs all five workloads, each end to end and
then traced, prints every metric by name with its unit, writes the
result envelope to ``<out>/result.json`` for ``perf/compare.py`` and
exits non-zero if any check failed. ``--smoke`` does that in well under
a minute on the quick kernels.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script: make ``perf`` and ``repro`` importable, and keep
    # this directory's modules (trace.py) from shadowing the stdlib's.
    sys.path[0:1] = [str(_ROOT / "src"), str(_ROOT)]

from perf.common import (  # noqa: E402
    DEFAULT_OUT,
    ROOT,
    SRC,
    Checks,
    child_env,
    fresh_dir,
    median,
    peak_rss_mb,
    run_cli,
    sizing,
)
from perf.metrics import (  # noqa: E402
    END_TO_END,
    END_TO_END_NAMES,
    PER_LAYER,
    PER_LAYER_NAMES,
    RUN_SECONDS,
    WORKLOAD_NAMES,
)
from perf.trace import Tracer  # noqa: E402

SMOKE_SECONDS = 1.0


def make_workload(name: str):
    """The workload object for ``name`` (imports the layers it drives)."""
    if name == "scalar-grid":
        from perf.grids import Grid
        return Grid(name, 1)
    if name == "ms-grid":
        from perf.grids import MS_UNITS, Grid
        return Grid(name, MS_UNITS)
    if name == "sweep-cold-warm":
        from perf.sweep import SweepColdWarm
        return SweepColdWarm()
    if name == "serve-mixed":
        from perf.serve import ServeMixed
        return ServeMixed()
    if name == "explore-search":
        from perf.explore import ExploreSearch
        return ExploreSearch()
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ set-up

def setup_only(args) -> int:
    """Set the workload up, report how long that took since the parent
    spawned this process, tear down. One sample of ``setup_s``."""
    area = fresh_dir(Path(args.out) / f"tmp-{os.getpid()}")
    checks = Checks()
    workload = make_workload(args.workload)
    try:
        workload.setup(area, sizing(args.seconds),
                       Tracer(args.workload, enabled=False))
        ready = time.time() - args.spawned_at
    finally:
        workload.teardown(checks)
        shutil.rmtree(area, ignore_errors=True)
    print(json.dumps({"ready_s": ready, "failed": checks.failed}))
    return 1 if checks.failed else 0


def measure_setup(args, repeats: int, checks: Checks) -> list[float]:
    """``repeats`` complete set-ups, each in a child process of its own,
    timed from spawn to ready."""
    samples = []
    for _ in range(repeats):
        done = run_cli(
            [str(Path(__file__).resolve()),
             "--workload", args.workload, "--seconds", str(args.seconds),
             "--out", str(args.out), "--setup-only",
             "--spawned-at", repr(time.time())], ROOT)
        ready = None
        if done.returncode == 0 and done.stdout.strip():
            ready = json.loads(done.stdout.strip().splitlines()[-1])["ready_s"]
        if checks.ok(ready is not None,
                     f"set-up child failed: {done.stderr[-300:]}"):
            samples.append(ready)
    return samples


# ----------------------------------------------------------------- one run

def run_one(args) -> int:
    """One workload, end to end (``--trace 0``) or traced (``--trace 1``)."""
    started = time.time()
    out_dir = Path(args.out)
    area = fresh_dir(out_dir / f"tmp-{os.getpid()}")
    size = sizing(args.seconds)
    checks = Checks()
    traced = bool(args.trace)
    tracer = Tracer(f"{args.workload}#{args.seed}", enabled=traced)
    workload = make_workload(args.workload)
    detail: dict = {}
    try:
        with tracer.span("perf.setup"):
            workload.setup(area, size, tracer)
        if traced:
            with tracer.span("perf.layers"):
                measured = workload.layers(size, args.seed, checks, tracer)
            values = {name: float(measured.get(name, 0.0))
                      for name in PER_LAYER_NAMES}
            unknown = sorted(set(measured) - set(PER_LAYER_NAMES))
            checks.ok(not unknown, f"undeclared layer metrics {unknown}")
            units = {m.name: m.unit for m in PER_LAYER}
            detail["measured_here"] = sorted(measured)
            detail["spans"] = tracer.self_times()
            detail["counts"] = dict(tracer.counts)
        else:
            e2e = workload.measure(size, args.seed, checks)
            setups = measure_setup(args, size.setup_repeats, checks)
            values = {name: m.value for name, m in e2e.items()}
            values["setup_s"] = median(setups) if setups else 0.0
            detail["samples"] = {name: m.samples for name, m in e2e.items()}
            detail["samples"]["setup_s"] = setups
            units = {m.name: m.unit for m in END_TO_END}
    finally:
        tracer.unwrap_all()
        workload.teardown(checks)
        shutil.rmtree(area, ignore_errors=True)
    if traced:
        _write_trace(out_dir / f"trace-{args.workload}.json", tracer, checks)
    else:
        values["peak_rss_mb"] = peak_rss_mb()
        missing = sorted(set(END_TO_END_NAMES) - set(values))
        checks.ok(not missing, f"missing end-to-end metrics {missing}")

    result = {
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items() if name in units},
    }
    detail.update(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=int(traced),
                  problems=checks.problems, started=started,
                  ended=time.time())
    kind = "layers" if traced else "e2e"
    _write_json(out_dir / f"{kind}-{args.workload}.json", detail)
    for problem in checks.problems:
        print(f"perf: FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _write_json(path: Path, data) -> None:
    from repro.resilience.atomio import atomic_write_json

    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, data)


def _write_trace(path: Path, tracer: Tracer, checks: Checks) -> None:
    from repro.observability import validate_chrome_trace

    data = tracer.chrome_trace()
    problems = validate_chrome_trace(data)
    checks.ok(not problems, f"invalid Chrome trace: {problems[:3]}")
    _write_json(path, data)


# ---------------------------------------------------------------- all runs

def _git(*argv: str) -> str:
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def run_all(args) -> int:
    """Every workload end to end, then traced; one envelope, one table."""
    from repro.harness.bench import calibrate

    out_dir = Path(args.out)
    envelope = {
        "schema": 1,
        "git_revision": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_score": calibrate(),
        "seed": args.seed,
        "seconds": args.seconds,
        "started": time.time(),
        "workloads": {},
    }
    failed = False
    for name in WORKLOAD_NAMES:
        entry = envelope["workloads"][name] = {}
        for trace, kind in ((0, "e2e"), (1, "layers")):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--out", str(out_dir)],
                env=child_env(), stdout=subprocess.PIPE, text=True,
                timeout=600)
            failed |= done.returncode != 0
            detail_path = out_dir / f"{kind}-{name}.json"
            if detail_path.exists():
                entry[kind] = json.loads(detail_path.read_text())
            else:
                entry[kind] = {"correct": False, "attempted": 1, "failed": 1,
                               "metrics": {}, "problems": ["run crashed"]}
            print(f"perf: {name} {kind}: exit {done.returncode}",
                  file=sys.stderr)
    envelope["ended"] = time.time()
    _write_json(out_dir / "result.json", envelope)
    print(render(envelope))
    return 1 if failed else 0


def render(envelope: dict) -> str:
    """Every metric by name with its unit: the end-to-end table per
    workload, then each layer metric from the workloads measuring it."""
    lines = [f"perf: revision {envelope['git_revision'][:12]}"
             f"{' (dirty)' if envelope['git_dirty'] else ''}, python "
             f"{envelope['python']}, {envelope['nproc']} cores, calibration "
             f"{envelope['calibration_score']:.0f}, seed {envelope['seed']}",
             "", "end to end (tracing off)"]
    header = f"{'metric':22} {'unit':9}" + "".join(
        f" {name:>16}" for name in WORKLOAD_NAMES)
    lines.append(header)
    runs = envelope["workloads"]
    for metric in END_TO_END:
        row = f"{metric.name:22} {metric.unit:9}"
        for name in WORKLOAD_NAMES:
            cell = runs[name]["e2e"]["metrics"].get(metric.name)
            row += f" {cell['value']:>16.6g}" if cell else f" {'-':>16}"
        lines.append(row)
    row = f"{'op_fail_ratio':22} {'ratio':9}"
    for name in WORKLOAD_NAMES:
        run = runs[name]["e2e"]
        row += f" {run['failed'] / run['attempted']:>16.6g}"
    lines.append(row)
    lines += ["", "per layer (traced run; measured on the named workload)"]
    for metric in PER_LAYER:
        for name in metric.on:
            cell = runs[name]["layers"]["metrics"].get(metric.name)
            value = f"{cell['value']:.6g}" if cell else "-"
            lines.append(f"{metric.name:38} {value:>14} {metric.unit:8} "
                         f"{name}")
    for name in WORKLOAD_NAMES:
        for kind in ("e2e", "layers"):
            for problem in runs[name][kind].get("problems", []):
                lines.append(f"FAILED {name} {kind}: {problem}")
    return "\n".join(lines)


# --------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(DEFAULT_OUT), metavar="DIR")
    parser.add_argument("--smoke", action="store_true",
                        help=f"shorthand for --seconds {SMOKE_SECONDS:g}")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    args.out = str(Path(args.out).resolve())
    if not (SRC / "repro").is_dir():
        print(f"perf: no simulator to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())

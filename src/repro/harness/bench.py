"""Simulator performance harness (``python -m repro bench``).

Measures *simulator throughput* — simulated cycles per wall-clock
second — over a fixed suite of (workload, machine) cases, writes the
measurements to ``BENCH_simulator.json``, and optionally gates against
a committed baseline (``benchmarks/bench_baseline.json``).

Two things keep the gate honest across machines:

* **Calibration** — every run times a fixed pure-Python integer loop
  and records the score (iterations/sec). Regression checks scale the
  baseline's throughput by ``current_score / baseline_score``, so a
  slower CI machine is held to a proportionally lower bar instead of
  failing spuriously.
* **Profile** — one representative multiscalar case is re-run under
  :mod:`cProfile` and the hottest functions are stored in the payload,
  so a regression report points at *where* the time went, not just
  that it went.

Timing excludes program compilation: each case builds its program and
processor first and times only ``run()``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from dataclasses import dataclass
from pathlib import Path

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.harness.paper_data import ROW_ORDER
from repro.resilience import atomio

#: Bump when the payload layout changes shape.
BENCH_SCHEMA_VERSION = 1

#: Default output / baseline locations (repo-relative).
DEFAULT_OUTPUT = "BENCH_simulator.json"
DEFAULT_BASELINE = "benchmarks/bench_baseline.json"

#: ``--quick`` subset: small representative workloads, scalar + 4 units.
QUICK_NAMES = ("gcc", "wc", "example")

#: Iterations of the calibration loop (fixed forever: the score is only
#: comparable across runs because the work is identical).
_CALIBRATION_ITERS = 2_000_000


@dataclass(frozen=True)
class BenchCase:
    """One (workload, machine shape) measurement."""

    workload: str
    kind: str                     # "scalar" or "multiscalar"
    units: int = 1

    @property
    def label(self) -> str:
        if self.kind == "scalar":
            return f"{self.workload}:scalar"
        return f"{self.workload}:ms{self.units}"


def build_suite(quick: bool = False) -> list[BenchCase]:
    """The fixed case list (order matters: it is part of the contract)."""
    if quick:
        names, shapes = QUICK_NAMES, (("scalar", 1), ("multiscalar", 4))
    else:
        names = tuple(ROW_ORDER)
        shapes = (("scalar", 1), ("multiscalar", 4), ("multiscalar", 8))
    return [BenchCase(name, kind, units)
            for name in names for kind, units in shapes]


def calibrate() -> float:
    """Machine-speed score: iterations/sec of a fixed pure-Python loop."""
    x = 0
    start = time.perf_counter()
    for i in range(_CALIBRATION_ITERS):
        x = (x + i) & 0xFFFFFFFF
    elapsed = time.perf_counter() - start
    return _CALIBRATION_ITERS / elapsed if elapsed > 0 else float("inf")


def _make_processor(case: BenchCase, fast_path: bool, jit: bool = True):
    from repro.workloads import WORKLOADS

    spec = WORKLOADS[case.workload]
    if case.kind == "scalar":
        return ScalarProcessor(spec.scalar_program(),
                               scalar_config(fast_path=fast_path, jit=jit))
    return MultiscalarProcessor(
        spec.multiscalar_program(),
        multiscalar_config(case.units, fast_path=fast_path, jit=jit))


def run_case(case: BenchCase, fast_path: bool = True,
             jit: bool = True) -> dict:
    """Build, run, and time one case (compilation excluded)."""
    processor = _make_processor(case, fast_path, jit)
    start = time.perf_counter()
    result = processor.run()
    wall = time.perf_counter() - start
    measured = {
        "case": case.label,
        "workload": case.workload,
        "kind": case.kind,
        "units": case.units,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "wall_seconds": round(wall, 6),
        "cycles_per_second": round(result.cycles / wall, 1)
        if wall > 0 else float("inf"),
    }
    engine = getattr(processor, "_jit", None)
    if engine is not None:
        measured["jit"] = engine.stats_dict(top=5)
    return measured


def profile_case(case: BenchCase, fast_path: bool = True,
                 jit: bool = True, top: int = 20) -> dict:
    """Re-run one case under cProfile; return the hottest functions."""
    processor = _make_processor(case, fast_path, jit)
    profiler = cProfile.Profile()
    profiler.enable()
    processor.run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, func), (cc, nc, tt, ct, _callers) in \
            stats.stats.items():
        rows.append({
            "function": f"{Path(filename).name}:{line}({func})",
            "calls": nc,
            "tottime": round(tt, 4),
            "cumtime": round(ct, 4),
        })
    rows.sort(key=lambda row: row["tottime"], reverse=True)
    return {"case": case.label, "top": rows[:top]}


def measure_trace_overhead(case: BenchCase | None = None) -> dict:
    """Cost of the observability instrumentation when tracing is off,
    as a count that repeats exactly.

    Runs one representative case twice under ``sys.setprofile`` and
    counts Python-level calls (Python and C functions alike):

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

    from repro.observability.events import EventBus, TraceEvent

    case = case or BenchCase("wc", "multiscalar", 4)
    event_init = TraceEvent.__init__.__code__

    def count_calls(masked: bool) -> tuple[int, int]:
        processor = _make_processor(case, fast_path=True, jit=False)
        if masked:
            EventBus(0).attach(processor)
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
            processor.run()
        finally:
            sys.setprofile(None)
        return calls, events

    # The first run of a program builds its lazy decode tables; keep
    # that one-off work out of both counted runs.
    _make_processor(case, fast_path=True, jit=False).run()
    disabled, _ = count_calls(masked=False)
    masked, constructed = count_calls(masked=True)
    return {
        "case": case.label,
        "disabled_calls": disabled,
        "masked_calls": masked,
        "events_constructed": constructed,
        "overhead": round(masked / disabled - 1.0, 6),
    }


def run_bench(quick: bool = False, fast_path: bool = True,
              jit: bool = True, profile: bool = True,
              progress=None) -> dict:
    """Run the whole suite; return the JSON-able payload."""
    progress = progress or (lambda message: None)
    suite = build_suite(quick)
    calibration = calibrate()
    progress(f"calibration: {calibration:,.0f} loop iterations/sec")
    cases = []
    total_cycles = 0
    total_wall = 0.0
    for case in suite:
        measured = run_case(case, fast_path, jit)
        cases.append(measured)
        total_cycles += measured["cycles"]
        total_wall += measured["wall_seconds"]
        progress(f"{case.label}: {measured['cycles']} cycles in "
                 f"{measured['wall_seconds']:.2f}s "
                 f"({measured['cycles_per_second']:,.0f} cyc/s)")
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "fast_path": fast_path,
        "jit": jit and fast_path,
        "calibration_score": round(calibration, 1),
        "cases": cases,
        "total": {
            "cycles": total_cycles,
            "wall_seconds": round(total_wall, 6),
            "cycles_per_second": round(total_cycles / total_wall, 1)
            if total_wall > 0 else float("inf"),
        },
    }
    if profile:
        target = next((c for c in suite if c.kind == "multiscalar"),
                      suite[0])
        progress(f"profiling {target.label} under cProfile")
        payload["profile"] = profile_case(target, fast_path, jit)
    overhead = measure_trace_overhead()
    progress(f"trace-off overhead ({overhead['case']}): "
             f"{overhead['overhead']:+.3%} calls "
             f"({overhead['disabled_calls']:,} disabled, "
             f"{overhead['masked_calls']:,} masked, "
             f"{overhead['events_constructed']} events built)")
    payload["trace_overhead"] = overhead
    return payload


# ------------------------------------------------------- baseline gating

def compare_to_baseline(payload: dict, baseline: dict,
                        max_regression: float = 0.30
                        ) -> tuple[bool, list[str]]:
    """Gate ``payload`` against a committed baseline.

    The baseline throughput is rescaled by the calibration ratio so a
    slower/faster machine is compared fairly; the gate fails only when
    the *total* calibrated throughput regresses by more than
    ``max_regression``.
    """
    lines: list[str] = []
    # Refuse cross-mode comparisons outright: an interpreter run gated
    # against a JIT baseline (or vice versa) would measure the knob,
    # not the code. Baselines from before the ``jit`` field existed
    # were interpreter measurements, hence the False default.
    mode = (bool(payload.get("fast_path", True)),
            bool(payload.get("jit", False)))
    base_mode = (bool(baseline.get("fast_path", True)),
                 bool(baseline.get("jit", False)))
    if mode != base_mode:
        def _name(pair):
            fast, jit = pair
            if not fast:
                return "reference (--no-fast-path)"
            return "jit" if jit else "interpreter (--no-jit)"
        return False, [
            f"execution-mode mismatch: this run used {_name(mode)} but "
            f"the baseline was recorded with {_name(base_mode)}; "
            "re-run in the baseline's mode or record a new baseline"]
    base_score = baseline.get("calibration_score") or 0.0
    score = payload.get("calibration_score") or 0.0
    if not base_score or not score:
        return True, ["baseline or current run lacks a calibration "
                      "score; skipping the regression gate"]
    ratio = score / base_score
    lines.append(f"machine calibration: baseline {base_score:,.0f}, "
                 f"current {score:,.0f} (x{ratio:.2f})")
    # Aggregate over the cases present in BOTH runs, so a --quick run
    # gates cleanly against a full-suite baseline.
    base_by_case = {case["case"]: case for case in baseline["cases"]}
    cycles = wall = base_cycles = base_wall = 0
    for case in payload["cases"]:
        base = base_by_case.get(case["case"])
        if base is None:
            lines.append(f"{case['case']}: not in baseline, ignored")
            continue
        expected = base["cycles_per_second"] * ratio
        actual = case["cycles_per_second"]
        delta = f", {actual / expected - 1.0:+.1%}" if expected else ""
        lines.append(f"{case['case']}: {actual:,.0f} cyc/s "
                     f"(calibrated baseline {expected:,.0f}{delta})")
        cycles += case["cycles"]
        wall += case["wall_seconds"]
        base_cycles += base["cycles"]
        base_wall += base["wall_seconds"]
    if not wall or not base_wall:
        return True, lines + ["no overlapping cases with the baseline; "
                              "skipping the regression gate"]
    total = cycles / wall
    base_total = (base_cycles / base_wall) * ratio
    floor = (1.0 - max_regression) * base_total
    ok = total >= floor
    lines.append(
        f"total: {total:,.0f} cyc/s vs calibrated baseline "
        f"{base_total:,.0f} (floor {floor:,.0f} at "
        f"-{max_regression:.0%}): {'ok' if ok else 'REGRESSION'}")
    return ok, lines


def load_baseline(path: str | Path) -> dict | None:
    """A stored bench payload, or None when absent or corrupt.

    Payloads carry a checksum over everything else in the file; a
    mismatch (truncation, bit rot, hand edits) warns once and reads as
    absent rather than gating against garbage. Checksum-less files from
    before the field existed still load.
    """
    path = Path(path)
    payload = atomio.read_json(path)
    if not isinstance(payload, dict):
        return None
    checksum = payload.get("checksum")
    if checksum is not None:
        body = {k: v for k, v in payload.items() if k != "checksum"}
        if atomio.payload_checksum(body) != checksum:
            atomio.warn_corrupt_once(path, "checksum mismatch")
            return None
    return payload


def write_payload(payload: dict, path: str | Path) -> None:
    """Persist a bench payload (atomic replace, fsync, checksum)."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    body["checksum"] = atomio.payload_checksum(body)
    atomio.atomic_write_text(
        Path(path), json.dumps(body, indent=2) + "\n")

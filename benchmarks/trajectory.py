"""Append one record per PR to the committed ``BENCH_trajectory.json``.

``perf/run.py`` leaves a complete run in git-ignored ``perf/out``; this
keeps what tells "the box was slow" from "the commit is slow" without
re-running the parent: end-to-end medians and spreads, the same columns
normalised by the run's calibration score, the layer numbers ROADMAP.md
quotes, and the opcode yardstick of ``benchmarks/opcount.py``.

    python3 perf/run.py --seed 0 --out perf/out
    PYTHONPATH=src python3 benchmarks/trajectory.py perf/out/result.json \\
        --label "PR 21 (change)" --opcodes
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_trajectory.json"

#: Host-time columns are scaled to this calibration score
#: (``repro.harness.bench.calibrate``, loop iterations per second).
REFERENCE_SCORE = 10_000_000.0
RATES, TIMES = ("cycles/s", "1/s"), ("s", "ms")

LAYERS = """core.scalar.us_per_cycle core.scalar_nojit.us_per_cycle
core.scalar_ooo2.us_per_cycle core.ms4.us_per_cycle core.ms8.us_per_cycle
core.ms8_nojit.us_per_cycle core.ms8_ooo2.us_per_cycle core.ms8_over_ms4_cost
core.fastpath_speedup_ms4 core.sim_cycles_total jit.scalar_speedup
jit.ms8_speedup hostshare.pipeline hostshare.core
engine.scheduler.pool_utilization engine.scheduler.pool_dispatch_ms
engine.scheduler.daemon_dispatch_ms server.fresh.p50_ms
server.client_poll_wait_ms server.dispatch_ms server.fresh_scaling
server.submit_cached_ms server.result_ms server.status_ms server.cached.rps
harness.pred_mae harness.sign_mismatches compiler.instr_overhead_pct""".split()


def _spread(samples: list[float], median: float) -> float | None:
    """Quartile distance over the median (``perf/README.md``'s spread)."""
    if len(samples) < 2 or not median:
        return None
    low, _, high = statistics.quantiles(samples, n=4)
    return round((high - low) / median, 4)


def record_from(envelope: dict, label: str) -> dict:
    """One trajectory record from a ``perf/run.py`` result envelope."""
    score = envelope["calibration_score"]
    end_to_end, layers = {}, {}
    for workload, runs in envelope["workloads"].items():
        samples = runs["e2e"].get("samples", {})
        cells = end_to_end[workload] = {}
        for name, cell in runs["e2e"]["metrics"].items():
            value, unit = cell["value"], cell["unit"]
            scale = (REFERENCE_SCORE / score if unit in RATES
                     else score / REFERENCE_SCORE if unit in TIMES else None)
            cells[name] = {
                "median": value,
                "spread": _spread(samples.get(name, []), value),
                "normalised": None if scale is None else value * scale}
        measured = runs["layers"].get("measured_here", [])
        for name in LAYERS:
            if name in measured:
                layers[name] = runs["layers"]["metrics"][name]["value"]
    return {"label": label, "git_revision": envelope["git_revision"],
            "git_dirty": envelope["git_dirty"], "python": envelope["python"],
            "seed": envelope["seed"], "seconds": envelope["seconds"],
            "calibration_score": score, "end_to_end": end_to_end,
            "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("result", help="a perf/run.py result.json")
    parser.add_argument("--label", required=True)
    parser.add_argument("--opcodes", action="store_true",
                        help="also count opcodes per cycle (about a minute)")
    args = parser.parse_args(argv)
    record = record_from(json.loads(Path(args.result).read_text()),
                         args.label)
    if args.opcodes:
        from opcount import SHAPES, measure

        record["opcodes_per_cycle"] = {
            f"{kernel}:{shape}:{'jit' if jit else 'nojit'}":
                round(opcodes / cycles, 1)
            for kernel, shape, jit, opcodes, cycles
            in measure(("cmp", "wc"), SHAPES)}
    records = json.loads(TRAJECTORY.read_text())
    records.append(record)
    TRAJECTORY.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{TRAJECTORY.name}: record {len(records) - 1} ({args.label})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

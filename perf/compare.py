"""Compare benchmark results: one row per (end-to-end metric, workload).

    python perf/compare.py A.json B.json      # two result envelopes
    python perf/compare.py --pairs DIR        # DIR/a-*.json and DIR/b-*.json

A is the parent, B the change; both are ``result.json`` envelopes written
by ``perf/run.py``. With ``--pairs`` the i-th ``a-`` file and the i-th
``b-`` file (sorted by name) form a pair; run the two commits
alternately, at least ten pairs, switching which side goes first.

Each row reads one of

* ``better`` — with pairs: B wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the
  distance between A's quartiles; with two files (two single runs cannot
  show a small gain): every B sample beats every A sample, at least
  three a side, and the gain is larger than the bound;
* ``worse-than-bound`` — B's median is worse than A's by more than the
  bound ``perf/metrics.py`` fixes for the metric;
* ``unresolved`` — A's own spread (quartile distance over median) is
  wider than the bound, and B is not better on every sample;
* ``unchanged`` — none of the above.

Metrics of kind ``sim`` repeat exactly, so they compare with ``==``.
Every ratio is printed with its base. Exit status is 1 when any row is
``worse-than-bound`` or any run had failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0:1] = [str(_ROOT)]

from perf.metrics import END_TO_END, WORKLOAD_NAMES, EndToEnd  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Two single runs cannot show a small gain: "better" then needs this
#: many samples a side, all separated, and a gain beyond the bound.
MIN_SAMPLES = 3


def _beats(metric: EndToEnd, b: float, a: float) -> bool:
    return b < a if metric.better == "lower" else b > a


def _quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(metric: EndToEnd, a: list[float], b: list[float],
          paired: bool) -> dict:
    """Verdict for one (metric, workload). ``a`` and ``b`` are run
    values pair by pair when ``paired``, else the raw samples of one
    run each."""
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    row = {"a": mid_a, "b": mid_b, "n_a": len(a), "n_b": len(b),
           "ratio": mid_b / mid_a if mid_a else float("nan")}
    if metric.kind == "sim":
        same = set(a) == set(b) and len(set(a)) == 1
        row["verdict"] = "unchanged" if same else (
            "better" if _beats(metric, mid_b, mid_a) else "worse-than-bound")
        return row
    distance = _quartile_distance(a)
    spread = distance / abs(mid_a) if mid_a else 0.0
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    every_b_better = all(_beats(metric, y, x) for y in b for x in a)
    gap = abs(mid_b - mid_a) > distance
    if paired:
        wins = sum(_beats(metric, y, x) for x, y in zip(a, b))
        row["wins"] = wins
        gain = (len(a) >= MIN_PAIRS and wins >= WIN_SHARE * len(a)
                and gap and worse_by < 0)
    else:
        gain = (min(len(a), len(b)) >= MIN_SAMPLES and every_b_better
                and gap and -worse_by > metric.bound)
    row.update(spread=spread, worse_by=worse_by)
    if gain:
        row["verdict"] = "better"
    elif worse_by > metric.bound:
        row["verdict"] = "worse-than-bound"
    elif spread > metric.bound and not every_b_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def _run_value(envelope: dict, workload: str, metric: str) -> float | None:
    cell = envelope["workloads"].get(workload, {}).get("e2e", {}) \
        .get("metrics", {}).get(metric)
    return None if cell is None else cell["value"]


def _run_samples(envelope: dict, workload: str, metric: str) -> list[float]:
    run = envelope["workloads"].get(workload, {}).get("e2e", {})
    samples = run.get("samples", {}).get(metric) or []
    if samples:
        return samples
    value = _run_value(envelope, workload, metric)
    return [] if value is None else [value]


def compare(a_runs: list[dict], b_runs: list[dict]) -> list[dict]:
    """Rows for every (metric, workload) both sides report."""
    paired = len(a_runs) > 1 or len(b_runs) > 1
    rows = []
    for metric in END_TO_END:
        for workload in WORKLOAD_NAMES:
            if paired:
                a = [_run_value(run, workload, metric.name) for run in a_runs]
                b = [_run_value(run, workload, metric.name) for run in b_runs]
                if None in a or None in b:
                    continue
            else:
                a = _run_samples(a_runs[0], workload, metric.name)
                b = _run_samples(b_runs[0], workload, metric.name)
                if not a or not b:
                    continue
            rows.append(dict(judge(metric, a, b, paired), metric=metric.name,
                             unit=metric.unit, bound=metric.bound,
                             workload=workload))
    return rows


def failures(runs: list[dict]) -> int:
    """Failed operations over every run of one side."""
    return sum(run_kind.get("failed", 0)
               for run in runs for entry in run["workloads"].values()
               for run_kind in entry.values())


def render(rows: list[dict], a_failed: int, b_failed: int) -> str:
    lines = [f"{'metric':18} {'workload':16} {'verdict':17} {'B/A':>7} "
             f"{'A (base)':>13} {'B':>13} {'unit':9} {'bound':>6} "
             f"{'A spread':>8}  n"]
    for row in rows:
        spread = f"{row['spread']:8.3f}" if "spread" in row else f"{'exact':>8}"
        wins = f" wins {row['wins']}/{row['n_a']}" if "wins" in row else ""
        lines.append(
            f"{row['metric']:18} {row['workload']:16} {row['verdict']:17} "
            f"{row['ratio']:7.3f} {row['a']:13.6g} {row['b']:13.6g} "
            f"{row['unit']:9} {row['bound']:6.3f} {spread}  "
            f"{row['n_a']}/{row['n_b']}{wins}")
    lines.append(f"failed operations: A {a_failed}, B {b_failed}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="RESULT.json")
    parser.add_argument("--pairs", metavar="DIR",
                        help="directory of a-*.json / b-*.json envelopes")
    args = parser.parse_args(argv)
    if args.pairs:
        directory = Path(args.pairs)
        a_files = sorted(directory.glob("a-*.json"))
        b_files = sorted(directory.glob("b-*.json"))
        if not a_files or len(a_files) != len(b_files):
            parser.error(f"{directory}: need as many a-*.json as b-*.json, "
                         f"found {len(a_files)} and {len(b_files)}")
    elif len(args.files) == 2:
        a_files, b_files = [Path(args.files[0])], [Path(args.files[1])]
    else:
        parser.error("give two result files, or --pairs DIR")
    a_runs = [json.loads(path.read_text()) for path in a_files]
    b_runs = [json.loads(path.read_text()) for path in b_files]
    rows = compare(a_runs, b_runs)
    a_failed, b_failed = failures(a_runs), failures(b_runs)
    print(render(rows, a_failed, b_failed))
    worse = any(row["verdict"] == "worse-than-bound" for row in rows)
    return 1 if worse or a_failed or b_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One-shot report generation: every reproduced table in one document.

``python -m repro report -o report.md`` runs the full evaluation
(Tables 1-4 plus the Section-3 cycle distribution) and writes a
self-contained markdown/text report. Tables 3 and 4 and the
distribution are views of one sweep over both issue orders; ``--quick``
restricts it to a few representative workloads for a fast smoke
report.
"""

from __future__ import annotations

from repro.harness.paper_data import ROW_ORDER
from repro.harness.runner import paper_sweep, table2_rows, table_rows
from repro.harness.tables import (
    format_cycle_distribution,
    format_table1,
    format_table2,
    format_table3,
)

QUICK_NAMES = ["gcc", "wc", "example"]


def generate_report(store, quick: bool = False) -> str:
    """Run the evaluation through ``store`` (``None``: simulate
    everything, persist nothing) and render the full report text."""
    names = QUICK_NAMES if quick else list(ROW_ORDER)
    counts = table2_rows(names, store=store)
    summary = paper_sweep(names, orders=(False, True), store=store)
    sections = [
        "# Multiscalar reproduction report",
        "",
        "Generated by `python -m repro report`"
        + (" (--quick subset)" if quick else "") + ".",
        "",
        "```",
        format_table1(),
        "```",
        "",
        "```",
        format_table2(counts),
        "```",
        "",
        "```",
        format_table3(table_rows(summary, False)),
        "```",
        "",
        "```",
        format_table3(table_rows(summary, True), out_of_order=True),
        "```",
        "",
        "```",
        format_cycle_distribution({
            name: summary.results[("multiscalar", name, 8, 1, False)]
            .distribution for name in names}),
        "```",
        "",
    ]
    return "\n".join(sections)

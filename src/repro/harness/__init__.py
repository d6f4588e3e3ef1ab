"""Evaluation harness: regenerates the paper's Tables 2, 3, and 4."""

from repro._lazy import lazy_exports

__all__ = [
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PaperSpeedups",
    "TableRow",
    "format_cycle_distribution",
    "format_table1",
    "format_table2",
    "format_table3",
    "run_multiscalar",
    "run_scalar",
    "table2_rows",
    "table3_rows",
    "table4_rows",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "paper_data": (
        "PAPER_TABLE2", "PAPER_TABLE3", "PAPER_TABLE4", "PaperSpeedups",
    ),
    "runner": (
        "TableRow", "run_multiscalar", "run_scalar", "table2_rows",
        "table3_rows", "table4_rows",
    ),
    "tables": (
        "format_table1", "format_table2", "format_table3",
        "format_cycle_distribution",
    ),
})

"""Tests for the evaluation harness: runners, caching, and formatting."""

from repro.engine import ResultStore
from repro.harness import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    format_cycle_distribution,
    format_table1,
    format_table2,
    format_table3,
)
from repro.harness.paper_data import ROW_ORDER
from repro.harness.runner import (
    run_multiscalar,
    run_scalar,
    table2_rows,
    table3_rows,
)
from repro.workloads import WORKLOADS


def test_paper_data_complete():
    for table in (PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4):
        assert set(table) == set(ROW_ORDER)
    for row in PAPER_TABLE3.values():
        assert 0.5 < row.scalar_ipc_1w < 1.2
        assert row.pred_4u_1w <= 100.0


def test_run_scalar_memoized():
    first = run_scalar("wc", 1, False)
    store = ResultStore()
    assert run_scalar("wc", 1, False, store=store) == first
    assert store.hits == 1 and len(store) == 1


def test_run_multiscalar_memoized_and_verified():
    first = run_multiscalar("wc", 4, 1, False)
    assert first.output == WORKLOADS["wc"].expected_output
    store = ResultStore()
    assert run_multiscalar("wc", 4, 1, False, store=store) == first
    assert store.hits == 1


def test_dynamic_count_multiscalar_not_smaller():
    [(_, scalar, multi, _)] = table2_rows(["wc"])
    assert multi >= scalar


def test_format_table1_contains_all_latencies():
    text = format_table1()
    for token in ("Integer Multiply", "DP Divide", "18", "Branch"):
        assert token in text


def test_format_table2_includes_paper_column():
    rows = [("wc", 100, 110, 10.0)]
    text = format_table2(rows)
    assert "wc" in text
    assert "10.0%" in text
    assert f"{PAPER_TABLE2['wc'][2]:.1f}%" in text


def test_format_table3_single_row(table_store):
    rows = table3_rows(names=["wc"], store=table_store)
    text = format_table3(rows)
    assert "wc" in text
    assert "(" in text   # paper comparison values present
    assert "In-Order" in text


def test_format_cycle_distribution(table_store):
    result = run_multiscalar("wc", 4, 1, False, store=table_store)
    text = format_cycle_distribution({"wc": result.distribution})
    assert "wc" in text
    assert "useful" in text
    # Row fractions parse back to ~1.0.
    row = [line for line in text.splitlines() if line.startswith("wc")][0]
    values = [float(v) for v in row.split()[1:]]
    assert abs(sum(values) - 1.0) < 0.01

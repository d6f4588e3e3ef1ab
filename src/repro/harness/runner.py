"""Paper-table rows, read off the sweep's resolved grid.

Tables 3 and 4 and the report's cycle distribution are views of one
:func:`~repro.engine.sweep.run_sweep` summary: its cells carry the
speedups and prediction accuracies, its ``results`` the scalar IPCs and
cycle distributions. Table 2 and the one-job reads resolve through the
same :class:`~repro.engine.resolve.LocalResolver`, so every number here
shares the sweep's keys, store and worker pool. A failed job raises —
:class:`~repro.engine.SimulationMismatchError` when its output was
wrong, :class:`RuntimeError` naming the job otherwise — so a table
never has a hole.

``store`` defaults to the environment's (``$REPRO_CACHE_DIR``, none
under ``REPRO_NO_DISK_CACHE``); ``store=None`` always simulates and
persists nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.results import MultiscalarResult, ScalarResult
from repro.engine.job import (
    SimJob,
    SimulationMismatchError,
    count_job,
    multiscalar_job,
    result_from_payload,
    scalar_job,
)
from repro.engine.resolve import LocalResolver
from repro.engine.store import ResultStore, persistent_cache_enabled
from repro.engine.sweep import (
    SweepCell,
    SweepRequest,
    SweepSummary,
    run_sweep,
)
from repro.harness.paper_data import ROW_ORDER

__all__ = [
    "TableRow",
    "paper_sweep",
    "run_multiscalar",
    "run_scalar",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table_rows",
]

#: The ``store=`` default: the environment's store, chosen per call.
_ENV = object()
#: Grids resolve with one worker per CPU.
_WORKERS = os.cpu_count() or 1


def _chosen(store) -> ResultStore | None:
    if store is _ENV:
        return ResultStore() if persistent_cache_enabled() else None
    return store


def _raise_first(interrupted: bool, errors: list[str]) -> None:
    """Re-raise Ctrl-C, else the first failed job's ``"<label>: <Type>:
    <message>"`` line (what ``scheduler._attempt`` reports, after the
    job's label): a mismatch as its own type, anything else as a
    :class:`RuntimeError`."""
    if interrupted:
        raise KeyboardInterrupt
    if errors:
        kind, _, message = errors[0].partition(": ")[2].partition(": ")
        if kind == SimulationMismatchError.__name__:
            raise SimulationMismatchError(message)
        raise RuntimeError(errors[0])


def _results(jobs: list[SimJob], store, workers: int = 1) -> list:
    """The native result of each job, in order, through the store."""
    resolution = LocalResolver(_chosen(store), jobs=workers).resolve(jobs)
    _raise_first(resolution.interrupted, [
        f"{job.label()}: {resolution.errors[job.key()]}"
        for job in jobs if job.key() in resolution.errors])
    return [result_from_payload(resolution.payloads[job.key()])
            for job in jobs]


def run_scalar(name: str, issue_width: int = 1, out_of_order: bool = False,
               store=_ENV) -> ScalarResult:
    """Run one workload on the scalar baseline."""
    return _results([scalar_job(name, issue_width, out_of_order)], store)[0]


def run_multiscalar(name: str, units: int, issue_width: int = 1,
                    out_of_order: bool = False,
                    store=_ENV) -> MultiscalarResult:
    """Run one workload on a multiscalar configuration."""
    return _results([multiscalar_job(name, units, issue_width,
                                     out_of_order)], store)[0]


def paper_sweep(names=None, orders=(False,), units=(4, 8), widths=(1, 2),
                store=_ENV) -> SweepSummary:
    """Resolve a paper grid (by default Table 3's); the first failed
    job raises."""
    summary = run_sweep(SweepRequest(
        tuple(names or ROW_ORDER), units=units, widths=widths,
        orders=orders, jobs=_WORKERS), _chosen(store))
    _raise_first(summary.interrupted, summary.errors)
    return summary


@dataclass
class TableRow:
    """One benchmark row of Table 3 or Table 4."""

    name: str
    scalar_ipc_1w: float
    cell_4u_1w: SweepCell
    cell_8u_1w: SweepCell
    scalar_ipc_2w: float
    cell_4u_2w: SweepCell
    cell_8u_2w: SweepCell


def table_rows(summary: SweepSummary, out_of_order: bool) -> list[TableRow]:
    """The Table-3 (in-order) or Table-4 rows of a :func:`paper_sweep`
    summary."""
    def ipc(name, width):
        return summary.results[("scalar", name, 1, width, out_of_order)].ipc

    return [TableRow(
        name, ipc(name, 1),
        summary.cell(name, 4, 1, out_of_order),
        summary.cell(name, 8, 1, out_of_order),
        ipc(name, 2),
        summary.cell(name, 4, 2, out_of_order),
        summary.cell(name, 8, 2, out_of_order))
        for name in summary.request.workloads]


def table2_rows(names=None, store=_ENV) -> list[tuple[str, int, int, float]]:
    """(name, scalar count, multiscalar count, percent increase) rows."""
    names = names or ROW_ORDER
    counts = _results([count_job(name, annotated)
                       for name in names for annotated in (False, True)],
                      store, workers=_WORKERS)
    return [(name, scalar, multi, 100.0 * (multi / scalar - 1))
            for name, scalar, multi
            in zip(names, counts[::2], counts[1::2])]


def table3_rows(names=None, store=_ENV) -> list[TableRow]:
    """Table 3: in-order issue processing units."""
    return table_rows(paper_sweep(names, (False,), store=store), False)


def table4_rows(names=None, store=_ENV) -> list[TableRow]:
    """Table 4: out-of-order issue processing units."""
    return table_rows(paper_sweep(names, (True,), store=store), True)

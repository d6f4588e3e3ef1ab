"""Run workloads across machine configurations and build table rows.

Memoization is two-level: a per-process dict (hits return the very
same result object) in front of the engine's persistent on-disk store
(results survive across processes and invalidate themselves when the
simulator or a workload changes). Output verification raises
:class:`~repro.engine.SimulationMismatchError` unconditionally — it is
a real check, not a ``assert`` stripped under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import MultiscalarResult, ScalarResult
from repro.engine.job import (
    SimulationMismatchError,
    count_job,
    execute_cached,
    multiscalar_job,
    scalar_job,
)
from repro.engine.store import ResultStore, persistent_cache_enabled
from repro.harness.paper_data import ROW_ORDER

__all__ = [
    "SimulationMismatchError",
    "clear_cache",
    "dynamic_count",
    "run_multiscalar",
    "run_scalar",
    "set_persistent_cache",
    "table2_rows",
    "table3_rows",
    "table4_rows",
]

_scalar_cache: dict[tuple, ScalarResult] = {}
_multi_cache: dict[tuple, MultiscalarResult] = {}
_count_cache: dict[tuple, int] = {}

#: Process-wide switch for the persistent layer (``--no-cache``).
_persistent = True


def set_persistent_cache(enabled: bool) -> None:
    """Turn the on-disk result store on or off for this process."""
    global _persistent
    _persistent = enabled


def _store() -> ResultStore | None:
    if not _persistent or not persistent_cache_enabled():
        return None
    return ResultStore()      # resolves $REPRO_CACHE_DIR lazily


def clear_cache(persistent: bool = False) -> int:
    """Empty the in-process memo caches; with ``persistent=True`` also
    purge the on-disk store. Returns the number of stored result files
    removed (0 for the in-process-only flavour)."""
    _scalar_cache.clear()
    _multi_cache.clear()
    _count_cache.clear()
    if persistent:
        return ResultStore().purge()
    return 0


def run_scalar(name: str, issue_width: int = 1,
               out_of_order: bool = False) -> ScalarResult:
    """Run one workload on the scalar baseline (memoized)."""
    key = (name, issue_width, out_of_order)
    if key not in _scalar_cache:
        _scalar_cache[key] = execute_cached(
            scalar_job(name, issue_width, out_of_order), _store())
    return _scalar_cache[key]


def run_multiscalar(name: str, units: int, issue_width: int = 1,
                    out_of_order: bool = False) -> MultiscalarResult:
    """Run one workload on a multiscalar configuration (memoized)."""
    key = (name, units, issue_width, out_of_order)
    if key not in _multi_cache:
        _multi_cache[key] = execute_cached(
            multiscalar_job(name, units, issue_width, out_of_order),
            _store())
    return _multi_cache[key]


def dynamic_count(name: str, multiscalar: bool) -> int:
    """Dynamic instruction count of a workload binary (memoized)."""
    key = (name, multiscalar)
    if key not in _count_cache:
        _count_cache[key] = execute_cached(
            count_job(name, annotated=multiscalar), _store())
    return _count_cache[key]


# ------------------------------------------------------------ table rows

@dataclass
class SpeedupCell:
    speedup: float
    prediction_accuracy: float   # percent


@dataclass
class TableRow:
    """One benchmark row of Table 3 or Table 4."""

    name: str
    scalar_ipc_1w: float
    cell_4u_1w: SpeedupCell
    cell_8u_1w: SpeedupCell
    scalar_ipc_2w: float
    cell_4u_2w: SpeedupCell
    cell_8u_2w: SpeedupCell


def table2_rows() -> list[tuple[str, int, int, float]]:
    """(name, scalar count, multiscalar count, percent increase) rows."""
    rows = []
    for name in ROW_ORDER:
        scalar = dynamic_count(name, multiscalar=False)
        multi = dynamic_count(name, multiscalar=True)
        rows.append((name, scalar, multi, 100.0 * (multi / scalar - 1)))
    return rows


def _speedup_cell(name: str, units: int, issue_width: int,
                  out_of_order: bool) -> SpeedupCell:
    scalar = run_scalar(name, issue_width, out_of_order)
    multi = run_multiscalar(name, units, issue_width, out_of_order)
    return SpeedupCell(
        speedup=scalar.cycles / multi.cycles,
        prediction_accuracy=100.0 * multi.prediction_accuracy)


def _speedup_rows(out_of_order: bool,
                  names: list[str] | None = None) -> list[TableRow]:
    rows = []
    for name in names or ROW_ORDER:
        rows.append(TableRow(
            name=name,
            scalar_ipc_1w=run_scalar(name, 1, out_of_order).ipc,
            cell_4u_1w=_speedup_cell(name, 4, 1, out_of_order),
            cell_8u_1w=_speedup_cell(name, 8, 1, out_of_order),
            scalar_ipc_2w=run_scalar(name, 2, out_of_order).ipc,
            cell_4u_2w=_speedup_cell(name, 4, 2, out_of_order),
            cell_8u_2w=_speedup_cell(name, 8, 2, out_of_order),
        ))
    return rows


def table3_rows(names: list[str] | None = None) -> list[TableRow]:
    """Table 3: in-order issue processing units."""
    return _speedup_rows(out_of_order=False, names=names)


def table4_rows(names: list[str] | None = None) -> list[TableRow]:
    """Table 4: out-of-order issue processing units."""
    return _speedup_rows(out_of_order=True, names=names)

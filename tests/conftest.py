"""Shared fixtures: keep the persistent result store out of the repo.

Every test gets a private ``REPRO_CACHE_DIR`` so simulations cached by
one test can never leak into another (or litter ``.repro-cache/`` in
the working tree). What is shared across tests is opt-in and
session-scoped: ``grid_run`` for the digest and differential files,
and ``table_store`` — one result store — for the table and report
tests that assert nothing about cache accounting, so each paper-grid
cell is simulated once per session.
"""

import functools
import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

#: The grid whose default-mode runs ``tests/data/grid_digest.json``
#: pins: every bundled workload on these machines and unit shapes.
GRID_MACHINES = {"scalar": 1, "ms4": 4, "ms8": 8}
GRID_SHAPES = {"1w-io": (1, False), "2w-ooo": (2, True)}
GRID_DIGEST_PATH = Path(__file__).parent / "data" / "grid_digest.json"


@dataclass(frozen=True)
class GridRun:
    """One finished run of a grid cell, reduced to what tests compare."""

    result: dict
    metrics: dict
    #: sha256 over ``result.to_dict()`` and the final ``capture_state``.
    digest: str
    #: ``UnitJIT.stats_dict()``, or None when no engine was built
    #: (always, on a multiscalar machine: it has no ``_jit``).
    jit_stats: dict | None


def simulate_cell(workload: str, machine: str, shape: str = "1w-io",
                  **mode) -> GridRun:
    """Run one (workload, machine, shape) cell; ``mode`` is
    ``fast_path=`` / ``jit=`` (default: both on)."""
    from repro.config import multiscalar_config, scalar_config
    from repro.core.processor import MultiscalarProcessor
    from repro.core.scalar import ScalarProcessor
    from repro.observability import collect_metrics
    from repro.resilience import capture_state
    from repro.workloads import WORKLOADS

    units = GRID_MACHINES[machine]
    width, ooo = GRID_SHAPES[shape]
    spec = WORKLOADS[workload]
    if units == 1:
        processor = ScalarProcessor(spec.scalar_program(),
                                    scalar_config(width, ooo, **mode))
    else:
        processor = MultiscalarProcessor(
            spec.multiscalar_program(),
            multiscalar_config(units, width, ooo, **mode))
    result = processor.run().to_dict()
    blob = json.dumps({"result": result, "state": capture_state(processor)},
                      sort_keys=True)
    engine = getattr(processor, "_jit", None)
    return GridRun(result, collect_metrics(processor).to_dict(),
                   hashlib.sha256(blob.encode()).hexdigest(),
                   None if engine is None else engine.stats_dict())


@pytest.fixture(scope="session")
def grid_run():
    """``grid_run(workload, machine, shape="1w-io")``: the default-mode
    run of a grid cell, simulated once per session and shared by the
    digest test and both differential files (each of which then only
    simulates its own other side)."""
    cached = functools.lru_cache(maxsize=None)(simulate_cell)
    # One spelling of the key: lru_cache tells (w, m) from (w, m, shape).
    return lambda workload, machine, shape="1w-io": \
        cached(workload, machine, shape)


@pytest.fixture(scope="session")
def table_store(tmp_path_factory):
    """One :class:`~repro.engine.ResultStore` for the whole session."""
    from repro.engine import ResultStore

    return ResultStore(tmp_path_factory.mktemp("table-store"))


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    yield


@pytest.fixture
def passes(monkeypatch):
    """Either scheduling discipline sleeps only in
    ``scheduler._wait_ready``; the list collects one
    ``(busy workers, timeout)`` pair per supervision pass."""
    from repro.engine import scheduler

    seen = []
    wait_ready = scheduler._wait_ready

    def counted(workers, timeout, wake=None):
        seen.append((len(workers), timeout))
        return wait_ready(workers, timeout, wake)

    monkeypatch.setattr(scheduler, "_wait_ready", counted)
    return seen


@pytest.fixture
def serve():
    """``serve(srv)`` runs a :class:`~repro.server.ReproServer` on a
    free port (or ``port=``) in a background thread for the rest of the
    test and returns its base URL."""
    started = []

    def start(srv, port: int = 0) -> str:
        ready = threading.Event()
        thread = threading.Thread(
            target=srv.run,
            kwargs={"port": port, "ready": lambda port: ready.set()},
            daemon=True)
        thread.start()
        assert ready.wait(15), "server never bound its port"
        started.append((srv, thread))
        return f"http://127.0.0.1:{srv.port}"

    yield start
    for srv, thread in started:
        srv.shutdown()
        srv.stop()
        thread.join(10)
        assert not thread.is_alive(), "server did not stop"

"""Shared fixtures: keep the persistent result store out of the repo.

Every test gets a private ``REPRO_CACHE_DIR`` so simulations cached by
one test can never leak into another (or litter ``.repro-cache/`` in
the working tree). The in-process memo caches in
``repro.harness.runner`` are intentionally left alone — sharing those
across tests is what keeps the table suites fast.
"""

import threading

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    yield


@pytest.fixture
def serve():
    """``serve(srv)`` runs a :class:`~repro.server.ReproServer` on a
    free port in a background thread for the rest of the test and
    returns its base URL."""
    started = []

    def start(srv) -> str:
        ready = threading.Event()
        thread = threading.Thread(
            target=srv.run,
            kwargs={"port": 0, "ready": lambda port: ready.set()},
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

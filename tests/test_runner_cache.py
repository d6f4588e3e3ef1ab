"""Tests for the harness runner's reads through the persistent store.

Tables 3, 4, and the distribution study are views of a sweep, and the
one-job reads (``run_scalar`` / ``run_multiscalar``) resolve through
the same store: a run repeated in a fresh process must be served from
disk without re-simulating, and two different machine configurations
must never collide on one key.
"""

import pytest

from repro.cli import main
from repro.engine import (
    ResultStore,
    SimulationMismatchError,
    multiscalar_job,
    scalar_job,
)
from repro.harness.runner import (
    run_multiscalar,
    run_scalar,
    table2_rows,
)

#: A cheap workload, so cache tests don't dominate the suite's runtime.
NAME = "cmp"


def test_differing_multiscalar_configs_never_collide():
    grid = [(units, width, ooo)
            for units in (2, 4) for width in (1, 2)
            for ooo in (False, True)]
    results = {cfg: run_multiscalar(NAME, *cfg) for cfg in grid}
    # Every configuration is its own stored entry...
    store = ResultStore()
    assert len(store) == len(grid)
    # ...and a repeat sweep serves each one from disk, unchanged.
    for cfg, result in results.items():
        assert run_multiscalar(NAME, *cfg, store=store) == result
    assert store.hits == len(grid) and len(store) == len(grid)


def test_cache_keys_include_every_config_axis():
    configs = [(4, 1, False), (4, 2, False), (4, 1, True), (8, 1, False)]
    keys = {multiscalar_job(NAME, *cfg).key() for cfg in configs}
    assert len(keys) == len(configs)
    assert scalar_job(NAME).key() not in keys


def test_scalar_and_multiscalar_caches_are_separate():
    run_scalar(NAME, issue_width=2)
    run_multiscalar(NAME, units=2, issue_width=2)
    store = ResultStore()
    assert len(store) == 2
    assert store.get(scalar_job(NAME, 2).key())["type"] == "scalar"
    assert store.get(multiscalar_job(NAME, 2, 2).key())["type"] \
        == "multiscalar"


def test_dynamic_count_cache_distinguishes_binaries():
    [(name, scalar, multi, _)] = table2_rows([NAME])
    assert name == NAME
    # The annotated binary executes at least as many instructions
    # (inserted releases), so the two entries are genuinely distinct.
    assert multi >= scalar
    assert len(ResultStore()) == 2


# ------------------------------------------------- persistent store layer

def test_runner_populates_the_persistent_store():
    result = run_scalar(NAME)
    store = ResultStore()
    assert len(store) == 1
    # Every read is a new deserialization from disk: equal stats, a
    # distinct object, and the store counts the hit.
    revived = run_scalar(NAME, store=store)
    assert revived is not result
    assert revived == result
    assert store.hits == 1 and store.misses == 0


def test_dynamic_count_served_from_disk_across_processes():
    first = table2_rows([NAME])
    store = ResultStore()
    assert table2_rows([NAME], store=store) == first
    assert store.hits == 2 and len(store) == 2


def test_clear_cache_persistent_purges_the_store(capsys):
    run_scalar(NAME)
    run_multiscalar(NAME, units=2)
    assert len(ResultStore()) == 2
    assert main(["tables", "1", "--purge-cache"]) == 0
    assert "purged 2 stored results" in capsys.readouterr().err
    assert len(ResultStore()) == 0


def test_set_persistent_cache_off_bypasses_disk():
    run_scalar(NAME, store=None)
    assert len(ResultStore()) == 0


def test_mismatch_is_a_typed_error_not_an_assert(monkeypatch):
    import dataclasses

    from repro.workloads import WORKLOADS

    bad = dataclasses.replace(WORKLOADS[NAME], expected_output="nope")
    monkeypatch.setitem(WORKLOADS, NAME, bad)
    with pytest.raises(SimulationMismatchError, match="does not match"):
        run_scalar(NAME)
    # The failed run must not poison the store.
    assert len(ResultStore()) == 0

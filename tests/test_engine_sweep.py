"""End-to-end tests for sweeps, the persistent cache, and the CLI.

Everything runs serially (``jobs=1``) on the two cheapest workloads so
the suite stays fast; the parallel machinery itself is covered by
``test_engine_scheduler.py`` with synthetic jobs.
"""

import pytest

from repro.cli import main
from repro.engine import (
    ResultStore,
    execute,
    multiscalar_job,
    result_from_payload,
    scalar_job,
)
from repro.engine.sweep import SweepRequest, build_grid, run_sweep

WORKLOADS = ("cmp",)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def request(**overrides):
    defaults = dict(workloads=WORKLOADS, units=(1, 2), widths=(1,),
                    orders=(False,), jobs=1)
    defaults.update(overrides)
    return SweepRequest(**defaults)


def test_grid_has_one_scalar_baseline_per_width_order():
    grid = build_grid(request(units=(1, 2, 4)))
    kinds = [job.kind for job in grid]
    assert kinds.count("scalar") == 1
    assert kinds.count("multiscalar") == 3
    assert len({job.key() for job in grid}) == len(grid)


def test_sweep_matches_serial_harness(store):
    summary = run_sweep(request(), store)
    assert summary.ok
    assert summary.total_jobs == 3
    assert summary.cache_misses == 3 and summary.cache_hits == 0
    scalar = result_from_payload(execute(scalar_job("cmp")))
    assert summary.scalar_cycles[("cmp", 1, False)] == scalar.cycles
    assert summary.results[("scalar", "cmp", 1, 1, False)] == scalar
    for units in (1, 2):
        multi = result_from_payload(execute(multiscalar_job("cmp", units)))
        live = scalar.cycles / multi.cycles
        cell = summary.cell("cmp", units, 1, False)
        assert cell.speedup == pytest.approx(live, rel=0, abs=0)
        assert cell.prediction_accuracy is not None


def test_second_sweep_is_served_from_the_store(store):
    run_sweep(request(), store)
    warm = run_sweep(request(), store)
    assert warm.cache_hits == warm.total_jobs == 3
    assert warm.cache_misses == 0
    assert warm.hit_rate == 1.0
    # Identical numbers either way.
    cold = run_sweep(request(), None)
    assert [c.speedup for c in warm.cells] == \
        [c.speedup for c in cold.cells]


def test_sweep_without_store_never_caches(tmp_path):
    summary = run_sweep(request(), None)
    assert summary.cache_hits == 0
    assert summary.cache_misses == summary.total_jobs


def test_sweep_self_test_injects_and_recovers_a_death(store):
    summary = run_sweep(request(self_test=True, retries=2), store)
    assert summary.ok                      # grid still completed
    assert summary.worker_deaths >= 1      # a worker died mid-job
    assert summary.retries >= 1            # ...and was retried


def test_sweep_self_test_bypasses_cache_read(store):
    run_sweep(request(), store)            # warm every key
    summary = run_sweep(request(self_test=True), store)
    # The faulted job must actually run (a worker must die), even
    # though its result was already stored.
    assert summary.worker_deaths >= 1
    assert summary.cache_misses >= 1


def test_sweep_render_mentions_cache_and_speedups(store):
    summary = run_sweep(request(), store)
    text = summary.render()
    assert "cmp" in text
    assert "hit rate" in text
    assert "speedup" in text


def test_failed_job_is_reported_not_fatal(store, monkeypatch):
    import dataclasses

    from repro.workloads import WORKLOADS as REGISTRY

    bad = dataclasses.replace(REGISTRY["cmp"], expected_output="wrong")
    monkeypatch.setitem(REGISTRY, "cmp", bad)
    summary = run_sweep(request(), store)
    assert not summary.ok
    assert summary.failures == summary.total_jobs
    assert any("SimulationMismatchError" in e for e in summary.errors)
    assert len(store) == 0      # nothing bogus was persisted


# -------------------------------------------------------------------- CLI

def test_cli_sweep_cold_then_warm(capsys):
    argv = ["sweep", "--workloads", "cmp", "--units", "1,2"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "hit rate 0.0%" in cold
    assert main(argv + ["--require-hit-rate", "0.9"]) == 0
    warm = capsys.readouterr().out
    assert "hit rate 100.0%" in warm
    # Same table rows modulo the cache line.
    table = lambda text: [line for line in text.splitlines()
                          if line.startswith("cmp")]
    assert table(cold) == table(warm)


def test_cli_sweep_unmet_hit_rate_fails(capsys):
    argv = ["sweep", "--workloads", "cmp", "--units", "1", "--no-cache",
            "--require-hit-rate", "0.9"]
    assert main(argv) == 1
    assert "below the required" in capsys.readouterr().err


def test_cli_sweep_self_test(capsys):
    argv = ["sweep", "--workloads", "cmp", "--units", "2",
            "--self-test", "--no-cache"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "self-test ok" in err


def test_cli_sweep_timeline(capsys):
    argv = ["sweep", "--workloads", "cmp", "--units", "2", "--timeline"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cycles/column" in out
    assert "tasks retired" in out


def test_cli_sweep_rejects_unknown_workload(capsys):
    assert main(["sweep", "--workloads", "quake"]) == 2
    assert "unknown workloads" in capsys.readouterr().err


def test_cli_sweep_rejects_impossible_machines(capsys):
    # Exit 2 from the parser: before a grid is built or a worker forked.
    for flag, value in (("--units", "0"), ("--units", "4,-1"),
                        ("--widths", "3"), ("--max-cycles", "0"),
                        ("--timeout", "-1"), ("--timeout", "0")):
        with pytest.raises(SystemExit) as exit:
            main(["sweep", "--workloads", "wc", flag, value])
        assert exit.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


def test_cli_cache_status_and_purge(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    store = ResultStore()
    job = scalar_job("cmp")
    store.put(job.key(), execute(job), job=job.describe())
    assert main(["cache"]) == 0
    assert "1 stored results" in capsys.readouterr().out
    assert main(["cache", "--purge"]) == 0
    assert "purged 1" in capsys.readouterr().out
    assert len(store) == 0


def test_cli_tables_accept_no_cache(capsys):
    assert main(["tables", "2", "--no-cache"]) == 0
    assert "Table 2" in capsys.readouterr().out


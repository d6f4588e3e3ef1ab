"""Engine-level resilience: durable writes, crash reruns, clean Ctrl-C.

Covers the integration seams: every persistent store entry goes
through the shared checksummed atomic writer and reads corrupt data as
absent; a killed worker's job runs again from cycle 0 bit-identically;
and a KeyboardInterrupt drains pools without orphans while keeping
every finished result.
"""

import json
import logging
import multiprocessing
import time

from repro.difftest.campaign import FuzzCampaign
from repro.engine.job import execute, multiscalar_job
from repro.engine.scheduler import JobOutcome, PoolJob, WorkerPool
from repro.engine.store import ResultStore
from repro.engine.sweep import SweepRequest, run_sweep

KEY = "ab" + "0" * 62


# ------------------------------------------------- checksummed persistence

def test_store_checksum_mismatch_is_a_miss_and_warns_once(tmp_path,
                                                          caplog):
    store = ResultStore(tmp_path / "cache")
    store.put(KEY, {"type": "count", "count": 1})
    path = store.path_for(KEY)
    envelope = json.loads(path.read_text())
    envelope["payload"]["count"] = 2       # tamper, keep valid JSON
    path.write_text(json.dumps(envelope))
    with caplog.at_level(logging.WARNING, logger="repro.resilience"):
        assert store.get(KEY) is None
        assert store.get(KEY) is None      # second read: no second warn
    warned = [record for record in caplog.records
              if str(path) in record.getMessage()]
    assert len(warned) == 1


# ------------------------------------------------------ killed-job rerun

def test_sweep_killed_job_reruns_bit_identically(tmp_path):
    """End-to-end: the sweep's chaos fault path (serial here) kills the
    job's first attempt; the retry runs it again from cycle 0 and
    stores exactly what an undisturbed run returns."""
    request = SweepRequest(workloads=("wc",), units=(4,), jobs=1,
                           max_cycles=2_000_000)
    store = ResultStore(tmp_path / "cache")
    key = multiscalar_job("wc", 4, max_cycles=2_000_000).key()
    summary = run_sweep(request, store,
                        faults={key: {"kill_on_attempts": (0,)}})
    assert summary.ok
    assert summary.worker_deaths == 1
    assert store.get(key) == execute(
        multiscalar_job("wc", 4, max_cycles=2_000_000))
    assert not (tmp_path / "cache" / "ckpt").exists()


# ------------------------------------------------------ interrupt draining

def _raise_ki(payload, attempt):
    raise KeyboardInterrupt


def _sleep_forever(payload, attempt):
    for _ in range(600):
        time.sleep(0.1)
    return payload


def test_serial_pool_drains_keyboard_interrupt():
    pool = WorkerPool(_raise_ki, jobs=1)
    outcomes = pool.run([PoolJob(job_id=str(n), payload=n)
                         for n in range(3)])
    assert pool.interrupted
    assert all(outcome.error == "interrupted"
               for outcome in outcomes.values())


def test_parallel_pool_drains_keyboard_interrupt(monkeypatch):
    # Ctrl-C lands where the pool spends its time: blocked on its
    # workers' pipes. (Only the parent supervises; workers never wait.)
    def interrupted_wait(workers, timeout, wake=None):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.engine.scheduler._wait_ready",
                        interrupted_wait)
    pool = WorkerPool(_sleep_forever, jobs=2)
    assert not pool.serial
    outcomes = pool.run([PoolJob(job_id=str(n), payload=n)
                         for n in range(3)])
    assert pool.interrupted
    assert all(outcome.error == "interrupted"
               for outcome in outcomes.values())
    assert multiprocessing.active_children() == []   # no orphans


def test_sweep_interrupt_flushes_partial_results(tmp_path, monkeypatch):
    request = SweepRequest(workloads=("wc",), units=(4,), jobs=1,
                           max_cycles=2_000_000)
    store = ResultStore(tmp_path / "cache")

    def interrupted_run(self, pool_jobs):
        outcomes = {}
        for position, job in enumerate(pool_jobs):
            if position == 0:
                outcomes[job.job_id] = self._run_serial(job)
            else:
                outcomes[job.job_id] = JobOutcome(job_id=job.job_id,
                                                  error="interrupted")
        self.interrupted = True
        return outcomes

    monkeypatch.setattr(WorkerPool, "run", interrupted_run)
    summary = run_sweep(request, store)
    assert summary.interrupted
    assert len(store) == 1             # the finished job was persisted
    assert "interrupted" in summary.render()


def test_fuzz_campaign_drains_keyboard_interrupt(monkeypatch):
    calls = {"n": 0}

    def interrupting_check(program, grid, **kwargs):
        calls["n"] += 1
        if calls["n"] > 4:
            raise KeyboardInterrupt
        from repro.difftest.oracle import check_program
        return check_program(program, grid=grid, **kwargs)

    monkeypatch.setattr("repro.difftest.campaign.check_program",
                        interrupting_check)
    campaign = FuzzCampaign(seed=3, budget=50, max_cycles=200_000)
    result = campaign.run()
    assert result.interrupted
    assert result.programs_run + result.programs_skipped == 4
    assert "interrupted" in result.render()


# ------------------------------------------------------------ chaos smoke

def test_chaos_harness_self_test():
    from repro.resilience.chaos import run_chaos, self_test_request

    report = run_chaos(self_test_request())
    assert report.ok, report.render()
    assert len(report.phases) == 4
    assert "bit-identical" in report.render()

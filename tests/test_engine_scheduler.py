"""Tests for the fault-tolerant worker pool.

The entrypoints live at module level so they pickle under any
multiprocessing start method. Simulated work is tiny arithmetic, so
these tests exercise scheduling, death, timeout, and retry machinery
without paying for real simulations.
"""

import multiprocessing
import os
import time

import pytest

from repro.engine import scheduler
from repro.engine.scheduler import (
    InjectedWorkerDeath,
    PoolJob,
    RetryableJobError,
    WorkerPool,
)


def square(payload, attempt):
    return payload * payload


def fail_always(payload, attempt):
    raise ValueError(f"deterministic failure for {payload}")


def flaky_until_attempt(payload, attempt):
    if attempt < payload:
        raise RetryableJobError(f"transient (attempt {attempt})")
    return attempt


def sleepy(payload, attempt):
    time.sleep(payload)
    return "woke"


def crash_first_then_succeed(payload, attempt):
    if attempt == 0:
        os._exit(13)          # die without reporting, like a SIGKILL
    return "recovered"


def jobs_for(values):
    return [PoolJob(job_id=str(i), payload=v) for i, v in enumerate(values)]


# ----------------------------------------------------------------- serial

def test_serial_pool_runs_every_job_in_order():
    pool = WorkerPool(square, jobs=1)
    outcomes = pool.run(jobs_for([2, 3, 4]))
    assert [outcomes[str(i)].value for i in range(3)] == [4, 9, 16]
    assert all(o.ok and o.attempts == 1 for o in outcomes.values())


def test_serial_deterministic_failure_not_retried():
    pool = WorkerPool(fail_always, jobs=1, retries=3)
    outcome = pool.run(jobs_for(["x"]))["0"]
    assert not outcome.ok
    assert outcome.attempts == 1
    assert "deterministic failure" in outcome.error


def test_serial_retryable_error_retries_until_success():
    pool = WorkerPool(flaky_until_attempt, jobs=1, retries=3, backoff=0.0)
    outcome = pool.run(jobs_for([2]))["0"]
    assert outcome.ok
    assert outcome.attempts == 3          # attempts 0, 1 failed; 2 won
    assert outcome.retries == 2


def test_serial_injected_death_is_retried():
    pool = WorkerPool(square, jobs=1, retries=2, backoff=0.0)
    job = PoolJob(job_id="0", payload=5, kill_on_attempts=(0,))
    outcome = pool.run([job])["0"]
    assert outcome.ok and outcome.value == 25
    assert outcome.worker_deaths == 1


def test_serial_exhausted_retries_fail_cleanly():
    pool = WorkerPool(square, jobs=1, retries=1, backoff=0.0)
    job = PoolJob(job_id="0", payload=5, kill_on_attempts=(0, 1, 2, 3))
    outcome = pool.run([job])["0"]
    assert not outcome.ok
    assert outcome.worker_deaths == 2     # both attempts died


def test_duplicate_job_ids_rejected():
    pool = WorkerPool(square, jobs=1)
    with pytest.raises(ValueError):
        pool.run([PoolJob("a", 1), PoolJob("a", 2)])


# --------------------------------------------------------------- parallel

def test_parallel_pool_completes_a_grid():
    pool = WorkerPool(square, jobs=3, timeout=60)
    outcomes = pool.run(jobs_for(list(range(7))))
    assert len(outcomes) == 7
    assert [outcomes[str(i)].value for i in range(7)] == \
        [i * i for i in range(7)]


def test_parallel_sigkilled_worker_is_retried():
    pool = WorkerPool(square, jobs=2, timeout=60, retries=2, backoff=0.0)
    jobs = [PoolJob(job_id="victim", payload=6, kill_on_attempts=(0,)),
            PoolJob(job_id="bystander", payload=7)]
    outcomes = pool.run(jobs)
    assert outcomes["victim"].ok and outcomes["victim"].value == 36
    assert outcomes["victim"].worker_deaths == 1
    assert outcomes["victim"].attempts == 2
    assert outcomes["bystander"].ok and outcomes["bystander"].value == 49


def test_parallel_silent_worker_exit_is_a_death():
    pool = WorkerPool(crash_first_then_succeed, jobs=2, timeout=60,
                      retries=2, backoff=0.0)
    outcome = pool.run(jobs_for(["x"]))["0"]
    assert outcome.ok and outcome.value == "recovered"
    assert outcome.worker_deaths == 1


def test_parallel_timeout_kills_and_retries():
    # Both attempts sleep far past the 2.5s budget: each must be killed
    # and counted, and the pool must give up after the retry budget
    # instead of hanging for the full 10s sleeps.
    pool = WorkerPool(sleepy, jobs=2, timeout=2.5, retries=1, backoff=0.0)
    start = time.monotonic()
    outcome = pool.run(jobs_for([10]))["0"]
    elapsed = time.monotonic() - start
    assert not outcome.ok
    assert outcome.timeouts == 2
    assert "timed out" in outcome.error
    assert elapsed < 30


def test_parallel_deterministic_failure_not_retried():
    pool = WorkerPool(fail_always, jobs=2, timeout=60, retries=3)
    outcome = pool.run(jobs_for(["x"]))["0"]
    assert not outcome.ok
    assert outcome.attempts == 1
    assert "deterministic failure" in outcome.error


def test_parallel_always_dying_job_gets_final_inprocess_rescue():
    # Every child attempt dies, but the final in-process attempt is not
    # in kill_on_attempts, so the rescue path completes the job.
    pool = WorkerPool(square, jobs=2, timeout=60, retries=1, backoff=0.0)
    job = PoolJob(job_id="0", payload=3, kill_on_attempts=(0, 1))
    outcome = pool.run([job])["0"]
    assert outcome.ok and outcome.value == 9
    assert outcome.worker_deaths == 2


def test_parallel_pool_sleeps_until_a_worker_reports(passes):
    # Six 0.2 s jobs on two workers: the old loop ticked every 5 ms
    # (~120 passes); blocking on the pipes takes one or two per job.
    pool = WorkerPool(sleepy, jobs=2, timeout=60)
    outcomes = pool.run(jobs_for([0.2] * 6))
    assert all(outcome.value == "woke" for outcome in outcomes.values())
    assert 3 <= len(passes) <= 18
    assert all(50 < timeout <= 60 for _, timeout in passes)


def test_parallel_pool_wakes_for_a_retry_backoff(passes):
    # Nothing is running while the retry backs off: the wait must end
    # by its timeout, taken from the pending attempt's not_before.
    pool = WorkerPool(flaky_until_attempt, jobs=2, timeout=60, retries=2,
                      backoff=0.2)
    start = time.monotonic()
    outcome = pool.run(jobs_for([1]))["0"]
    assert outcome.ok and outcome.attempts == 2
    assert 0.2 <= time.monotonic() - start < 5
    backoffs = [timeout for workers, timeout in passes if not workers]
    assert backoffs and all(0 < timeout <= 0.2 for timeout in backoffs)
    assert len(passes) <= 8


@pytest.mark.parametrize("jobs, kills, ok, attempts, deaths", [
    pytest.param(1, (0,), True, 2, 1, id="serial-retry"),
    pytest.param(2, (0,), True, 2, 1, id="parallel-retry"),
    pytest.param(2, (0, 1), True, 3, 2, id="rescue-ok"),
    pytest.param(2, (0, 1, 2), False, 3, 3, id="rescue-dies"),
])
def test_pool_outcome_accounting(jobs, kills, ok, attempts, deaths):
    # Every attempt counts once, the final in-process rescue included,
    # and a success carries no error left by the attempts before it.
    pool = WorkerPool(square, jobs=jobs, timeout=60, retries=1, backoff=0.0)
    outcome = pool.run([PoolJob("0", 4, kill_on_attempts=kills)])["0"]
    assert (outcome.ok, outcome.attempts, outcome.worker_deaths) \
        == (ok, attempts, deaths)
    assert (outcome.error == "") == ok
    assert outcome.value == (16 if ok else None)


def test_spawn_failure_degrades_to_serial(monkeypatch):
    spawn, calls = scheduler._spawn, []

    def second_spawn_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("out of processes")
        return spawn(*args)

    monkeypatch.setattr(scheduler, "_spawn", second_spawn_fails)
    messages = []
    pool = WorkerPool(square, jobs=2, timeout=60, backoff=0.0,
                      progress=messages.append)
    outcomes = pool.run(jobs_for([1, 2, 3, 4]))
    assert {job_id: (o.ok, o.value) for job_id, o in outcomes.items()} \
        == {str(i): (True, v * v) for i, v in enumerate([1, 2, 3, 4])}
    assert any("degrading to serial execution" in message
               for message in messages)
    assert multiprocessing.active_children() == []


def test_answer_from_an_exited_child_is_not_a_death(monkeypatch):
    # Every one-shot child has answered and exited before the pool
    # reads it: its answer must win over its dead process.
    wait_ready = scheduler._wait_ready

    def late_wait(workers, timeout, wake=None):
        time.sleep(0.3)
        return wait_ready(workers, timeout, wake)

    monkeypatch.setattr(scheduler, "_wait_ready", late_wait)
    pool = WorkerPool(square, jobs=2, timeout=60)
    outcomes = pool.run(jobs_for([1, 2, 3, 4]))
    assert all(o.ok and o.worker_deaths == 0 for o in outcomes.values())
    assert [outcomes[str(i)].value for i in range(4)] == [1, 4, 9, 16]


def test_empty_job_list_is_fine():
    assert WorkerPool(square, jobs=4).run([]) == {}

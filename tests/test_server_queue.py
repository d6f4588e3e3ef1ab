"""Tests for the lease queue and the persistent worker daemon.

The LeaseQueue tests drive time explicitly (every method takes a
``now``), so lease expiry and heartbeat renewal are exact, not
sleep-based. The daemon tests use tiny module-level entrypoints
(picklable under any multiprocessing start method) plus one real
simulation job to prove the kill → re-queue → checkpoint-resume story
end to end.
"""

import threading
import time

import pytest

from repro.engine.scheduler import (
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    LeaseQueue,
    QueuedJob,
    QueueFullError,
    QuotaExceededError,
    WorkerDaemon,
    priority_value,
)


def qjob(job_id, payload=0, **kwargs):
    return QueuedJob(job_id=job_id, payload=payload, **kwargs)


# -------------------------------------------------------------- priorities

def test_priority_value_accepts_names_and_ints():
    assert priority_value("interactive") == 0
    assert priority_value(DEFAULT_PRIORITY) == 1
    assert priority_value("background") == 2
    assert priority_value(2) == 2
    with pytest.raises(ValueError):
        priority_value("urgent")
    with pytest.raises(ValueError):
        priority_value(7)


def test_lease_order_is_priority_then_fifo():
    queue = LeaseQueue()
    queue.submit(qjob("bg", priority=priority_value("background")))
    queue.submit(qjob("b1", priority=priority_value("batch")))
    queue.submit(qjob("i1", priority=priority_value("interactive")))
    queue.submit(qjob("b2", priority=priority_value("batch")))
    order = []
    while True:
        leased = queue.lease(worker_id=0, now=0.0)
        if leased is None:
            break
        order.append(leased[0].job_id)
    assert order == ["i1", "b1", "b2", "bg"]


# ------------------------------------------------------------ backpressure

def test_queue_depth_bound_raises_429_material():
    queue = LeaseQueue(max_depth=2)
    queue.submit(qjob("a"))
    queue.submit(qjob("b"))
    with pytest.raises(QueueFullError) as err:
        queue.submit(qjob("c"))
    assert err.value.retry_after > 0
    # A granted lease frees pending depth: leased jobs do not count.
    assert queue.lease(0, now=0.0) is not None
    queue.submit(qjob("c"))


def test_per_client_quota():
    queue = LeaseQueue(quota=2)
    queue.submit(qjob("a", client="alice"))
    queue.submit(qjob("b", client="alice"))
    queue.submit(qjob("c", client="bob"))       # other clients unaffected
    with pytest.raises(QuotaExceededError) as err:
        queue.submit(qjob("d", client="alice"))
    assert err.value.client == "alice"
    assert err.value.retry_after > 0
    # Quota counts in-flight (leased included), releases on settle.
    leased = queue.lease(0, now=0.0)
    with pytest.raises(QuotaExceededError):
        queue.submit(qjob("d", client="alice"))
    queue.complete(leased[0].job_id)
    queue.submit(qjob("d", client="alice"))


def test_duplicate_job_id_rejected():
    queue = LeaseQueue()
    queue.submit(qjob("same"))
    with pytest.raises(ValueError):
        queue.submit(qjob("same"))


# ------------------------------------------------------- leases and expiry

def test_heartbeat_extends_the_lease():
    queue = LeaseQueue(lease_ttl=10.0)
    queue.submit(qjob("a"))
    _, lease = queue.lease(0, now=100.0)
    assert lease.expires_at == 110.0
    assert queue.heartbeat("a", now=105.0)
    assert queue.lease_of("a").expires_at == 115.0
    assert queue.lease_of("a").heartbeats == 1
    assert not queue.heartbeat("unknown", now=105.0)


def test_stale_lease_requeues_with_attempt_increment():
    queue = LeaseQueue(lease_ttl=10.0, retries=2)
    queue.submit(qjob("a"))
    job, lease = queue.lease(0, now=0.0)
    assert lease.attempt == 0 and job.attempts == 1
    assert queue.expire_stale(now=5.0) == []        # still fresh
    expiries = queue.expire_stale(now=10.0)         # ttl hit
    assert [(e.job_id, e.requeued, e.reason) for e in expiries] \
        == [("a", True, "stale-heartbeat")]
    assert queue.lease_of("a") is None
    job2, lease2 = queue.lease(1, now=11.0)
    assert job2 is job and lease2.attempt == 1
    assert job.worker_deaths == 1 and job.requeues == 1


def test_exhausted_attempt_budget_drops_the_job():
    queue = LeaseQueue(lease_ttl=1.0, retries=0)
    queue.submit(qjob("a"))
    queue.lease(0, now=0.0)
    (expiry,) = queue.expire_stale(now=2.0)
    assert not expiry.requeued
    assert "attempt budget" in expiry.error
    assert queue.depth() == 0 and queue.in_flight() == 0


def test_timeout_reason_counts_separately_from_deaths():
    queue = LeaseQueue(retries=3)
    queue.submit(qjob("a"))
    job, _ = queue.lease(0, now=0.0)
    queue.expire("a", "timeout")
    queue.lease(0, now=1.0)
    queue.expire("a", "worker-died")
    assert job.timeouts == 1 and job.worker_deaths == 1


def test_snapshot_and_drain():
    queue = LeaseQueue(quota=8)
    queue.submit(qjob("a", priority=priority_value("interactive")))
    queue.submit(qjob("b"))
    queue.lease(0, now=0.0)
    snap = queue.snapshot()
    assert snap["depth"] == 1
    assert sum(snap["pending"].values()) == 1
    assert [entry["job"] for entry in snap["leased"]] == ["a"]
    assert set(snap["pending"]) == set(PRIORITY_CLASSES)
    assert sorted(queue.drain()) == ["a", "b"]
    assert queue.depth() == 0 and queue.lease(0, now=1.0) is None


# ------------------------------------------------------------------ daemon

def square3(payload, attempt, progress):
    progress({"step": "computing"})
    return payload * payload


def boom3(payload, attempt, progress):
    raise ValueError("deterministic failure")


class Recorder:
    """Thread-safe event/outcome collector for daemon callbacks."""

    def __init__(self):
        self.lock = threading.Lock()
        self.events = {}
        self.outcomes = {}

    def on_event(self, job_id, event):
        with self.lock:
            self.events.setdefault(job_id, []).append(event)

    def on_settled(self, job_id, outcome):
        with self.lock:
            self.outcomes[job_id] = outcome

    def kinds(self, job_id):
        with self.lock:
            return [e["type"] for e in self.events.get(job_id, [])]


def run_daemon(entrypoint, jobs, *, workers=2, queue=None,
               timeout=60.0, deadline=90.0):
    rec = Recorder()
    daemon = WorkerDaemon(entrypoint, workers=workers, queue=queue,
                          timeout=timeout, on_event=rec.on_event,
                          on_settled=rec.on_settled)
    daemon.start()
    try:
        for job in jobs:
            daemon.submit(job)
        assert daemon.wait_idle(deadline), "daemon never went idle"
    finally:
        daemon.shutdown()
    return rec


def test_daemon_runs_jobs_and_reports_events():
    rec = run_daemon(square3, [qjob(str(i), i) for i in range(5)])
    assert {k: o.value for k, o in rec.outcomes.items()} \
        == {str(i): i * i for i in range(5)}
    for i in range(5):
        kinds = rec.kinds(str(i))
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert "lease" in kinds and "progress" in kinds


def test_daemon_deterministic_failure_not_requeued():
    rec = run_daemon(boom3, [qjob("bad", 1)])
    outcome = rec.outcomes["bad"]
    assert not outcome.ok and "deterministic failure" in outcome.error
    assert outcome.attempts == 1
    assert "requeue" not in rec.kinds("bad")


def test_daemon_sigkilled_worker_requeues_and_recovers():
    queue = LeaseQueue(retries=2)
    rec = run_daemon(square3, [qjob("k", 7, kill_on_attempts=(0,))],
                     queue=queue)
    outcome = rec.outcomes["k"]
    assert outcome.ok and outcome.value == 49
    assert outcome.attempts == 2 and outcome.worker_deaths == 1
    kinds = rec.kinds("k")
    assert kinds.count("lease") == 2 and "requeue" in kinds


def test_daemon_always_dying_job_fails_with_budget_error():
    queue = LeaseQueue(retries=1)
    rec = run_daemon(square3, [qjob("k", 3, kill_on_attempts=(0, 1))],
                     queue=queue)
    outcome = rec.outcomes["k"]
    assert not outcome.ok and "attempt budget" in outcome.error
    assert outcome.worker_deaths == 2


def test_daemon_shutdown_drains_unfinished_jobs():
    import multiprocessing

    rec = Recorder()
    daemon = WorkerDaemon(sleep3, workers=2,
                          on_event=rec.on_event,
                          on_settled=rec.on_settled)
    daemon.start()
    for i in range(6):
        daemon.submit(qjob(f"s{i}", 30.0))
    time.sleep(0.3)                    # let a couple of leases go out
    drained = daemon.shutdown()
    assert drained, "expected unfinished jobs to drain"
    assert daemon.interrupted
    for job_id in drained:
        assert rec.kinds(job_id)[-1] == "interrupted"
    assert daemon.queue.depth() == 0 and daemon.queue.in_flight() == 0
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children(), "orphan workers"


def sleep3(payload, attempt, progress):
    time.sleep(payload)
    return "woke"


# ------------------------------- supervision blocks on what it waits for

def test_idle_daemon_does_not_tick(passes):
    daemon = WorkerDaemon(noop3, workers=2)
    daemon.start()
    try:
        time.sleep(0.5)
        assert daemon.wait_idle(0)
        assert len(passes) <= 3         # the old loop: ~25 ticks
        assert passes[-1] == (0, None)  # nothing can time out
    finally:
        daemon.shutdown()
    assert len(passes) <= 4             # shutdown is one more wake-up


def test_burst_costs_passes_in_proportion_to_messages(passes):
    # 20 submissions and 20 answers are 40 arrivals; a pass may also
    # find its wake-up already consumed by the one before.
    rec = run_daemon(noop3, [qjob(str(i), i) for i in range(20)])
    assert {k: o.value for k, o in rec.outcomes.items()} \
        == {str(i): i for i in range(20)}
    assert len(passes) <= 2 * 40 + 5


def test_settled_slot_is_granted_its_next_job_in_the_same_pass(passes):
    # One worker, three jobs queued before it starts: each answer must
    # lead straight to the next lease, with no pass that finds the
    # worker idle while jobs are pending.
    rec = Recorder()
    daemon = WorkerDaemon(noop3, workers=1, on_event=rec.on_event,
                          on_settled=rec.on_settled)
    for i in range(3):
        daemon.submit(qjob(str(i), i))
    daemon.start()
    try:
        assert daemon.wait_idle(30)
    finally:
        daemon.shutdown()
    assert len(rec.outcomes) == 3
    busy = [workers for workers, _ in passes]
    assert 0 not in busy[:busy.index(0)] and busy.count(1) <= 4


def test_busy_daemon_wakes_to_renew_the_lease(passes):
    # A quiet worker must still be seen alive well inside the lease's
    # life: passes are at most lease_ttl / 3 apart.
    queue = LeaseQueue(lease_ttl=0.6)
    rec = run_daemon(sleep3, [qjob("long", 1.0)], queue=queue, workers=1)
    assert rec.outcomes["long"].ok and rec.outcomes["long"].attempts == 1
    assert "requeue" not in rec.kinds("long")
    timeouts = [timeout for workers, timeout in passes if workers]
    assert timeouts and all(0 < timeout <= 0.2 for timeout in timeouts)
    assert 4 <= len(timeouts) <= 12


def test_job_timeout_bounds_the_wait(passes):
    rec = run_daemon(sleep3, [qjob("slow", 30.0)], timeout=0.3, workers=1,
                     queue=LeaseQueue(retries=0, lease_ttl=30.0))
    assert not rec.outcomes["slow"].ok and rec.outcomes["slow"].timeouts == 1
    timeouts = [timeout for workers, timeout in passes if workers]
    assert all(timeout <= 0.3 for timeout in timeouts)
    assert len(passes) <= 8


def noop3(payload, attempt, progress):
    return payload


# ------------------------------------- checkpoint-resume through the daemon

def test_killed_sim_job_resumes_from_checkpoint():
    """A worker SIGKILLed after its first durable checkpoint re-queues,
    and the next attempt resumes mid-run: its progress (= checkpoint)
    cycles continue past the first attempt's instead of restarting at
    the first boundary. The recovered payload is bit-identical to an
    undisturbed run."""
    from repro.engine.job import execute, multiscalar_job
    from repro.engine.store import default_cache_dir
    from repro.resilience.checkpoint import CheckpointPolicy
    from repro.server.jobs import execute_server_job

    job = multiscalar_job("wc", 2)
    policy = CheckpointPolicy(
        directory=str(default_cache_dir() / "ckpt"), every=2_000,
        kill_after_checkpoint_on_attempts=(0,))
    queue = LeaseQueue(retries=2)
    envelope = {"type": "sim", "spec": job.spec()}
    rec = run_daemon(execute_server_job,
                     [QueuedJob(job_id=job.key(),
                                payload=(envelope, policy))],
                     queue=queue)
    outcome = rec.outcomes[job.key()]
    assert outcome.ok and outcome.attempts == 2
    kinds = rec.kinds(job.key())
    assert "requeue" in kinds
    with rec.lock:
        events = rec.events[job.key()]
    cut = next(i for i, e in enumerate(events) if e["type"] == "requeue")
    before = [e["cycle"] for e in events[:cut]
              if e["type"] == "progress" and "cycle" in e]
    after = [e["cycle"] for e in events[cut:]
             if e["type"] == "progress" and "cycle" in e]
    assert before and after, "expected checkpoint progress on both sides"
    assert min(after) > max(before), \
        "attempt 2 re-simulated cycles attempt 1 had already checkpointed"
    clean = execute(multiscalar_job("wc", 2))
    assert outcome.value == clean

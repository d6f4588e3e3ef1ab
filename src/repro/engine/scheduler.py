"""Job scheduling: the one-shot worker pool and the long-lived daemon.

Two execution disciplines share this module (and the same worker-death
taxonomy):

* :class:`WorkerPool` — the original one-shot pool: hand it a finite
  job list, it shards the list across child processes and returns when
  every job reached an outcome. ``repro sweep``/``repro fuzz`` use it
  standalone.
* :class:`WorkerDaemon` over a :class:`LeaseQueue` — the long-lived
  form behind ``python -m repro serve``: jobs arrive continuously,
  wait in a priority queue (``interactive`` < ``batch`` <
  ``background``), and are handed to a persistent fleet of worker
  processes under *leases*. A lease is renewed while its worker is
  alive; when the worker dies or the lease goes stale it expires and
  the job is re-queued, and the next worker runs it again from the
  start. The queue enforces per-client quotas and a global depth bound
  (backpressure), and a daemon shutdown drains it cleanly — leases
  revoked, workers joined, nothing orphaned.

Both run a generic entrypoint ``fn(payload, attempt) -> value`` for
each submitted job. The pool shards up to ``jobs`` of them across
child processes at a time. It is built for hostile weather:

* **per-job timeout** — a job that exceeds its wall-clock budget has
  its worker killed and is retried;
* **worker death** — a worker that dies without reporting (OOM killer,
  SIGKILL, a segfaulting extension) is detected by process exit and the
  job is retried with linear backoff, up to ``retries`` times;
* **failure taxonomy** — a Python exception raised by the entrypoint
  is *deterministic* and fails the job immediately (no retry), unless
  it is a :class:`RetryableJobError`; only crashes, timeouts, and
  explicitly retryable errors are presumed transient;
* **graceful degradation** — if process spawning fails, the pool
  falls back to serial in-process execution, and a job whose workers
  keep dying gets one final in-process attempt before being declared
  lost.

Fault injection for self-tests: a job may carry ``kill_on_attempts``;
a worker running one of those attempts SIGKILLs itself mid-job. Where
the pool runs an attempt in its own process (``jobs=1``, degradation,
the final rescue) it raises a retryable error instead, since killing
the only process would take the harness down with it.

Both disciplines supervise their children through one set of helpers:
a :class:`_Worker` record per child, :func:`_spawn` to start one,
:func:`_answer` for the child's one reply per attempt, and
:func:`_collect` to read a busy worker.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import multiprocessing as _mp
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Any, Callable


class RetryableJobError(Exception):
    """An entrypoint failure that is worth retrying (transient)."""


class InjectedWorkerDeath(RetryableJobError):
    """Serial-mode stand-in for a SIGKILLed worker."""


@dataclass(frozen=True)
class PoolJob:
    """One unit of work: an opaque payload under a caller-chosen id."""

    job_id: str
    payload: Any
    kill_on_attempts: tuple[int, ...] = ()


@dataclass
class JobOutcome:
    job_id: str
    ok: bool = False
    value: Any = None
    error: str = ""
    attempts: int = 0
    worker_deaths: int = 0
    timeouts: int = 0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class _Pending:
    job: PoolJob
    attempt: int
    not_before: float


@dataclass
class _Worker:
    """Parent-side record of one child process in either discipline:
    its end of the pipe, and the job it runs (``None`` for an idle
    daemon worker) with that job's wall-clock deadline."""

    process: Any
    conn: Any
    job: PoolJob | QueuedJob | None = None
    deadline: float = 0.0
    worker_id: int = 0


class _Wake:
    """A self-pipe: :meth:`set`, from any thread, makes the read end
    ready, so a supervisor blocked in :func:`_wait_ready` returns."""

    def __init__(self) -> None:
        self._recv, self._send = _mp_connection.Pipe(duplex=False)
        os.set_blocking(self._send.fileno(), False)
        self.fileno = self._recv.fileno

    def set(self) -> None:
        try:
            self._send.send_bytes(b"")
        except BlockingIOError:      # full: it is already signalled
            pass

    def clear(self) -> None:
        while self._recv.poll():
            self._recv.recv_bytes()


def _wait_ready(workers, timeout: float | None,
                wake: _Wake | None = None) -> None:
    """The one place either discipline sleeps: block until a worker of
    ``workers`` (anything with ``.conn`` and ``.process``) has a message
    or has exited, ``wake`` was set, or ``timeout`` seconds passed
    (``None``: no deadline is pending, so only an arrival ends it)."""
    waitables = [end for worker in workers
                 for end in (worker.conn, worker.process.sentinel)]
    if wake is not None:
        waitables.append(wake)
    _mp_connection.wait(waitables, timeout)     # a past deadline: a poll
    if wake is not None:
        wake.clear()


def _attempt(call: Callable[[], Any],
             catch: type[BaseException] = Exception) -> tuple[str, Any, str]:
    """Run one attempt, ``call()``, and classify it once for both
    disciplines as ``(status, value, error)``:

    * ``"ok"`` — it returned ``value``;
    * ``"died"`` — :class:`InjectedWorkerDeath`, the in-process stand-in
      for a killed worker, counted like one;
    * ``"retry"`` — any other :class:`RetryableJobError` (transient);
    * ``"fatal"`` — anything else ``catch`` covers: deterministic, not
      retried. In-process attempts leave ``KeyboardInterrupt`` to the
      Ctrl-C drain; a child reports every exception.
    """
    try:
        return "ok", call(), ""
    except catch as exc:
        status = ("died" if isinstance(exc, InjectedWorkerDeath)
                  else "retry" if isinstance(exc, RetryableJobError)
                  else "fatal")
        return status, None, f"{type(exc).__name__}: {exc}"


def _fold(outcome: JobOutcome, status: str, value: Any, error: str) -> bool:
    """Count one pool attempt into ``outcome``; True when it settled
    the job (``ok`` or ``fatal``). A ``retry`` is transient but neither
    a worker death nor a timeout: it just burns an attempt."""
    outcome.error = error
    if status == "ok":
        outcome.ok, outcome.value = True, value
        return True
    if status == "died":
        outcome.worker_deaths += 1
    elif status == "timeout":
        outcome.timeouts += 1
    return status == "fatal"


def _stop(worker) -> None:
    """Kill, reap and disconnect a worker; one that already exited is
    only reaped."""
    try:
        worker.process.kill()
        worker.process.join(timeout=5)
        worker.conn.close()
    except (OSError, ValueError):
        pass


def _spawn(target, *args) -> _Worker:
    """Start ``target(conn, *args)`` in a child process; the parent
    keeps the other end of the pipe."""
    parent_conn, child_conn = _mp.Pipe()
    process = _mp.Process(target=target, args=(child_conn, *args),
                          daemon=True)
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


def _answer(conn, fn, payload, attempt, kill_on_attempts) -> None:
    """Run one attempt in a child and send its one answer,
    ``(status, value, error)`` with the status from :func:`_attempt` —
    unless the attempt is an injected death, when the child SIGKILLs
    itself and the parent sees it die instead. The pool's one-shot
    child is this function; a daemon worker calls it once per job."""
    if attempt in kill_on_attempts:
        os.kill(os.getpid(), signal.SIGKILL)
    # Sending is part of the attempt: a value that cannot be pickled
    # fails it like any other deterministic error.
    status, _, error = _attempt(lambda: conn.send(
        ("ok", fn(payload, attempt), "")), BaseException)
    if status != "ok":
        conn.send((status, None, error))


def _collect(worker: _Worker, now: float) -> tuple[str, Any, str] | None:
    """Read one busy worker: its answer as ``(status, value, error)``,
    ``("died", …)`` once it exited or closed its pipe without one,
    ``("timeout", …)`` past its deadline, or ``None`` while it still
    runs. Liveness is sampled before the pipe is read, so a child that
    answered and then exited reads as its answer, not as a death."""
    alive = worker.process.is_alive()
    try:
        if worker.conn.poll():
            return worker.conn.recv()
    except (EOFError, OSError):
        alive = False
    if alive:
        return ("timeout", None, "") if now > worker.deadline else None
    worker.process.join(timeout=5)
    return "died", None, f"worker died (exit code {worker.process.exitcode})"


class WorkerPool:
    """Shard jobs across worker processes; survive their deaths."""

    def __init__(self, entrypoint: Callable[[Any, int], Any], *,
                 jobs: int = 1, timeout: float = 600.0, retries: int = 2,
                 backoff: float = 0.25,
                 progress: Callable[[str], None] | None = None) -> None:
        self.entrypoint = entrypoint
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.progress = progress or (lambda message: None)
        self.serial = self.jobs == 1
        #: Set when a run was cut short by Ctrl-C: every in-flight
        #: worker was killed and joined (no orphans), finished outcomes
        #: were kept, and unfinished jobs read ``error="interrupted"``.
        self.interrupted = False

    def _delay(self, attempt: int) -> float:
        return min(self.backoff * attempt, 2.0)

    def _run_in_process(self, job: PoolJob, outcome: JobOutcome) -> bool:
        """One attempt of ``job`` in this process, folded in like any
        other; True when it settled the job. An injected death is raised
        as :class:`InjectedWorkerDeath`: killing the only process would
        take the harness down with it."""
        attempt = outcome.attempts
        outcome.attempts += 1

        def call() -> Any:
            if attempt in job.kill_on_attempts:
                raise InjectedWorkerDeath(
                    f"injected worker death on attempt {attempt}")
            return self.entrypoint(job.payload, attempt)
        return _fold(outcome, *_attempt(call))

    # ------------------------------------------------------------ serial

    def _run_serial(self, job: PoolJob,
                    outcome: JobOutcome | None = None) -> JobOutcome:
        outcome = outcome or JobOutcome(job_id=job.job_id)
        while outcome.attempts <= self.retries:
            if self._run_in_process(job, outcome):
                break
            time.sleep(self._delay(outcome.attempts))
        return outcome

    # ---------------------------------------------------------- parallel

    def _settle(self, outcomes: dict[str, JobOutcome],
                pending: list[_Pending], job: PoolJob, status: str,
                value: Any, error: str) -> bool:
        """Fold one attempt in; True when the job reached an outcome."""
        outcome = outcomes[job.job_id]
        if _fold(outcome, status, value, error):
            return True
        if outcome.attempts <= self.retries:     # transient: try again
            pending.append(_Pending(job, outcome.attempts,
                                    time.monotonic()
                                    + self._delay(outcome.attempts)))
            return False
        if outcome.worker_deaths:
            # Workers keep dying on this job: one final in-process
            # attempt before declaring it lost.
            self.progress(f"job {job.job_id}: workers kept dying; "
                          "final in-process attempt")
            self._run_in_process(job, outcome)
        return True

    def _degrade_to_serial(self, outcomes: dict[str, JobOutcome],
                           pending: list[_Pending],
                           running: list[_Worker]) -> dict[str, JobOutcome]:
        for victim in running:
            _stop(victim)
            outcomes[victim.job.job_id].worker_deaths += 1
            pending.append(_Pending(victim.job,
                                    outcomes[victim.job.job_id].attempts,
                                    0.0))
        for entry in sorted(pending, key=lambda e: e.job.job_id):
            outcome = outcomes[entry.job.job_id]
            outcome.attempts = entry.attempt    # resume the attempt budget
            self._run_serial(entry.job, outcome)
        return outcomes

    def _run_parallel(self,
                      pool_jobs: list[PoolJob]) -> dict[str, JobOutcome]:
        outcomes = {job.job_id: JobOutcome(job_id=job.job_id)
                    for job in pool_jobs}
        pending = [_Pending(job, 0, 0.0) for job in pool_jobs]
        running: list[_Worker] = []
        settled = 0
        try:
            while pending or running:
                now = time.monotonic()
                for entry in list(pending):
                    if len(running) >= self.jobs:
                        break
                    if entry.not_before > now:
                        continue
                    pending.remove(entry)
                    job = entry.job
                    try:
                        worker = _spawn(_answer, self.entrypoint,
                                        job.payload, entry.attempt,
                                        job.kill_on_attempts)
                    except Exception as exc:
                        self.progress(f"worker spawn failed ({exc}); "
                                      "degrading to serial execution")
                        pending.append(entry)
                        return self._degrade_to_serial(outcomes, pending,
                                                       running)
                    worker.job, worker.deadline = job, now + self.timeout
                    outcomes[job.job_id].attempts = entry.attempt + 1
                    running.append(worker)
                collected = False
                for worker in list(running):
                    answer = _collect(worker, time.monotonic())
                    if answer is None:
                        continue
                    if answer[0] == "timeout":
                        answer = ("timeout", None,
                                  f"timed out after {self.timeout:.0f}s")
                    else:       # let it exit on its own: it may flush
                        worker.process.join(timeout=5)
                    _stop(worker)
                    running.remove(worker)
                    collected = True
                    if self._settle(outcomes, pending, worker.job, *answer):
                        settled += 1
                        self.progress(
                            f"{settled}/{len(pool_jobs)} jobs settled")
                if (pending or running) and not collected:
                    # Sleep until a worker reports or dies, its job
                    # times out, or a free slot's back-off runs out.
                    wakeups = [worker.deadline for worker in running]
                    if len(running) < self.jobs:
                        wakeups += [entry.not_before for entry in pending]
                    _wait_ready(running, min(wakeups) - time.monotonic())
        except KeyboardInterrupt:
            self._abort(outcomes, pending, running)
        return outcomes

    def _abort(self, outcomes: dict[str, JobOutcome],
               pending: list[_Pending], running: list[_Worker]) -> None:
        """Ctrl-C drain: kill and join every worker, keep finished
        outcomes, and mark everything unfinished ``interrupted``."""
        self.interrupted = True
        self.progress("interrupted; stopping workers")
        unfinished = ({entry.job.job_id for entry in pending}
                      | {worker.job.job_id for worker in running})
        for worker in running:
            _stop(worker)
        running.clear()
        pending.clear()
        for job_id in unfinished:
            outcome = outcomes[job_id]
            if not outcome.ok:
                outcome.error = "interrupted"

    # --------------------------------------------------------------- api

    def run(self, pool_jobs: list[PoolJob]) -> dict[str, JobOutcome]:
        """Run every job to a settled outcome; never raises for job
        failures (inspect :class:`JobOutcome`). A Ctrl-C stops the run
        early but cleanly: workers are killed and joined, completed
        outcomes survive, and :attr:`interrupted` is set."""
        ids = [job.job_id for job in pool_jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids submitted to the pool")
        self.interrupted = False
        if self.serial:
            outcomes: dict[str, JobOutcome] = {}
            for job in pool_jobs:
                if self.interrupted:
                    outcomes[job.job_id] = JobOutcome(
                        job_id=job.job_id, error="interrupted")
                    continue
                try:
                    outcomes[job.job_id] = self._run_serial(job)
                except KeyboardInterrupt:
                    self.interrupted = True
                    outcomes[job.job_id] = JobOutcome(
                        job_id=job.job_id, error="interrupted")
            return outcomes
        return self._run_parallel(pool_jobs)


# =====================================================================
# The long-lived form: a priority lease queue + a persistent daemon.
# =====================================================================

#: Priority classes, best first. Lower number = served earlier.
PRIORITY_CLASSES = ("interactive", "batch", "background")
DEFAULT_PRIORITY = "batch"


def priority_value(priority: str | int) -> int:
    """Normalize a priority class name (or raw int) to its rank."""
    if isinstance(priority, int):
        if not 0 <= priority < len(PRIORITY_CLASSES):
            raise ValueError(f"priority rank {priority} out of range")
        return priority
    try:
        return PRIORITY_CLASSES.index(priority)
    except ValueError:
        raise ValueError(
            f"unknown priority {priority!r} "
            f"(one of: {', '.join(PRIORITY_CLASSES)})") from None


class QueueFullError(Exception):
    """The queue is at its depth bound; retry after ``retry_after``."""

    def __init__(self, depth: int, retry_after: float = 1.0) -> None:
        super().__init__(f"queue full ({depth} jobs pending)")
        self.depth = depth
        self.retry_after = retry_after


class QuotaExceededError(Exception):
    """One client has too many jobs in flight; retry after
    ``retry_after``."""

    def __init__(self, client: str, in_flight: int,
                 retry_after: float = 1.0) -> None:
        super().__init__(
            f"client {client!r} has {in_flight} jobs in flight")
        self.client = client
        self.in_flight = in_flight
        self.retry_after = retry_after


@dataclass
class QueuedJob:
    """One daemon job: an opaque payload plus queueing metadata."""

    job_id: str
    payload: Any
    priority: int = 1
    client: str = "anon"
    kill_on_attempts: tuple[int, ...] = ()
    #: Attempts already started (leased); the next lease runs this one.
    attempts: int = 0
    requeues: int = 0
    worker_deaths: int = 0
    timeouts: int = 0


@dataclass
class Lease:
    """One worker's claim on one job, kept alive by heartbeats."""

    job_id: str
    worker_id: int
    attempt: int
    granted_at: float
    expires_at: float
    heartbeats: int = 0

    def to_dict(self) -> dict:
        """JSON-able form for status endpoints."""
        return {"worker": self.worker_id, "attempt": self.attempt,
                "granted_at": self.granted_at,
                "expires_at": self.expires_at,
                "heartbeats": self.heartbeats}


@dataclass
class _Expiry:
    """What :meth:`LeaseQueue.expire` decided for one broken lease."""

    job_id: str
    requeued: bool
    reason: str
    error: str = ""


class LeaseQueue:
    """A thread-safe persistent job queue with priorities and leases.

    Jobs wait in priority order (FIFO within a class), are handed out
    under time-limited leases, and come back — via :meth:`heartbeat`
    renewals, :meth:`complete`, or expiry-driven :meth:`expire` /
    :meth:`expire_stale` re-queues — until they settle or exhaust
    their attempt budget. :meth:`submit` applies backpressure: a global
    depth bound (:class:`QueueFullError`) and a per-client in-flight
    quota (:class:`QuotaExceededError`).
    """

    def __init__(self, *, lease_ttl: float = 30.0, max_depth: int = 1024,
                 retries: int = 2, quota: int | None = None) -> None:
        self.lease_ttl = lease_ttl
        self.max_depth = max_depth
        self.retries = max(0, retries)
        self.quota = quota
        self._lock = threading.Lock()
        self._seq = 0
        self._heap: list[tuple[int, int, str]] = []   # (priority, seq, id)
        self._jobs: dict[str, QueuedJob] = {}         # pending + leased
        self._leases: dict[str, Lease] = {}

    # ------------------------------------------------------------ submit

    def submit(self, job: QueuedJob) -> None:
        """Enqueue ``job``; raises :class:`QueueFullError` /
        :class:`QuotaExceededError` (backpressure) or ``ValueError``
        on a duplicate id."""
        with self._lock:
            if job.job_id in self._jobs:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            depth = len(self._jobs) - len(self._leases)
            if depth >= self.max_depth:
                raise QueueFullError(depth)
            if self.quota is not None:
                in_flight = sum(1 for j in self._jobs.values()
                                if j.client == job.client)
                if in_flight >= self.quota:
                    raise QuotaExceededError(job.client, in_flight)
            self._jobs[job.job_id] = job
            self._push(job)

    def _push(self, job: QueuedJob) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (job.priority, self._seq, job.job_id))

    # ------------------------------------------------------------- lease

    def lease(self, worker_id: int,
              now: float | None = None) -> tuple[QueuedJob, Lease] | None:
        """Grant the best pending job to ``worker_id``, or ``None``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            while self._heap:
                _, _, job_id = heapq.heappop(self._heap)
                job = self._jobs.get(job_id)
                if job is None or job_id in self._leases:
                    continue            # settled or already re-leased
                lease = Lease(job_id=job_id, worker_id=worker_id,
                              attempt=job.attempts, granted_at=now,
                              expires_at=now + self.lease_ttl)
                job.attempts += 1
                self._leases[job_id] = lease
                return job, lease
            return None

    def heartbeat(self, job_id: str, now: float | None = None) -> bool:
        """Renew the lease on ``job_id``; False when there is none."""
        now = time.monotonic() if now is None else now
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is None:
                return False
            lease.heartbeats += 1
            lease.expires_at = now + self.lease_ttl
            return True

    # ------------------------------------------------------------ settle

    def complete(self, job_id: str) -> None:
        """The job settled (result or deterministic failure): forget it."""
        with self._lock:
            self._jobs.pop(job_id, None)
            self._leases.pop(job_id, None)

    def expire(self, job_id: str, reason: str) -> _Expiry | None:
        """Break the lease on ``job_id`` (dead worker, timeout, stale
        heartbeat) and re-queue the job — unless its attempt budget is
        exhausted, in which case it is dropped and the expiry reads
        ``requeued=False``."""
        with self._lock:
            lease = self._leases.pop(job_id, None)
            job = self._jobs.get(job_id)
            if lease is None or job is None:
                return None
            job.requeues += 1
            if reason == "timeout":
                job.timeouts += 1
            else:
                job.worker_deaths += 1
            if job.attempts <= self.retries:
                self._push(job)
                return _Expiry(job_id, True, reason)
            self._jobs.pop(job_id, None)
            return _Expiry(
                job_id, False, reason,
                error=f"lease expired ({reason}) and the attempt budget "
                      f"({self.retries + 1}) is exhausted")

    def expire_stale(self, now: float | None = None) -> list[_Expiry]:
        """Expire every lease whose heartbeat deadline has passed."""
        now = time.monotonic() if now is None else now
        with self._lock:
            stale = [lease.job_id for lease in self._leases.values()
                     if lease.expires_at <= now]
        return [expiry for job_id in stale
                for expiry in [self.expire(job_id, "stale-heartbeat")]
                if expiry is not None]

    # ----------------------------------------------------------- inspect

    def depth(self) -> int:
        """Jobs waiting for a lease (excludes leased jobs)."""
        with self._lock:
            return len(self._jobs) - len(self._leases)

    def in_flight(self, client: str | None = None) -> int:
        """Pending + leased jobs, optionally for one client."""
        with self._lock:
            if client is None:
                return len(self._jobs)
            return sum(1 for j in self._jobs.values()
                       if j.client == client)

    def lease_of(self, job_id: str) -> Lease | None:
        """The live lease on ``job_id``, if any."""
        with self._lock:
            return self._leases.get(job_id)

    def snapshot(self) -> dict:
        """JSON-able queue overview for the ``/v1/queue`` endpoint."""
        with self._lock:
            by_class = {name: 0 for name in PRIORITY_CLASSES}
            for job in self._jobs.values():
                if job.job_id not in self._leases:
                    by_class[PRIORITY_CLASSES[job.priority]] += 1
            return {
                "depth": len(self._jobs) - len(self._leases),
                "pending": by_class,
                "leased": [lease.to_dict() | {"job": job_id}
                           for job_id, lease in self._leases.items()],
                "max_depth": self.max_depth,
                "lease_ttl": self.lease_ttl,
            }

    # ------------------------------------------------------------- drain

    def drain(self) -> list[str]:
        """Empty the queue (shutdown): every pending and leased job is
        forgotten and its id returned so the owner can mark it
        interrupted."""
        with self._lock:
            drained = list(self._jobs)
            self._jobs.clear()
            self._leases.clear()
            self._heap.clear()
            return drained


# ------------------------------------------------------------ the daemon

def _daemon_worker_main(conn, entrypoint) -> None:
    """Long-lived worker loop: execute assignments until told to stop.

    Protocol (over one duplex pipe): the parent sends
    ``("run", payload, attempt, kill_on_attempts)`` or ``("stop",)``;
    the child answers each run through :func:`_answer`.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] != "run":
            return
        _answer(conn, entrypoint, *message[1:])


def _without_progress(fn, payload, attempt):
    """Call an entrypoint written for the retired daemon signature
    ``fn(payload, attempt, progress)``, with no progress callback."""
    return fn(payload, attempt, None)


class WorkerDaemon:
    """A persistent worker fleet draining a :class:`LeaseQueue`.

    Unlike :class:`WorkerPool`, the daemon never returns: jobs are
    :meth:`submit`\\ ted continuously and settle through callbacks.
    Its entrypoint is the pool's, ``fn(payload, attempt)``.

    Supervision (one background thread, one pass per arrival): settle
    finished jobs and grant the freed worker its next lease in the same
    pass, renew the lease of every worker that is demonstrably alive,
    and expire the lease of any worker that died or overran the per-job
    ``timeout`` — the job re-queues and the next attempt runs it from
    the start. Between passes the thread blocks in
    :func:`_wait_ready` on the busy workers' pipes and process
    sentinels and on the wake-up that :meth:`submit` and
    :meth:`shutdown` write; the only timeouts are the nearest job
    deadline and the lease-renewal interval. Workers that die are
    respawned, so the fleet stays at strength.
    """

    def __init__(self, entrypoint, *, workers: int = 2,
                 queue: LeaseQueue | None = None, timeout: float = 600.0,
                 on_event: Callable[[str, dict], None] | None = None,
                 on_settled: Callable[[str, JobOutcome], None] | None = None,
                 ) -> None:
        if len(inspect.signature(entrypoint).parameters) == 3:
            # The benchmark's daemon probe (perf/serve.py ``_noop``)
            # still takes the retired progress callback.
            entrypoint = functools.partial(_without_progress, entrypoint)
        self.entrypoint = entrypoint
        self.workers = max(1, workers)
        self.queue = queue or LeaseQueue()
        self.timeout = timeout
        self.on_event = on_event or (lambda job_id, event: None)
        self.on_settled = on_settled or (lambda job_id, outcome: None)
        self._workers: list[_Worker] = []
        self._stop = threading.Event()
        self._wake = _Wake()
        self._thread: threading.Thread | None = None
        self._idle = threading.Event()
        self._idle.set()
        self.interrupted = False

    # --------------------------------------------------------- lifecycle

    def start(self) -> "WorkerDaemon":
        """Spawn the worker fleet and the supervision thread."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._workers = [_spawn(_daemon_worker_main, self.entrypoint)
                         for _ in range(self.workers)]
        for worker_id, worker in enumerate(self._workers):
            worker.worker_id = worker_id
        self._thread = threading.Thread(target=self._supervise,
                                        name="repro-daemon", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> list[str]:
        """Stop supervision, kill-and-join every worker, and drain the
        lease queue. Returns the drained (interrupted) job ids — the
        'no orphan workers, no orphan leases' guarantee behind
        ``repro serve`` exiting 130 on Ctrl-C."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        for worker in self._workers:
            if worker.job is None:      # idle: ask it to exit first
                try:
                    worker.conn.send(("stop",))
                    worker.process.join(timeout=1)
                except (OSError, ValueError):
                    pass
            _stop(worker)
        self._workers = []
        drained = self.queue.drain()
        if drained:
            self.interrupted = True
        for job_id in drained:
            self.on_event(job_id, {"type": "interrupted"})
        return drained

    # ------------------------------------------------------------ submit

    def submit(self, job: QueuedJob) -> None:
        """Enqueue one job (propagates queue backpressure errors)."""
        self.queue.submit(job)
        self._idle.clear()
        self.on_event(job.job_id,
                      {"type": "queued",
                       "priority": PRIORITY_CLASSES[job.priority],
                       "attempt": job.attempts})
        self._wake.set()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running (tests, clients)."""
        return self._idle.wait(timeout)

    # ------------------------------------------------------- supervision

    def _respawn(self, worker: _Worker) -> None:
        """Put a fresh process and pipe in ``worker``'s place."""
        _stop(worker)
        fresh = _spawn(_daemon_worker_main, self.entrypoint)
        worker.process, worker.conn = fresh.process, fresh.conn

    def _grant(self, worker: _Worker, now: float) -> None:
        leased = self.queue.lease(worker.worker_id, now)
        if leased is None:
            return
        job, lease = leased
        try:
            worker.conn.send(("run", job.payload, lease.attempt,
                              job.kill_on_attempts))
        except OSError:
            # Worker vanished while idle; give the lease back and come
            # straight round again for the fresh worker to take it.
            self.queue.expire(job.job_id, "worker-died")
            self._respawn(worker)
            self._wake.set()
            return
        worker.job, worker.deadline = job, now + self.timeout
        self.on_event(job.job_id,
                      {"type": "lease", "worker": worker.worker_id,
                       "attempt": lease.attempt})

    def _settle(self, worker: _Worker, status: str, value: Any,
                error: str) -> None:
        """Fold what :func:`_collect` read into the queue: re-queue the
        job while its attempt budget lasts, else settle it. A worker
        that died or timed out is replaced."""
        job = worker.job
        worker.job = None
        expiry = reason = None
        if status in ("died", "timeout"):
            reason = "timeout" if status == "timeout" else "worker-died"
            expiry = self.queue.expire(job.job_id, reason)
            self._respawn(worker)
            if expiry is None:          # the lease was already broken
                return
            error = expiry.error
        elif status == "retry" and job.attempts <= self.queue.retries:
            expiry = self.queue.expire(job.job_id, "retryable-error")
            reason = error
        if expiry is not None and expiry.requeued:
            self.on_event(job.job_id, {"type": "requeue", "reason": reason,
                                       "attempt": job.attempts})
            return
        self.queue.complete(job.job_id)
        outcome = JobOutcome(job_id=job.job_id, ok=(status == "ok"),
                             value=value, error=error,
                             attempts=job.attempts,
                             worker_deaths=job.worker_deaths,
                             timeouts=job.timeouts)
        self.on_event(job.job_id,
                      {"type": "done" if outcome.ok else "failed",
                       "error": error})
        self.on_settled(job.job_id, outcome)

    def _supervise(self) -> None:
        while not self._stop.is_set():
            now = time.monotonic()
            for expiry in self.queue.expire_stale(now):
                event = {"type": "requeue" if expiry.requeued
                         else "failed", "reason": expiry.reason}
                self.on_event(expiry.job_id, event)
            for worker in self._workers:
                if worker.job is not None:
                    answer = _collect(worker, now)
                    if answer is None:
                        # The worker is demonstrably alive: a heartbeat.
                        self.queue.heartbeat(worker.job.job_id, now)
                    else:
                        self._settle(worker, *answer)
                if worker.job is None:  # idle, or settled just now
                    if not worker.process.is_alive():
                        self._respawn(worker)
                    self._grant(worker, now)
            busy = [worker for worker in self._workers
                    if worker.job is not None]
            if busy or self.queue.in_flight():
                self._idle.clear()
            else:
                self._idle.set()
            # A live worker renews its lease each pass, so passes may be
            # no further apart than a fraction of the lease's life, nor
            # than a job's timeout (``deadline - now`` rounds above it
            # once the monotonic clock reads a few thousand seconds).
            timeout = min([self.queue.lease_ttl / 3, self.timeout]
                          + [worker.deadline - now for worker in busy])
            _wait_ready(busy, timeout if busy else None, self._wake)

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
  processes under *leases*. A lease is renewed by heartbeats (worker
  liveness plus explicit progress messages, e.g. at every durable
  checkpoint); when its worker dies or its heartbeat goes stale the
  lease expires and the job is re-queued, so the next worker resumes
  it from the last good checkpoint. The queue enforces per-client
  quotas and a global depth bound (backpressure), and a daemon
  shutdown drains it cleanly — leases revoked, workers joined, nothing
  orphaned.

The pool runs a generic entrypoint ``fn(payload, attempt) -> value``
for each submitted job, sharding up to ``jobs`` of them across child
processes at a time. It is built for hostile weather:

* **per-job timeout** — a job that exceeds its wall-clock budget has
  its worker killed and is retried;
* **worker death** — a worker that dies without reporting (OOM killer,
  SIGKILL, a segfaulting extension) is detected by process exit and the
  job is retried with linear backoff, up to ``retries`` times;
* **failure taxonomy** — a Python exception raised by the entrypoint
  is *deterministic* and fails the job immediately (no retry), unless
  it is a :class:`RetryableJobError`; only crashes, timeouts, and
  explicitly retryable errors are presumed transient;
* **graceful degradation** — if ``multiprocessing`` is unavailable or
  process spawning itself fails, the pool falls back to serial
  in-process execution, and a job whose workers keep dying gets one
  final in-process attempt before being declared lost.

Fault injection for self-tests: a job may carry ``kill_on_attempts``;
a worker running one of those attempts SIGKILLs itself mid-job (in
serial mode it raises a retryable error instead, since killing the
only process would take the harness down with it).
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

try:
    import multiprocessing as _mp
    from multiprocessing import connection as _mp_connection
except ImportError:          # pragma: no cover - CPython always has it
    _mp = None


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
class _Running:
    job: PoolJob
    attempt: int
    process: Any
    conn: Any
    deadline: float


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


def _in_process(fn, job, attempt: int, *extra) -> Any:
    """``fn(job.payload, attempt, *extra)`` in this process, where an
    injected death is raised as :class:`InjectedWorkerDeath`: killing
    the only process would take the harness down with it."""
    if attempt in job.kill_on_attempts:
        raise InjectedWorkerDeath(
            f"injected worker death on attempt {attempt}")
    return fn(job.payload, attempt, *extra)


def _fold(outcome: JobOutcome, status: str, value: Any, error: str) -> bool:
    """Count one pool attempt into ``outcome``; True when it settled
    the job (``ok`` or ``fatal``). A ``retry`` is transient but neither
    a worker death nor a timeout: it just burns an attempt."""
    if status == "ok":
        outcome.ok, outcome.value = True, value
        return True
    outcome.error = error
    if status == "died":
        outcome.worker_deaths += 1
    elif status == "timeout":
        outcome.timeouts += 1
    return status == "fatal"


def _stop(worker) -> None:
    """Kill, reap and disconnect a worker (anything with ``.process``
    and ``.conn``); a worker that already exited is only reaped."""
    try:
        worker.process.kill()
        worker.process.join(timeout=5)
        worker.conn.close()
    except (OSError, ValueError):
        pass


def _child_main(conn, fn, payload, attempt, kill_on_attempts) -> None:
    if attempt in kill_on_attempts:
        os.kill(os.getpid(), signal.SIGKILL)
    # Sending is part of the attempt: a value that cannot be pickled
    # fails it like any other deterministic error.
    status, _, error = _attempt(
        lambda: conn.send(("ok", fn(payload, attempt), "")), BaseException)
    if status != "ok":
        conn.send((status, None, error))
    conn.close()


class WorkerPool:
    """Shard jobs across worker processes; survive their deaths."""

    def __init__(self, entrypoint: Callable[[Any, int], Any], *,
                 jobs: int = 1, timeout: float = 600.0, retries: int = 2,
                 backoff: float = 0.25, force_serial: bool = False,
                 progress: Callable[[str], None] | None = None) -> None:
        self.entrypoint = entrypoint
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.progress = progress or (lambda message: None)
        self.serial = (force_serial or self.jobs == 1 or _mp is None
                       or os.environ.get("REPRO_FORCE_SERIAL") == "1")
        #: Set when a run was cut short by Ctrl-C: every in-flight
        #: worker was killed and joined (no orphans), finished outcomes
        #: were kept, and unfinished jobs read ``error="interrupted"``.
        self.interrupted = False

    def _delay(self, attempt: int) -> float:
        return min(self.backoff * attempt, 2.0)

    # ------------------------------------------------------------ serial

    def _run_serial(self, job: PoolJob,
                    outcome: JobOutcome | None = None) -> JobOutcome:
        outcome = outcome or JobOutcome(job_id=job.job_id)
        while outcome.attempts <= self.retries:
            attempt = outcome.attempts
            outcome.attempts += 1
            if _fold(outcome, *_attempt(
                    lambda: _in_process(self.entrypoint, job, attempt))):
                break
            time.sleep(self._delay(attempt + 1))
        return outcome

    # ---------------------------------------------------------- parallel

    def _spawn(self, job: PoolJob, attempt: int) -> _Running:
        ctx = _mp.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main,
            args=(child_conn, self.entrypoint, job.payload, attempt,
                  job.kill_on_attempts),
            daemon=True)
        process.start()
        child_conn.close()
        return _Running(job=job, attempt=attempt, process=process,
                        conn=parent_conn,
                        deadline=time.monotonic() + self.timeout)

    def _reap(self, running: _Running) -> tuple[str, Any, str]:
        """(status, value, error) once a worker finished or vanished."""
        message = None
        try:
            if running.conn.poll():
                message = running.conn.recv()
        except (EOFError, OSError):
            message = None
        running.conn.close()
        running.process.join(timeout=5)
        if message is None:
            code = running.process.exitcode
            return ("died", None, f"worker died (exit code {code})")
        return message

    def _settle(self, outcomes: dict[str, JobOutcome],
                pending: list[_Pending], entry: _Running, status: str,
                value: Any, error: str) -> bool:
        """Fold one attempt in; True when the job reached an outcome."""
        outcome = outcomes[entry.job.job_id]
        if _fold(outcome, status, value, error):
            return True
        if outcome.attempts <= self.retries:     # transient: try again
            pending.append(_Pending(entry.job, outcome.attempts,
                                    time.monotonic()
                                    + self._delay(outcome.attempts)))
            return False
        if outcome.worker_deaths:
            # Workers keep dying on this job: one final in-process
            # attempt before declaring it lost.
            self.progress(f"job {entry.job.job_id}: workers kept dying; "
                          "final in-process attempt")
            status, value, error = _attempt(lambda: _in_process(
                self.entrypoint, entry.job, outcome.attempts))
            if status == "ok":
                outcome.ok, outcome.value = True, value
                outcome.attempts += 1
            else:
                outcome.error = error
        return True

    def _degrade_to_serial(self, outcomes: dict[str, JobOutcome],
                           pending: list[_Pending],
                           running: list[_Running]) -> dict[str, JobOutcome]:
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
        running: list[_Running] = []
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
                    outcomes[entry.job.job_id].attempts = entry.attempt + 1
                    try:
                        running.append(self._spawn(entry.job,
                                                   entry.attempt))
                    except Exception as exc:
                        self.progress(f"worker spawn failed ({exc}); "
                                      "degrading to serial execution")
                        outcomes[entry.job.job_id].attempts = entry.attempt
                        pending.append(entry)
                        return self._degrade_to_serial(outcomes, pending,
                                                       running)
                reaped = False
                for entry in list(running):
                    if entry.conn.poll(0) or not entry.process.is_alive():
                        status, value, error = self._reap(entry)
                    elif time.monotonic() > entry.deadline:
                        _stop(entry)
                        status, value, error = (
                            "timeout", None,
                            f"timed out after {self.timeout:.0f}s")
                    else:
                        continue
                    running.remove(entry)
                    reaped = True
                    if self._settle(outcomes, pending, entry, status,
                                    value, error):
                        settled += 1
                        self.progress(
                            f"{settled}/{len(pool_jobs)} jobs settled")
                if (pending or running) and not reaped:
                    # Sleep until a worker reports or dies, its job
                    # times out, or a free slot's back-off runs out.
                    wakeups = [entry.deadline for entry in running]
                    if len(running) < self.jobs:
                        wakeups += [entry.not_before for entry in pending]
                    _wait_ready(running, min(wakeups) - time.monotonic())
        except KeyboardInterrupt:
            self._abort(outcomes, pending, running)
        return outcomes

    def _abort(self, outcomes: dict[str, JobOutcome],
               pending: list[_Pending], running: list[_Running]) -> None:
        """Ctrl-C drain: kill and join every worker, keep finished
        outcomes, and mark everything unfinished ``interrupted``."""
        self.interrupted = True
        self.progress("interrupted; stopping workers")
        unfinished = ({entry.job.job_id for entry in pending}
                      | {entry.job.job_id for entry in running})
        for entry in running:
            _stop(entry)
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
    ``("run", job_id, payload, attempt, kill_on_attempts)`` or
    ``("stop",)``; the child answers each run with zero or more
    ``("progress", job_id, data)`` messages followed by exactly one of
    ``("ok", job_id, value, "")``, ``("retry", job_id, None, error)``
    or ``("fatal", job_id, None, error)`` — unless it SIGKILLs itself
    (injected fault or genuine crash), in which case the parent sees
    the pipe die instead.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if not message or message[0] == "stop":
            return
        _, job_id, payload, attempt, kill_on_attempts = message

        def report(data, job_id=job_id):
            try:
                conn.send(("progress", job_id, data))
            except (BrokenPipeError, OSError):
                pass

        if attempt in kill_on_attempts:
            os.kill(os.getpid(), signal.SIGKILL)
        status, _, error = _attempt(lambda: conn.send(
            ("ok", job_id, entrypoint(payload, attempt, report), "")),
            BaseException)
        if status != "ok":
            conn.send((status, job_id, None, error))


@dataclass
class _Slot:
    """Parent-side state of one persistent worker process."""

    worker_id: int
    process: Any = None
    conn: Any = None
    job: QueuedJob | None = None
    deadline: float = 0.0


class WorkerDaemon:
    """A persistent worker fleet draining a :class:`LeaseQueue`.

    Unlike :class:`WorkerPool`, the daemon never returns: jobs are
    :meth:`submit`\\ ted continuously and settle through callbacks.
    Its entrypoint takes a third argument — ``fn(payload, attempt,
    progress)`` — where ``progress(data)`` both streams a progress
    event to the owner and renews the job's lease (a heartbeat).

    Supervision (one background thread, one pass per arrival): relay
    progress, settle finished jobs and grant the freed worker its next
    lease in the same pass, renew the lease of every worker that is
    demonstrably alive, and expire the lease of any worker that died or
    overran the per-job ``timeout`` — the job re-queues and the next
    attempt resumes from its last checkpoint (the entrypoint decides
    what resuming means). Between passes the thread blocks in
    :func:`_wait_ready` on the busy workers' pipes and process
    sentinels and on the wake-up that :meth:`submit` and
    :meth:`shutdown` write; the only timeouts are the nearest job
    deadline and the lease-renewal interval. Workers that die are
    respawned, so the fleet stays at strength. In serial mode (no
    multiprocessing)
    a single thread runs jobs in-process; injected worker deaths
    degrade to retryable errors exactly like the pool's serial mode.
    """

    def __init__(self, entrypoint, *, workers: int = 2,
                 queue: LeaseQueue | None = None, timeout: float = 600.0,
                 force_serial: bool = False,
                 on_event: Callable[[str, dict], None] | None = None,
                 on_settled: Callable[[str, JobOutcome], None] | None = None,
                 ) -> None:
        self.entrypoint = entrypoint
        self.workers = max(1, workers)
        self.queue = queue or LeaseQueue()
        self.timeout = timeout
        self.on_event = on_event or (lambda job_id, event: None)
        self.on_settled = on_settled or (lambda job_id, outcome: None)
        self.serial = (force_serial or _mp is None
                       or os.environ.get("REPRO_FORCE_SERIAL") == "1")
        self._slots: list[_Slot] = []
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
        if not self.serial:
            self._slots = [_Slot(worker_id=i) for i in range(self.workers)]
            for slot in self._slots:
                self._spawn(slot)
        target = self._supervise_serial if self.serial else self._supervise
        self._thread = threading.Thread(target=target,
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
        for slot in self._slots:
            if slot.process is None:
                continue
            if slot.job is None:        # idle: ask it to exit first
                try:
                    slot.conn.send(("stop",))
                    slot.process.join(timeout=1)
                except (OSError, ValueError):
                    pass
            _stop(slot)
            slot.process = slot.conn = None
            slot.job = None
        self._slots = []
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

    def _spawn(self, slot: _Slot) -> None:
        ctx = _mp.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        slot.process = ctx.Process(
            target=_daemon_worker_main,
            args=(child_conn, self.entrypoint), daemon=True)
        slot.process.start()
        child_conn.close()
        slot.conn = parent_conn
        slot.job = None

    def _grant(self, slot: _Slot, now: float) -> bool:
        leased = self.queue.lease(slot.worker_id, now)
        if leased is None:
            return False
        job, lease = leased
        try:
            slot.conn.send(("run", job.job_id, job.payload, lease.attempt,
                            job.kill_on_attempts))
        except (BrokenPipeError, OSError):
            # Worker vanished while idle; give the lease back and come
            # straight round again for the fresh worker to take it.
            self.queue.expire(job.job_id, "worker-died")
            self._spawn(slot)
            self._wake.set()
            return False
        slot.job = job
        slot.deadline = now + self.timeout
        self.on_event(job.job_id,
                      {"type": "lease", "worker": slot.worker_id,
                       "attempt": lease.attempt})
        return True

    def _expire_slot(self, slot: _Slot, reason: str) -> None:
        """A busy worker died / timed out: break the lease, re-queue
        (or fail) the job, and put a fresh worker in the slot."""
        job = slot.job
        slot.job = None
        expiry = self.queue.expire(job.job_id, reason)
        _stop(slot)
        self._spawn(slot)
        if expiry is None:
            return
        if expiry.requeued:
            self.on_event(job.job_id,
                          {"type": "requeue", "reason": reason,
                           "attempt": job.attempts})
        else:
            outcome = JobOutcome(job_id=job.job_id, ok=False,
                                 error=expiry.error,
                                 attempts=job.attempts,
                                 worker_deaths=job.worker_deaths,
                                 timeouts=job.timeouts)
            self.on_event(job.job_id,
                          {"type": "failed", "error": expiry.error})
            self.on_settled(job.job_id, outcome)

    def _settle_slot(self, slot: _Slot, status: str, value: Any,
                     error: str) -> None:
        job = slot.job
        slot.job = None
        died = status == "died"
        if died or (status == "retry"
                    and job.attempts <= self.queue.retries):
            expiry = self.queue.expire(
                job.job_id, "worker-died" if died else "retryable-error")
            if expiry is not None and expiry.requeued:
                self.on_event(job.job_id,
                              {"type": "requeue",
                               "reason": "worker-died" if died else error,
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

    def _poll_slot(self, slot: _Slot, now: float) -> None:
        """Relay messages from one busy worker; detect death/timeout."""
        while True:
            try:
                if not slot.conn.poll(0):
                    break
                message = slot.conn.recv()
            except (EOFError, OSError):
                self._expire_slot(slot, "worker-died")
                return
            kind = message[0]
            if kind == "progress":
                _, job_id, data = message
                self.queue.heartbeat(job_id, now)
                self.on_event(job_id, {"type": "progress", **data})
                continue
            status, _, value, error = message
            self._settle_slot(slot, status, value, error)
            return
        if slot.job is None:
            return
        if not slot.process.is_alive():
            self._expire_slot(slot, "worker-died")
        elif now > slot.deadline:
            self._expire_slot(slot, "timeout")
        else:
            # The worker is demonstrably alive: that is a heartbeat.
            self.queue.heartbeat(slot.job.job_id, now)

    def _supervise(self) -> None:
        while not self._stop.is_set():
            now = time.monotonic()
            for expiry in self.queue.expire_stale(now):
                event = {"type": "requeue" if expiry.requeued
                         else "failed", "reason": expiry.reason}
                self.on_event(expiry.job_id, event)
            for slot in self._slots:
                if slot.job is not None:
                    self._poll_slot(slot, now)
                if slot.job is None:    # idle, or settled just now
                    if not slot.process.is_alive():
                        self._spawn(slot)
                    self._grant(slot, now)
            busy = [slot for slot in self._slots if slot.job is not None]
            if busy or self.queue.in_flight():
                self._idle.clear()
            else:
                self._idle.set()
            # A live worker renews its lease each pass, so passes may be
            # no further apart than a fraction of the lease's life, nor
            # than a job's timeout (``deadline - now`` rounds above it
            # once the monotonic clock reads a few thousand seconds).
            timeout = min([self.queue.lease_ttl / 3, self.timeout]
                          + [slot.deadline - now for slot in busy])
            _wait_ready(busy, timeout if busy else None, self._wake)

    # ------------------------------------------------------------ serial

    def _supervise_serial(self) -> None:
        """In-process fallback: one job at a time, no child processes.

        Injected deaths surface as :class:`InjectedWorkerDeath`, which
        settles as ``"died"``, so the expiry/re-queue path still runs.
        """
        while not self._stop.is_set():
            now = time.monotonic()
            leased = self.queue.lease(0, now)
            if leased is None:
                self._idle.set()
                _wait_ready((), None, self._wake)
                continue
            self._idle.clear()
            job, lease = leased
            self.on_event(job.job_id, {"type": "lease", "worker": 0,
                                       "attempt": lease.attempt})

            def report(data, job_id=job.job_id):
                self.queue.heartbeat(job_id)
                self.on_event(job_id, {"type": "progress", **data})

            self._settle_slot(_Slot(worker_id=0, job=job), *_attempt(
                lambda: _in_process(self.entrypoint, job, lease.attempt,
                                    report)))

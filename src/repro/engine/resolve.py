"""How a list of :class:`SimJob`s becomes payloads plus accounting.

Sweeps, ``explore`` and the chaos harness, locally or against ``repro
serve``, all resolve their jobs here, in one order: **store** (a key
the transport already holds is a hit and goes no further) → **admit**
(the caller's pre-check may refuse a miss with a reason) → **dispatch**
(the rest runs, once per key, and what finishes is persisted). The two
transports share one method, ``resolve(jobs, *, faults=None,
admit=None) -> Resolution``, so callers never see pool jobs or HTTP
statuses, and a test can substitute a fake.

Only leaves are imported at module scope: the scheduler loads on a
store miss, the HTTP client with :class:`ServerResolver`
(docs/INTERNALS.md, "import layering").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.job import SimJob, execute, import_execution_modules
from repro.engine.store import ResultStore

__all__ = ["Resolution", "LocalResolver", "ServerResolver"]


@dataclass
class Resolution:
    """What became of one batch of jobs, by job key: every key is in
    exactly one of ``payloads``, ``rejected`` and ``errors``."""

    payloads: dict[str, dict] = field(default_factory=dict)
    #: Keys of ``payloads`` answered without a dispatch.
    cached: set[str] = field(default_factory=set)
    #: Refused by ``admit``: key -> reason.
    rejected: dict[str, str] = field(default_factory=dict)
    #: Failed, or refused by the transport: key -> message.
    errors: dict[str, str] = field(default_factory=dict)
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    #: Ctrl-C cut the dispatch short: finished payloads are persisted,
    #: unfinished jobs read ``"interrupted"`` in ``errors``.
    interrupted: bool = False

    @property
    def fresh(self) -> int:
        """Jobs that went to dispatch, finished or not."""
        return len(self.payloads) - len(self.cached) + len(self.errors)


class _Resolver:
    """The store -> admit -> dispatch order; a transport supplies
    ``_lookup`` and ``_dispatch``."""

    def resolve(self, jobs: list[SimJob], *,
                faults: dict[str, dict] | None = None,
                admit=None) -> Resolution:
        """Resolve ``jobs``; duplicate keys collapse to one.

        ``faults`` (chaos harness, ``--self-test``) maps keys to
        injections — ``kill_on_attempts`` SIGKILLs the worker mid-job on
        those attempts, and the retry runs the job again from cycle 0 —
        and a faulted key skips the lookup so the injection runs.
        ``admit(job)`` returns ``None`` to let a miss run, or the reason
        it must not.
        """
        faults = faults or {}
        resolution = Resolution()
        misses: dict[str, SimJob] = {}
        for job in jobs:
            key = job.key()
            if key in resolution.payloads or key in misses \
                    or key in resolution.rejected:
                continue
            payload = None if key in faults else self._lookup(key)
            if payload is not None:
                resolution.cached.add(key)
                resolution.payloads[key] = payload
                continue
            reason = admit(job) if admit is not None else None
            if reason is None:
                misses[key] = job
            else:
                resolution.rejected[key] = reason
        if misses:
            self._dispatch(misses, faults, resolution)
        return resolution


def _pool_entrypoint(payload: SimJob, attempt: int) -> dict:
    """Module-level worker entrypoint (picklable under any start
    method): every attempt runs the job from cycle 0."""
    return execute(payload)


class LocalResolver(_Resolver):
    """The persistent store in front of a local ``WorkerPool``. Workers
    never touch the store — the parent persists what they return, so
    there is one writer. ``store=None`` always dispatches and persists
    nothing."""

    def __init__(self, store: ResultStore | None, jobs: int = 1,
                 timeout: float = 600.0, retries: int = 2,
                 progress=None) -> None:
        self.store = store
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.progress = progress or (lambda message: None)

    def _lookup(self, key: str) -> dict | None:
        return self.store.get(key) if self.store is not None else None

    def _dispatch(self, misses: dict[str, SimJob], faults: dict[str, dict],
                  resolution: Resolution) -> None:
        from repro.engine.scheduler import PoolJob, WorkerPool

        # Before the first fork: the pool forks one child per job, and a
        # child that finds the simulator missing imports it all over again.
        import_execution_modules()
        self.progress(f"{len(resolution.cached)} cached, "
                      f"{len(misses)} jobs to run on {self.jobs} workers")
        to_run = [PoolJob(job_id=key, payload=job, kill_on_attempts=tuple(
                      faults.get(key, {}).get("kill_on_attempts", ())))
                  for key, job in misses.items()]
        pool = WorkerPool(_pool_entrypoint, jobs=self.jobs,
                          timeout=self.timeout, retries=self.retries,
                          progress=self.progress)
        outcomes = pool.run(to_run)
        resolution.interrupted = pool.interrupted
        for key, outcome in outcomes.items():
            resolution.retries += outcome.retries
            resolution.worker_deaths += outcome.worker_deaths
            resolution.timeouts += outcome.timeouts
            if outcome.ok:
                resolution.payloads[key] = outcome.value
                if self.store is not None:
                    self.store.put(key, outcome.value,
                                   job=misses[key].describe())
            else:
                resolution.errors[key] = outcome.error


class ServerResolver(_Resolver):
    """A ``repro serve`` instance as the transport. Jobs travel as
    ``sim`` envelopes of :meth:`SimJob.spec`, so the server's keys are
    the local ones and its store is shared with everyone else's runs;
    the accounting is read off its job records. ``fresh`` skips the
    lookup and makes the server re-run stored keys. A request it refuses
    or a job it fails is that key's error; only an unreachable server
    raises (:class:`ConnectionError`)."""

    def __init__(self, url: str, client_id: str = "sweep",
                 timeout: float = 600.0, fresh: bool = False,
                 progress=None) -> None:
        from repro.server.client import ServerClient

        self.url = url
        self.client = ServerClient(url, client_id=client_id)
        self.timeout = timeout
        self.fresh = fresh
        self.progress = progress or (lambda message: None)

    def _lookup(self, key: str) -> dict | None:
        from repro.server.client import ask

        # Unknown (404), still running (202) and failed earlier (409)
        # are all misses: submitting is what settles each of them.
        return None if self.fresh else ask(self.client.result, key)[0]

    def _dispatch(self, misses: dict[str, SimJob], faults: dict[str, dict],
                  resolution: Resolution) -> None:
        from repro.server.client import ask

        submitted = []
        for key, job in misses.items():
            answer, why = ask(
                self.client.submit, {"type": "sim", "spec": job.spec()},
                priority="batch", fresh=self.fresh, fault=faults.get(key))
            if answer is None:
                resolution.errors[key] = why
            else:
                submitted.append(key)
        self.progress(f"{len(resolution.cached)} cached on the server, "
                      f"{len(submitted)} submitted to {self.url}")
        records, why = ask(
            self.client.wait, submitted,
            timeout=self.timeout * max(1, len(submitted)),
            progress=lambda done, total: self.progress(
                f"{done}/{total} jobs settled"))
        if records is None:
            resolution.errors.update(dict.fromkeys(submitted, why))
            return
        for key in submitted:
            record = records[key]
            resolution.retries += record.get("requeues", 0)
            resolution.worker_deaths += record.get("worker_deaths", 0)
            resolution.timeouts += record.get("timeouts", 0)
            payload, why = None, record.get("error")
            if record["status"] == "done":
                payload, why = ask(self.client.result, key)
            if payload is not None:
                resolution.payloads[key] = payload
            else:
                resolution.errors[key] = why or "no result"

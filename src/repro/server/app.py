"""``python -m repro serve`` — the asyncio simulation-as-a-service app.

A stdlib-only HTTP/1.1 server (``asyncio.start_server``; persistent
connections, requests answered in order on each) in front of the
long-lived :class:`~repro.engine.scheduler.WorkerDaemon`:

=======================  ==============================================
``POST /v1/jobs``        submit ``{"type","spec"[,"priority","client",
                         "fresh","fault"]}``; cached keys answer
                         instantly without touching a worker; a full
                         queue or exhausted client quota answers
                         ``429`` with a ``Retry-After`` header
``GET /v1/jobs/K``       status record (state, attempts, lease, counts,
                         latencies); with ``?wait=SECONDS`` the answer
                         is held until the record is terminal or
                         SECONDS have passed (a long-poll)
``GET /v1/jobs/K/result``  the stored payload (``202`` while running,
                         ``409`` for failed jobs, ``404`` unknown)
``GET /v1/jobs/K/stream``  Server-Sent Events: the job's full event
                         history, then live progress until terminal
``GET /v1/queue``        queue snapshot (depth per priority, leases)
``GET /metrics``         the server registry merged with every
                         completed job's simulation metrics
                         (``?format=json`` for machine readers)
``GET /healthz``         liveness + fleet size
=======================  ==============================================

Job lifecycle: ``queued → running → done | failed``, with ``requeue``
events in between whenever a lease expired (worker death, timeout,
stale heartbeat) and the job went back for another attempt — sim jobs
resume from their last durable checkpoint. ``fault`` injections
(SIGKILL a worker on given attempts) are refused unless the server was
started with ``--chaos``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field

from repro.engine.job import import_execution_modules, metrics_from_payload
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
from repro.engine.store import ResultStore
from repro.observability.metrics import MetricsRegistry
from repro.resilience.checkpoint import CheckpointPolicy
from repro.server.jobs import BadJobError, ServerJob, execute_server_job

#: Submission bodies larger than this are rejected outright.
MAX_BODY_BYTES = 8 << 20

#: Job states a record can be in.
TERMINAL = ("done", "failed")


def _seconds(query: str, name: str) -> float:
    """The plain non-negative decimal ``name=`` carries in a URL query
    string (0 when absent, 400 for anything else)."""
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == name:
            digits = value.replace(".", "", 1)
            if digits.isascii() and digits.isdigit():
                return float(value)
            raise _HttpError(400, f"bad {name}= value {value!r}")
    return 0.0


class _HttpError(Exception):
    """Route-level failure carrying its HTTP response."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


@dataclass
class JobRecord:
    """Server-side view of one submitted job key."""

    key: str
    envelope: dict
    label: str
    status: str
    priority: str
    client: str
    cached: bool = False
    attempts: int = 0
    requeues: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    error: str = ""
    events: list[dict] = field(default_factory=list)
    #: ``time.monotonic()`` at submit / latest lease / the worker's
    #: answer / the status turning terminal; None until it happened.
    stamps: dict[str, float] = field(default_factory=dict)
    #: Futures of the handlers parked on this record (loop thread only).
    waiters: set = field(default_factory=set)

    def latencies(self) -> dict[str, float | None]:
        """Where the job's wall went, in ms: waiting for a worker
        (re-queued attempts included), the attempt that finished, and
        storing its payload. The three sum to submit → terminal."""
        at = self.stamps
        return {name: (at[end] - at[start]) * 1e3
                if start in at and end in at else None
                for name, start, end in (("queue_wait_ms", "submit", "lease"),
                                         ("run_ms", "lease", "done"),
                                         ("settle_ms", "done", "settled"))}

    def to_dict(self, lease=None) -> dict:
        """JSON status record for the ``/v1/jobs/<key>`` endpoint."""
        return {
            "key": self.key, "label": self.label, "status": self.status,
            "priority": self.priority, "client": self.client,
            "cached": self.cached, "attempts": self.attempts,
            "requeues": self.requeues,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts, "error": self.error,
            "events": len(self.events),
            "lease": lease.to_dict() if lease is not None else None,
        } | self.latencies()


class ReproServer:
    """The HTTP application plus its daemon, queue, and job table."""

    def __init__(self, *, workers: int = 2, lease_ttl: float = 30.0,
                 timeout: float = 600.0, retries: int = 2,
                 max_queue: int = 256, quota: int | None = None,
                 checkpoint_every: int = 2_000_000, chaos: bool = False,
                 store: ResultStore | None = None) -> None:
        self.store = store
        self.chaos = chaos
        self.queue = LeaseQueue(lease_ttl=lease_ttl, max_depth=max_queue,
                                retries=retries, quota=quota)
        self.daemon = WorkerDaemon(execute_server_job, workers=workers,
                                   queue=self.queue, timeout=timeout,
                                   on_event=self._on_event,
                                   on_settled=self._on_settled)
        self.policy = None
        if store is not None:
            self.policy = CheckpointPolicy(
                directory=str(store.root / "ckpt"), every=checkpoint_every)
        self._lock = threading.Lock()
        self.jobs: dict[str, JobRecord] = {}
        self._results: dict[str, dict] = {}    # only when store is None
        self._seq = 0
        self.metrics = MetricsRegistry()
        self.job_metrics = MetricsRegistry()
        self.port: int | None = None
        self._stopped: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[asyncio.Task] = set()

    # -------------------------------------------------- daemon callbacks

    def _append_event(self, record: JobRecord, event: dict) -> None:
        self._seq += 1
        record.events.append({"seq": self._seq, **event})

    def _notify(self, record: JobRecord) -> None:
        """Tell the loop ``record`` changed: the one completion signal
        that ``/stream`` and ``?wait=`` park on. Called from the daemon
        thread; without a running loop nobody is parked."""
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._release, record)
            except RuntimeError:        # the loop closed under us
                pass

    @staticmethod
    def _release(record: JobRecord) -> None:
        while record.waiters:
            waiter = record.waiters.pop()
            if not waiter.done():       # timed out a moment ago
                waiter.set_result(None)

    def _on_event(self, job_id: str, event: dict) -> None:
        with self._lock:
            record = self.jobs.get(job_id)
            if record is None:
                return
            kind = event.get("type")
            if kind in ("lease", "done", "failed"):
                record.stamps[kind if kind == "lease" else "done"] = \
                    time.monotonic()
            if kind == "lease":
                record.status = "running"
                record.attempts = event.get("attempt", 0) + 1
                self.metrics.count("server.leases_granted")
            elif kind == "requeue":
                record.status = "queued"
                record.requeues += 1
                if event.get("reason") == "timeout":
                    record.timeouts += 1
                else:
                    record.worker_deaths += 1
                self.metrics.count("server.requeues")
            elif kind == "failed":
                record.status = "failed"
                record.error = event.get("error") \
                    or event.get("reason", "failed")
            elif kind == "interrupted":
                record.status = "failed"
                record.error = "interrupted"
            # "done" only joins the event history here: the status flips
            # in _on_settled, after the payload is stored, so a client
            # that polls "done" can always fetch the result.
            self._append_event(record, event)
        self._notify(record)

    def _on_settled(self, job_id: str, outcome) -> None:
        with self._lock:
            record = self.jobs.get(job_id)
        if record is None:
            return
        registry = None
        if outcome.ok:
            if self.store is not None:
                job = ServerJob.from_envelope(record.envelope)
                self.store.put(job_id, outcome.value, job=job.describe())
            else:
                with self._lock:
                    self._results[job_id] = outcome.value
            if isinstance(outcome.value, dict):
                registry = metrics_from_payload(outcome.value)
        with self._lock:
            if outcome.ok:
                record.status = "done"
                record.error = ""
                self.metrics.count("server.jobs_completed")
                if registry is not None:
                    self.job_metrics.merge(registry)
            else:
                record.status = "failed"
                record.error = record.error or outcome.error
                self.metrics.count("server.jobs_failed")
            record.stamps["settled"] = time.monotonic()
            for name, value in record.latencies().items():
                if value is not None:
                    self.metrics.observe(f"server.latency.{name}", value)
        self._notify(record)

    # ------------------------------------------------------------ routes

    def _payload_for(self, key: str) -> dict | None:
        if self.store is not None:
            return self.store.get(key)
        with self._lock:
            return self._results.get(key)

    def submit(self, body: dict) -> tuple[int, dict]:
        """Handle one submission; returns (HTTP status, response body).

        Raises :class:`_HttpError` for malformed envelopes (400),
        refused fault injections (403), and backpressure (429 with a
        ``Retry-After`` header).
        """
        try:
            job = ServerJob.from_envelope(body)
            priority = priority_value(body.get("priority",
                                               DEFAULT_PRIORITY))
        except (BadJobError, ValueError) as exc:
            raise _HttpError(400, str(exc)) from None
        client = str(body.get("client") or "anon")
        fault = body.get("fault") or {}
        if fault and not self.chaos:
            raise _HttpError(403, "fault injection requires a server "
                                  "started with --chaos")
        kill_on = tuple(int(a) for a in fault.get("kill_on_attempts", ()))
        fresh = bool(body.get("fresh")) or bool(fault)
        key = job.key()
        self.metrics.count("server.submissions")
        with self._lock:
            record = self.jobs.get(key)
            if record is not None and record.status in ("queued",
                                                        "running"):
                self.metrics.count("server.dedup_hits")
                return 200, {"key": key, "status": record.status,
                             "cached": False, "deduped": True}
            if record is not None and record.status == "done" \
                    and not fresh:
                self.metrics.count("server.cache_hits")
                return 200, {"key": key, "status": "done",
                             "cached": True}
        if not fresh:
            payload = self._payload_for(key)
            if payload is not None:
                with self._lock:
                    record = JobRecord(
                        key=key, envelope=self._core(body),
                        label=job.label(), status="done",
                        priority=PRIORITY_CLASSES[priority],
                        client=client, cached=True)
                    self._append_event(record, {"type": "cached"})
                    self.jobs[key] = record
                    self.metrics.count("server.cache_hits")
                return 200, {"key": key, "status": "done",
                             "cached": True}
        queued = QueuedJob(job_id=key,
                           payload=(self._core(body), self.policy),
                           priority=priority, client=client,
                           kill_on_attempts=kill_on)
        with self._lock:
            record = JobRecord(key=key, envelope=self._core(body),
                               label=job.label(), status="queued",
                               priority=PRIORITY_CLASSES[priority],
                               client=client,
                               stamps={"submit": time.monotonic()})
            self.jobs[key] = record
        try:
            self.daemon.submit(queued)
        except (QueueFullError, QuotaExceededError) as exc:
            with self._lock:
                self.jobs.pop(key, None)
            self.metrics.count("server.backpressure_429")
            raise _HttpError(
                429, str(exc),
                headers={"Retry-After":
                         f"{exc.retry_after:.0f}"}) from None
        self.metrics.count("server.jobs_enqueued")
        return 200, {"key": key, "status": "queued", "cached": False}

    @staticmethod
    def _core(body: dict) -> dict:
        """The part of a submission that defines the work itself."""
        return {"type": body.get("type"), "spec": body.get("spec")}

    def _record(self, key: str) -> JobRecord:
        """The record of one key (raises 404 when unknown); a key only
        a previous server life stored reads as a cache hit."""
        with self._lock:
            record = self.jobs.get(key)
        if record is None:
            if self._payload_for(key) is None:
                raise _HttpError(404, f"unknown job {key}")
            record = JobRecord(key, {}, "", "done", "", "", cached=True,
                               events=[{"seq": 0, "type": "cached"}])
        return record

    def status(self, key: str) -> dict:
        """The status record for one key (raises 404 when unknown)."""
        return self._record(key).to_dict(lease=self.queue.lease_of(key))

    def result(self, key: str) -> tuple[int, dict]:
        """The result payload, or the right not-yet/never answer."""
        with self._lock:
            record = self.jobs.get(key)
        if record is not None and record.status == "failed":
            raise _HttpError(409, record.error or "job failed")
        payload = self._payload_for(key)
        if payload is not None:
            return 200, payload
        if record is None:
            raise _HttpError(404, f"unknown job {key}")
        return 202, {"key": key, "status": record.status}

    def _render_metrics(self) -> MetricsRegistry:
        merged = MetricsRegistry()
        with self._lock:
            merged.merge(self.metrics)
            merged.merge(self.job_metrics)
        merged.gauge("server.queue_depth", self.queue.depth())
        merged.gauge("server.workers", self.daemon.workers)
        if self.store is not None:
            merged.gauge("server.store_entries", len(self.store))
        return merged

    # ------------------------------------------------------- HTTP server

    async def _read_request(self, reader):
        """The next request on a connection, or ``None`` at a clean end
        of stream. A framing error raises :class:`_HttpError`; what
        follows it on the socket cannot be trusted, so the caller
        answers and closes."""
        try:
            line = await reader.readline()
            if not line:
                return None
            self.metrics.count("server.http_requests")
            method, target, version = line.decode("latin-1").split()
            headers = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, value = raw.decode("latin-1").split(":", 1)
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # not three fields, no colon, or a line over limit
            raise _HttpError(400, "malformed request line or header") \
                from None
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _HttpError(400, f"bad Content-Length {length!r}")
        if int(length) > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(int(length))
        connection = headers.get("connection", "").lower()
        keep_alive = version.upper() == "HTTP/1.1" and connection != "close"
        path, _, query = target.partition("?")
        return method.upper(), path, query, body, keep_alive

    @staticmethod
    def _respond(writer, status: int, body: dict | str,
                 headers: dict | None = None, close: bool = False) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   403: "Forbidden", 404: "Not Found", 405: "Method Not "
                   "Allowed", 409: "Conflict", 413: "Payload Too Large",
                   429: "Too Many Requests", 500: "Internal Server Error"}
        if isinstance(body, str):
            blob = body.encode()
            ctype = "text/plain; charset=utf-8"
        else:
            blob = json.dumps(body).encode()
            ctype = "application/json"
        head = [f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(blob)}"]
        if close:
            head.append("Connection: close")
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + blob)

    def _route(self, method: str, path: str, query: str,
               body: bytes) -> tuple[int, dict | str, dict]:
        """Dispatch every non-streaming route; returns
        (status, body, extra headers)."""
        if path == "/healthz":
            return 200, {"ok": True, "workers": self.daemon.workers,
                         "queue_depth": self.queue.depth(),
                         "jobs": len(self.jobs)}, {}
        if path == "/metrics":
            registry = self._render_metrics()
            if "format=json" in query:
                return 200, registry.to_dict(), {}
            return 200, registry.render() + "\n", {}
        if path == "/v1/queue":
            return 200, self.queue.snapshot(), {}
        if path == "/v1/jobs":
            if method != "POST":
                raise _HttpError(405, "POST a job envelope here")
            try:
                data = json.loads(body.decode() or "null")
            except ValueError:
                raise _HttpError(400, "body is not valid JSON") from None
            status, answer = self.submit(data)
            return status, answer, {}
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            key, _, tail = rest.partition("/")
            if not key:
                raise _HttpError(404, "missing job key")
            if tail == "":
                return 200, self.status(key), {}
            if tail == "result":
                status, answer = self.result(key)
                return status, answer, {}
            raise _HttpError(404, f"unknown endpoint {path!r}")
        raise _HttpError(404, f"unknown endpoint {path!r}")

    def _watch(self, record: JobRecord) -> asyncio.Future:
        """A future :meth:`_release` resolves at ``record``'s next
        change. Take it *before* reading the record: a change between
        the read and the wait then still ends the wait."""
        waiter = asyncio.get_running_loop().create_future()
        record.waiters.add(waiter)
        return waiter

    async def _stream(self, writer, key: str) -> None:
        """Serve one ``/stream`` connection: replay, then follow until
        the record's status — not an event — says the job is over."""
        record = self._record(key)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            waiter = self._watch(record)
            try:
                with self._lock:
                    events = record.events[sent:]
                    status = record.status
                sent += len(events)
                if events:
                    writer.write("".join(
                        f"event: {event.get('type', 'event')}\n"
                        f"data: {json.dumps(event)}\n\n"
                        for event in events).encode())
                    await writer.drain()
                if status in TERMINAL:
                    return
                await waiter
            finally:
                record.waiters.discard(waiter)

    async def _parked(self, record: JobRecord, seconds: float) -> None:
        """Hold a ``?wait=`` status read until ``record`` is terminal
        or ``seconds`` have passed."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + seconds
        while True:
            waiter = self._watch(record)
            try:
                if record.status in TERMINAL:
                    return
                await asyncio.wait_for(waiter, deadline - loop.time())
            except asyncio.TimeoutError:
                return
            finally:
                record.waiters.discard(waiter)

    async def _handle(self, reader, writer) -> None:
        """Serve one connection: requests in order until either side
        asks to close, a framing error, or :meth:`stop`."""
        self.metrics.count("server.http_connections")
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            keep_alive = True
            while keep_alive:
                # Until a request is read whole, what follows on the
                # socket cannot be trusted: answer the error and close.
                keep_alive = False
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        return
                    method, path, query, body, keep_alive = request
                    key = path[len("/v1/jobs/"):] if method == "GET" \
                        and path.startswith("/v1/jobs/") else ""
                    if key.endswith("/stream"):
                        keep_alive = False          # close-delimited
                        await self._stream(writer, key[:-len("/stream")])
                        return
                    record = self.jobs.get(key) if "wait=" in query else None
                    if record is not None:
                        await self._parked(record, _seconds(query, "wait"))
                    status, answer, headers = self._route(method, path,
                                                          query, body)
                except _HttpError as exc:
                    status, answer, headers = \
                        exc.status, {"error": str(exc)}, exc.headers
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except Exception as exc:   # route bug: report, keep serving
                    status, answer, headers = \
                        500, {"error": f"{type(exc).__name__}: {exc}"}, {}
                self._respond(writer, status, answer, headers,
                              close=not keep_alive)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # Cancelled means stop(), and ending quietly is the point:
            # before 3.12 the stream protocol logs a handler that ends
            # cancelled as an error.
            pass
        finally:
            self._connections.discard(task)
            writer.close()

    # --------------------------------------------------------- lifecycle

    async def _run_async(self, host: str, port: int, ready) -> None:
        # The fleet is forked from this process: load the simulator
        # once here, not once in every worker at its first job.
        import_execution_modules()
        self.daemon.start()
        server = await asyncio.start_server(self._handle, host, port)
        self.port = server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if ready is not None:
            ready(self.port)
        try:
            await self._stopped.wait()
        finally:
            # Idle keep-alive connections and parked long-polls end only
            # when told to, and Server.wait_closed() (3.12) waits for
            # every connection: Ctrl-C must not hang on a quiet client.
            self._loop = None
            server.close()
            for task in list(self._connections):
                task.cancel()
            await server.wait_closed()

    def run(self, host: str = "127.0.0.1", port: int = 0,
            ready=None) -> None:
        """Serve until :meth:`stop` (or KeyboardInterrupt, which the
        caller handles). ``ready(port)`` fires once the socket is
        bound — with ``port=0`` that is the only way to learn it."""
        asyncio.run(self._run_async(host, port, ready))

    def stop(self) -> None:
        """Thread-safe: unblock :meth:`run` (used by tests/shutdown)."""
        if self._loop is not None and self._stopped is not None:
            self._loop.call_soon_threadsafe(self._stopped.set)

    def shutdown(self) -> list[str]:
        """Drain the daemon (kill + join workers, revoke leases) and
        flush store counters; returns the interrupted job ids."""
        drained = self.daemon.shutdown()
        if self.store is not None:
            self.store.flush_counters()
        return drained

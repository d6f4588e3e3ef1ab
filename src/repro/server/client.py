"""Stdlib-only HTTP client for a running ``repro serve`` instance.

The same :class:`ServerClient` backs the CLI client modes (``repro
sweep --server URL``, ``explore --server``, ``fuzz --server``) and the
tests. A grid is thousands of small exchanges with one server, so each
client keeps one persistent ``http.client`` connection per thread
(``TCP_NODELAY``, which ``http.client`` sets itself) instead of paying
a TCP set-up and tear-down per request, and :meth:`ServerClient.wait`
long-polls — the server answers when the job settles — instead of
sleeping between status reads. A connection the server closed in the
meantime (a restart, a server that answers ``Connection: close``) is
reopened and the request sent once more, which is safe because
submissions dedupe by key and everything else is a read. Backpressure
(HTTP 429) is retried with the server's own ``Retry-After`` hint,
bounded, so a client pointed at a saturated server degrades to
patience instead of an error.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

#: Job states after which a record no longer changes.
TERMINAL = ("done", "failed")


class ServerError(RuntimeError):
    """A server answer that is not what the caller asked for."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def ask(call, *args, **kwargs):
    """``(answer, "")`` from one client call, or ``(None, why)`` when
    the server answered with something else; an unreachable server
    raises :class:`ConnectionError`."""
    try:
        return call(*args, **kwargs), ""
    except ServerError as exc:
        if exc.status == 0:      # no server, not a refused request
            raise ConnectionError(str(exc)) from exc
        return None, str(exc)


class ServerClient:
    """Submit/poll/fetch against one ``repro serve`` base URL."""

    def __init__(self, base_url: str, client_id: str = "",
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        scheme, _, rest = self.base_url.rpartition("://")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._factory = http.client.HTTPSConnection if scheme == "https" \
            else http.client.HTTPConnection
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []

    def __del__(self) -> None:
        for conn in self._connections:      # every thread's
            conn.close()

    # ------------------------------------------------------------- plumbing

    def _request(self, method: str, path: str, body: dict | None = None,
                 patience: float = 0.0) -> tuple[int, dict, dict]:
        """One HTTP exchange on this thread's connection; returns
        (status, headers, decoded body). ``patience`` is how long the
        server was asked to hold its answer, on top of ``timeout``."""
        data = json.dumps(body).encode() if body is not None else None
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._factory(self._netloc,
                                                    timeout=self.timeout)
            self._connections.append(conn)
        while True:
            reused = conn.sock is not None
            try:
                conn.request(
                    method, self._prefix + path, body=data,
                    headers={"Content-Type": "application/json"}
                    if data else {})
                conn.sock.settimeout(self.timeout + patience)
                answer = conn.getresponse()
                status, headers = answer.status, dict(answer.getheaders())
                blob = answer.read()
                break
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                # A kept-alive socket the server has since closed fails
                # on first use; anything else is the server's answer.
                if reused and not isinstance(exc, TimeoutError):
                    continue
                raise ServerError(
                    0, f"cannot reach {self.base_url}: {exc}") from exc
        try:
            decoded = json.loads(blob.decode() or "null")
        except ValueError:
            decoded = {"error": blob.decode(errors="replace")}
        if not isinstance(decoded, dict):
            decoded = {"value": decoded}
        return status, headers, decoded

    # ------------------------------------------------------------------ api

    def submit(self, envelope: dict, *, priority: str | None = None,
               fresh: bool = False, fault: dict | None = None,
               max_retries: int = 20) -> dict:
        """POST one job envelope; waits out up to ``max_retries``
        rounds of 429 backpressure using the server's ``Retry-After``."""
        body = dict(envelope)
        if priority is not None:
            body["priority"] = priority
        if self.client_id:
            body["client"] = self.client_id
        if fresh:
            body["fresh"] = True
        if fault:
            body["fault"] = fault
        for _ in range(max_retries + 1):
            status, headers, answer = self._request("POST", "/v1/jobs",
                                                    body)
            if status != 429:
                break
            time.sleep(min(5.0, float(headers.get("Retry-After", 1))))
        if status != 200:
            raise ServerError(status, answer.get("error", "submit failed"))
        return answer

    def status(self, key: str, wait: float = 0.0) -> dict:
        """The job's status record (raises :class:`ServerError` on 404).
        With ``wait``, the server holds the answer until the record is
        terminal or that many seconds have passed."""
        status, _, answer = self._request(
            "GET", f"/v1/jobs/{key}" + (f"?wait={wait:.3f}" if wait else ""),
            patience=wait)
        if status != 200:
            raise ServerError(status, answer.get("error", "no status"))
        return answer

    def result(self, key: str) -> dict | None:
        """The result payload, or ``None`` while the job is still
        pending; failed jobs raise with the server's error."""
        status, _, answer = self._request("GET", f"/v1/jobs/{key}/result")
        if status == 200:
            return answer
        if status == 202:
            return None
        raise ServerError(status, answer.get("error", "no result"))

    def wait(self, keys, poll: float = 0.2, timeout: float = 600.0,
             progress=None) -> dict[str, dict]:
        """Block until every key is terminal; returns key → status
        record. Each key is one long-poll, bounded by what is left of
        ``timeout``; ``poll`` only spaces two reads of one key when a
        server answers before it asked to. ``progress(done, total)``
        fires whenever the done count advances."""
        pending = list(dict.fromkeys(keys))
        records: dict[str, dict] = {}
        deadline = time.monotonic() + timeout
        reported = -1
        while pending:
            asked = time.monotonic()
            record = self.status(pending[0], wait=max(0.0, deadline - asked))
            if record["status"] in TERMINAL:
                records[pending.pop(0)] = record
            if progress is not None and len(records) != reported:
                reported = len(records)
                progress(reported, reported + len(pending))
            if record["status"] not in TERMINAL:
                if time.monotonic() > deadline:
                    raise ServerError(
                        504, f"timed out waiting on {len(pending)} jobs")
                time.sleep(max(0.0, asked + poll - time.monotonic()))
        return records

    def metrics(self) -> dict:
        """The server's merged metrics registry as a dict."""
        status, _, answer = self._request("GET", "/metrics?format=json")
        if status != 200:
            raise ServerError(status, answer.get("error", "no metrics"))
        return answer

    def queue(self) -> dict:
        """The live queue snapshot (depths, leases)."""
        status, _, answer = self._request("GET", "/v1/queue")
        if status != 200:
            raise ServerError(status, answer.get("error", "no queue"))
        return answer

    def health(self) -> dict:
        """The ``/healthz`` liveness record."""
        status, _, answer = self._request("GET", "/healthz")
        if status != 200:
            raise ServerError(status, answer.get("error", "unhealthy"))
        return answer

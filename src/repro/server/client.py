"""Stdlib-only HTTP client for a running ``repro serve`` instance.

The same :class:`ServerClient` backs the CLI client modes (``repro
sweep --server URL``, ``explore --server``, ``fuzz --server``) and the
tests. A grid is thousands of small exchanges with one server, so each
client keeps one persistent TCP connection per thread (``TCP_NODELAY``
set, so a request is never held back behind an unacknowledged one)
instead of paying a set-up and tear-down per request, and
:meth:`ServerClient.wait` long-polls — the server answers when the job
settles — instead of sleeping between status reads.

The client frames HTTP/1.1 itself, as the server does: a request is
one write of head and body; an answer is a status line, header lines
(names compared case-insensitively) and exactly ``Content-Length``
bytes. An HTTP/1.0 answer, one that says ``Connection: close`` or one
without ``Content-Length`` is read to the end of the stream and its
connection closed, so the next request opens a fresh one. A kept-alive
connection the server closed in the meantime (a restart) is reopened
and the request sent once more, which is safe because submissions
dedupe by key and everything else is a read. Backpressure (HTTP 429)
is retried with the server's own ``Retry-After`` hint, bounded, so a
client pointed at a saturated server degrades to patience instead of
an error.
"""

from __future__ import annotations

import json
import socket
import threading
import time

#: Job states after which a record no longer changes.
TERMINAL = ("done", "failed")

#: Longest status or header line an answer may carry, newline included.
MAX_LINE = 65537


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
        self._tls = scheme == "https"
        self._local = threading.local()
        #: Every thread's open (socket, reader) pair.
        self._connections: set[tuple] = set()

    def __del__(self) -> None:
        for connection in list(self._connections):
            self._drop(connection)

    # ------------------------------------------------------------- plumbing

    def _connect(self) -> tuple:
        """Open this thread's connection: (socket, buffered reader)."""
        host, colon, port = self._netloc.rpartition(":")
        if not colon or "]" in port:        # no port, or a bare [v6]
            host, port = self._netloc, "443" if self._tls else "80"
        host = host.strip("[]")
        sock = socket.create_connection((host, int(port)), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                import ssl
                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=host)
        except OSError:
            sock.close()
            raise
        connection = self._local.conn = (sock, sock.makefile("rb"))
        self._connections.add(connection)
        return connection

    def _drop(self, connection: tuple) -> None:
        """Close a connection's reader and socket together; a socket
        whose reader stays open keeps its descriptor."""
        if getattr(self._local, "conn", None) is connection:
            self._local.conn = None
        self._connections.discard(connection)
        sock, reader = connection
        reader.close()
        sock.close()

    @staticmethod
    def _line(reader) -> bytes:
        line = reader.readline(MAX_LINE)
        if not line.endswith(b"\n"):       # the end of stream, or too long
            raise ConnectionResetError("answer cut short, or a line too long")
        return line

    def _answer(self, reader) -> tuple[int, dict, bytes, bool]:
        """Read one answer: (status, headers by lower-case name, body,
        whether the connection ends with it)."""
        version, status, *_ = self._line(reader).split(None, 2)
        headers = {}
        while (line := self._line(reader)) not in (b"\r\n", b"\n"):
            name, value = line.decode("latin-1").split(":", 1)
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is None:
            return int(status), headers, reader.read(), True
        blob = reader.read(int(length))
        if len(blob) != int(length):
            raise ConnectionResetError("connection closed mid-answer")
        close = version != b"HTTP/1.1" \
            or headers.get("connection", "").lower() == "close"
        return int(status), headers, blob, close

    def _request(self, method: str, path: str, body: dict | None = None,
                 patience: float = 0.0) -> tuple[int, dict, dict]:
        """One HTTP exchange on this thread's connection; returns
        (status, headers by lower-case name, decoded body).
        ``patience`` is how long the server was asked to hold its
        answer, on top of ``timeout``."""
        data = json.dumps(body).encode() if body is not None else b""
        message = (f"{method} {self._prefix}{path} HTTP/1.1\r\n"
                   f"Host: {self._netloc}\r\n"
                   + ("Content-Type: application/json\r\n" if data else "")
                   + f"Content-Length: {len(data)}\r\n\r\n").encode() + data
        while True:
            connection = getattr(self._local, "conn", None)
            reused = connection is not None
            try:
                if connection is None:
                    connection = self._connect()
                sock, reader = connection
                sock.settimeout(self.timeout + patience)
                sock.sendall(message)
                status, headers, blob, close = self._answer(reader)
                break
            except (OSError, ValueError) as exc:
                if connection is not None:
                    self._drop(connection)
                # A kept-alive socket the server has since closed fails
                # on first use; anything else is the server's answer.
                if reused and not isinstance(exc, TimeoutError):
                    continue
                raise ServerError(
                    0, f"cannot reach {self.base_url}: {exc}") from exc
        if close:
            self._drop(connection)
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
            time.sleep(min(5.0, float(headers.get("retry-after", 1))))
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

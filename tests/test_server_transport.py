"""The serve path's transport: persistent connections, completion by
notification, framing errors, and shutdown with clients connected.

Gates here are counts, not wall clock: HTTP requests per job,
connections per client. Raw sockets stand in for clients that
``ServerClient`` would never be (pipelining, half-sent bodies,
``Connection: close``, HTTP/1.0); a stdlib ``http.server`` stands in
for a server from before ``?wait=`` and keep-alive existed.
"""

import http.server
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.engine.job import count_job, execute, multiscalar_job
from repro.engine.store import ResultStore
from repro.server import ReproServer, ServerClient, ServerError
from repro.server.app import MAX_BODY_BYTES
from repro.server.jobs import execute_server_job


def sim_envelope(job):
    return {"type": "sim", "spec": job.spec()}


def _slow(payload, attempt, progress):
    time.sleep(0.7)
    return execute_server_job(payload, attempt, progress)


def _stuck(payload, attempt, progress):
    time.sleep(60)


class SlowStore(ResultStore):
    """A store whose writes take long enough to observe the interval
    between a worker's answer and a readable result."""

    def put(self, *args, **kwargs):
        time.sleep(0.3)
        return super().put(*args, **kwargs)


def counter(srv, name):
    return srv.metrics.counters.get(f"server.{name}", 0)


def exchange(port, data, *, half_close=False):
    """Send raw bytes, return everything the server answers until it
    closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def read_response(reader):
    """One Content-Length-framed response off a socket file:
    (status, headers, body)."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


@pytest.fixture
def started(serve):
    """``started(entrypoint=None, store=None)``: a running one-worker
    server (whose workers run ``entrypoint``) and its URL."""
    def start(entrypoint=None, store=None):
        srv = ReproServer(workers=1, store=store)
        if entrypoint is not None:      # before the fleet is forked
            srv.daemon.entrypoint = entrypoint
        return srv, serve(srv)

    return start


@pytest.fixture
def plain(started):
    """A started server with one worker and no store."""
    return started()


# ------------------------------------------------------- counted gates

def test_fresh_job_costs_at_most_four_requests_whatever_it_takes(started):
    srv, url = started(_slow)               # many polls long
    client = ServerClient(url)
    job = count_job("wc", annotated=True)
    before = counter(srv, "http_requests")
    key = client.submit(sim_envelope(job))["key"]
    records = client.wait([key], poll=0.05, timeout=60)
    assert records[key]["status"] == "done"
    assert client.result(key) == execute(job)
    assert counter(srv, "http_requests") - before <= 4
    assert counter(srv, "http_connections") == 1


def test_cached_operations_share_one_connection(plain):
    srv, url = plain
    client = ServerClient(url)
    job = count_job("wc", annotated=True)
    key = client.submit(sim_envelope(job))["key"]
    client.wait([key], timeout=60)
    requests = counter(srv, "http_requests")
    for _ in range(200):
        assert client.submit(sim_envelope(job))["cached"]
        assert client.result(key) is not None
    assert counter(srv, "http_requests") - requests == 400
    assert counter(srv, "http_connections") == 1


def test_each_thread_of_a_client_keeps_its_own_connection(plain):
    srv, url = plain
    client = ServerClient(url)
    threads = [threading.Thread(
        target=lambda: [client.health() for _ in range(20)])
        for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert counter(srv, "http_requests") == 60
    assert counter(srv, "http_connections") == 3


# ------------------------------------------------ connection handling

def test_keep_alive_pipelining_and_connection_close(plain):
    srv, _ = plain
    with socket.create_connection(("127.0.0.1", srv.port),
                                  timeout=10) as sock:
        reader = sock.makefile("rb")
        # Two requests sent before either answer is read.
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n"
                     b"GET /v1/queue HTTP/1.1\r\n\r\n")
        status, headers, body = read_response(reader)
        assert status == 200 and json.loads(body)["ok"]
        assert "connection" not in headers
        status, _, body = read_response(reader)
        assert status == 200 and "depth" in json.loads(body)
        # A route-level error keeps the connection...
        sock.sendall(b"GET /nope HTTP/1.1\r\n\r\n")
        assert read_response(reader)[0] == 404
        # ...and the client's Connection: close ends it.
        sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        status, headers, _ = read_response(reader)
        assert status == 200 and headers["connection"] == "close"
        assert reader.read() == b""
    assert counter(srv, "http_connections") == 1
    assert counter(srv, "http_requests") == 4


def test_http_1_0_client_is_answered_and_closed(plain):
    srv, _ = plain
    answer = exchange(srv.port, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Connection: close\r\n" in answer


def test_client_reconnects_after_a_server_restart_on_its_port(serve):
    first = ReproServer(workers=1, store=None)
    url = serve(first)
    client = ServerClient(url)
    assert client.health()["ok"]
    first.shutdown()
    first.stop()
    deadline = time.monotonic() + 10
    while first._loop is not None and time.monotonic() < deadline:
        time.sleep(0.01)
    second = ReproServer(workers=1, store=None)
    assert serve(second, port=first.port) == url
    assert client.health()["ok"]        # same client, stale socket
    assert counter(second, "http_connections") == 1


def test_unreachable_server_is_status_zero():
    with socket.socket() as sock:       # a port nobody listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(ServerError, match="cannot reach") as err:
        ServerClient(f"http://127.0.0.1:{port}").health()
    assert err.value.status == 0


# ------------------------------------------------------ framing errors

@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    (b"complete garbage\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
     400),
    (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: "
     + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n", 413),
], ids=["length-abc", "length-negative", "request-line", "header-line",
        "header-too-long", "body-too-large"])
def test_framing_error_is_answered_and_the_connection_closed(
        plain, caplog, request_bytes, status):
    srv, url = plain
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        # A second request rides behind the broken one: it must not be
        # read off a connection whose framing is unknown.
        answer = exchange(srv.port,
                          request_bytes + b"GET /healthz HTTP/1.1\r\n\r\n")
    assert answer.startswith(f"HTTP/1.1 {status} ".encode())
    assert answer.count(b"HTTP/1.1 ") == 1
    assert b"Connection: close\r\n" in answer
    assert b'"error"' in answer
    assert not caplog.records, caplog.text
    assert ServerClient(url).health()["ok"]


def test_half_sent_body_then_disconnect_is_survived(plain, caplog):
    srv, url = plain
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        answer = exchange(
            srv.port, b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50"
                      b"\r\n\r\n{\"type\"", half_close=True)
        assert ServerClient(url).health()["ok"]
    assert answer == b""
    assert not caplog.records, caplog.text


def test_bad_wait_value_is_400(started):
    srv, url = started(_stuck)
    client = ServerClient(url)
    key = client.submit(sim_envelope(count_job("wc", annotated=True)))["key"]
    for value in ("abc", "-1", "inf", "nan", ""):
        status, _, answer = client._request("GET",
                                            f"/v1/jobs/{key}?wait={value}")
        assert status == 400 and "wait" in answer["error"], value


def test_stream_of_an_unknown_key_is_a_plain_404(plain):
    srv, _ = plain
    answer = exchange(srv.port, b"GET /v1/jobs/" + b"0" * 64
                      + b"/stream HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert answer.startswith(b"HTTP/1.1 404 ")
    assert b"text/event-stream" not in answer


# ------------------------------------------- completion by notification

def test_done_implies_a_readable_result_for_every_kind_of_follower(
        started, tmp_path):
    # The worker's "done" event precedes the store write; neither a
    # stream follower nor a long-poller may be released by the event.
    srv, url = started(store=SlowStore(tmp_path / "store"))
    client = ServerClient(url)
    job = count_job("wc", annotated=True)
    key = client.submit(sim_envelope(job))["key"]
    polled = {}
    poller = threading.Thread(daemon=True, target=lambda: polled.update(
        record=ServerClient(url).status(key, wait=60),
        result=ServerClient(url).result(key)))
    poller.start()
    with urllib.request.urlopen(f"{url}/v1/jobs/{key}/stream",
                                timeout=60) as response:
        body = response.read().decode()
    # The stream has ended: the record and the result must be there.
    assert client.status(key)["status"] == "done"
    assert client.result(key) == execute(job)
    kinds = re.findall(r"^event: (\w+)$", body, re.MULTILINE)
    assert kinds[0] == "queued" and kinds[-1] == "done"
    poller.join(30)
    assert polled["record"]["status"] == "done"
    assert polled["result"] == execute(job)


def test_long_poll_answers_early_and_on_time(started):
    srv, url = started(_slow)
    client = ServerClient(url)
    key = client.submit(sim_envelope(count_job("wc", annotated=True)))["key"]
    start = time.monotonic()
    record = client.status(key, wait=0.2)           # job takes 0.7 s
    waited = time.monotonic() - start
    assert record["status"] in ("queued", "running")   # so: before 0.7 s
    assert waited >= 0.2
    record = client.status(key, wait=60)
    assert record["status"] == "done"
    assert time.monotonic() - start < 30
    # Terminal records and keys nobody submitted answer at once.
    start = time.monotonic()
    assert client.status(key, wait=60)["status"] == "done"
    with pytest.raises(ServerError) as err:
        client.status("0" * 64, wait=60)
    assert err.value.status == 404
    assert time.monotonic() - start < 5


def test_wait_raises_504_on_time_with_a_long_poll_parked(started):
    srv, url = started(_stuck)
    client = ServerClient(url)
    key = client.submit(sim_envelope(count_job("wc", annotated=True)))["key"]
    before = counter(srv, "http_requests")
    start = time.monotonic()
    with pytest.raises(ServerError) as err:
        client.wait([key], timeout=0.5)
    assert err.value.status == 504
    assert 0.5 <= time.monotonic() - start < 3
    assert counter(srv, "http_requests") - before <= 2


def test_wait_reports_progress_as_keys_settle(plain):
    srv, url = plain
    client = ServerClient(url)
    jobs = [count_job(name, annotated=True) for name in ("wc", "cmp")]
    keys = [client.submit(sim_envelope(job))["key"] for job in jobs]
    seen = []
    records = client.wait(keys + keys, timeout=60,
                          progress=lambda done, total: seen.append(
                              (done, total)))
    assert list(records) == keys
    assert seen[-1] == (2, 2) and seen == sorted(set(seen))


class _OldServer(http.server.BaseHTTPRequestHandler):
    """A server from before this transport: HTTP/1.0, closes every
    connection, knows no ``?wait=`` and answers at once."""

    done_at = 0.0
    requests = []

    def do_GET(self):
        self.requests.append((time.monotonic(), self.path))
        status = "done" if time.monotonic() >= self.done_at else "running"
        blob = json.dumps({"key": "k", "status": status}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


def test_wait_against_a_server_without_long_poll_spaces_its_reads():
    _OldServer.requests = []
    _OldServer.done_at = time.monotonic() + 0.35
    with http.server.HTTPServer(("127.0.0.1", 0), _OldServer) as old:
        thread = threading.Thread(target=old.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServerClient(f"http://127.0.0.1:{old.server_port}")
            records = client.wait(["k"], poll=0.1, timeout=30)
        finally:
            old.shutdown()
            thread.join(10)
    assert records["k"]["status"] == "done"
    times = [at for at, _ in _OldServer.requests]
    assert 2 <= len(times) <= 6         # the old client: 1 + 0.35 / 0.1
    assert all(later - earlier >= 0.09
               for earlier, later in zip(times, times[1:]))


# ----------------------------------------------------------- latencies

def test_latency_stamps_account_for_the_clients_wall(started, tmp_path):
    srv, url = started(_slow, SlowStore(tmp_path / "store"))
    client = ServerClient(url)
    job = count_job("wc", annotated=True)
    client.health()                     # connection set-up is not the job
    start = time.monotonic()
    key = client.submit(sim_envelope(job))["key"]
    queued = client.status(key)
    record = client.wait([key], timeout=60)[key]
    wall_ms = (time.monotonic() - start) * 1e3
    assert queued["settle_ms"] is None and queued["run_ms"] is None
    parts = [record[name] for name in ("queue_wait_ms", "run_ms",
                                       "settle_ms")]
    assert all(part >= 0 for part in parts)
    assert record["run_ms"] >= 700 and record["settle_ms"] >= 300
    # The three intervals tile submit -> terminal; what the client adds
    # is two HTTP exchanges and a thread hop. Tolerance: 150 ms.
    assert sum(parts) <= wall_ms <= sum(parts) + 150
    histograms = client.metrics()["histograms"]
    for name, part in zip(("queue_wait_ms", "run_ms", "settle_ms"), parts):
        histogram = histograms[f"server.latency.{name}"]
        assert histogram["count"] == 1 and histogram["total"] == int(part)
    # A cache hit never meets a worker: nothing more is counted.
    assert client.submit(sim_envelope(job))["cached"]
    assert client.metrics()["histograms"][
        "server.latency.run_ms"]["count"] == 1


# ------------------------------------------------------------ shutdown

def test_shutdown_releases_parked_long_polls_and_idle_connections(started):
    srv, url = started(_stuck)
    idle = ServerClient(url)
    assert idle.health()["ok"]          # stays connected, says nothing
    key = idle.submit(sim_envelope(count_job("wc", annotated=True)))["key"]
    parked = {}
    poller = threading.Thread(daemon=True, target=lambda: parked.update(
        ServerClient(url).status(key, wait=60)))
    poller.start()
    streamed = {}

    def follow():
        with urllib.request.urlopen(f"{url}/v1/jobs/{key}/stream",
                                    timeout=60) as response:
            streamed["body"] = response.read().decode()

    follower = threading.Thread(target=follow, daemon=True)
    follower.start()
    time.sleep(0.3)
    assert poller.is_alive() and follower.is_alive()
    assert srv.shutdown() == [key]
    poller.join(10)
    follower.join(10)
    assert not poller.is_alive() and not follower.is_alive()
    assert parked["status"] == "failed" and parked["error"] == "interrupted"
    assert streamed["body"].rstrip().splitlines()[-2] == "event: interrupted"
    # The fixture's teardown now stops the loop with `idle` still
    # connected and asserts the serving thread ends.


_LISTENING = re.compile(r"listening on (http://\S+)")


def _children_of(pid):
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
                found.append(int(entry.name))
    return found


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads worker pids from /proc")
def test_serve_exits_130_with_clients_connected_and_parked(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs",
         "2", "--cache-dir", str(tmp_path / "store")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        url = ""
        for line in process.stderr:
            found = _LISTENING.search(line)
            if found:
                url = found.group(1)
                break
        assert url, "repro serve did not start"
        idle = ServerClient(url)
        assert idle.health()["ok"]      # an idle keep-alive connection
        key = idle.submit(sim_envelope(
            multiscalar_job("tomcatv", 8, 2, True)), fresh=True)["key"]
        outcome = {}

        def park():
            try:
                outcome["record"] = ServerClient(url).status(key, wait=120)
            except ServerError as error:
                outcome["error"] = error

        poller = threading.Thread(target=park, daemon=True)
        poller.start()
        time.sleep(0.5)
        assert poller.is_alive(), outcome
        workers = _children_of(process.pid)
        assert len(workers) == 2
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 130
        poller.join(10)
        assert not poller.is_alive() and outcome
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers)), "orphan workers"
        assert "drained 1 unfinished" in process.stderr.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stderr.close()

"""End-to-end tests for the HTTP job server and its thin client.

One real server (own worker fleet, own store, chaos enabled) runs in a
background thread for the whole module; tests talk to it over real
HTTP via :class:`ServerClient`, exactly like ``repro sweep --server``.
Backpressure and fault-gating are unit-tested against an unstarted
:class:`ReproServer` (its route layer is synchronous), which keeps the
slow fleet out of those paths.
"""

import json
import tempfile
import threading
import time
import urllib.request

import pytest

from repro.engine.job import count_job, execute, multiscalar_job
from repro.engine.store import ResultStore
from repro.server import (
    BadJobError,
    ReproServer,
    ServerClient,
    ServerError,
    ServerJob,
)
from repro.server.app import _HttpError
from repro.server.jobs import execute_server_job


def sim_envelope(job):
    return {"type": "sim", "spec": job.spec()}


@pytest.fixture(scope="module")
def server():
    root = tempfile.mkdtemp(prefix="repro-server-test-")
    srv = ReproServer(workers=2, lease_ttl=20.0, retries=2,
                      chaos=True, store=ResultStore(root))
    ready = threading.Event()

    def on_ready(port):
        ready.set()

    thread = threading.Thread(target=srv.run,
                              kwargs={"port": 0, "ready": on_ready},
                              daemon=True)
    thread.start()
    assert ready.wait(15), "server never bound its port"
    yield srv
    srv.shutdown()
    srv.stop()
    thread.join(10)


@pytest.fixture(scope="module")
def client(server):
    return ServerClient(f"http://127.0.0.1:{server.port}",
                        client_id="tests")


# ------------------------------------------------------------- happy path

def test_submit_wait_result_roundtrip(server, client):
    job = count_job("wc", annotated=True)
    answer = client.submit(sim_envelope(job))
    assert answer["key"] == job.key() and not answer["cached"]
    records = client.wait([job.key()], timeout=60)
    assert records[job.key()]["status"] == "done"
    payload = client.result(job.key())
    assert payload == execute(job)


def test_resubmit_is_a_cache_hit_without_a_worker(server, client):
    job = count_job("wc", annotated=True)
    client.submit(sim_envelope(job))
    client.wait([job.key()], timeout=60)
    answer = client.submit(sim_envelope(job))
    assert answer["cached"] and answer["status"] == "done"
    assert client.result(job.key()) == execute(job)


def test_server_store_is_shared_with_standalone_runs(server, client):
    # A payload persisted by a plain local execute()+put is an instant
    # server-side hit: the key recipe is the same object.
    job = count_job("cmp", annotated=False)
    server.store.put(job.key(), execute(job), job=job.describe())
    answer = client.submit(sim_envelope(job))
    assert answer["cached"]


def test_fault_injection_requeues_and_matches_standalone(server, client):
    job = multiscalar_job("cmp", 2)
    answer = client.submit(sim_envelope(job),
                           fault={"kill_on_attempts": [0]})
    assert not answer["cached"]
    records = client.wait([job.key()], timeout=120)
    record = records[job.key()]
    assert record["status"] == "done"
    assert record["attempts"] == 2
    assert record["requeues"] == 1 and record["worker_deaths"] == 1
    assert client.result(job.key()) == execute(multiscalar_job("cmp", 2))


def test_fuzz_job_type(server, client):
    spec = {"seed": 3, "index": 0, "languages": ["asm"],
            "grid": [{"kind": "scalar"},
                     {"kind": "multiscalar", "units": 2}],
            "max_cycles": 200_000}
    answer = client.submit({"type": "fuzz", "spec": spec})
    client.wait([answer["key"]], timeout=60)
    payload = client.result(answer["key"])
    assert payload["type"] == "fuzz"
    assert payload["check"]["status"] in ("ok", "invalid")


def test_fuzz_campaign_via_server_renders_like_local(server):
    # The server transport and the local pool scan the same waves in
    # the same order, so a campaign reads the same whichever ran it.
    from repro.difftest import FuzzCampaign

    def render(**transport):
        return FuzzCampaign(seed=7, budget=10, max_cycles=200_000,
                            **transport).run().render()

    assert render(server=f"http://127.0.0.1:{server.port}") == render()


def test_trace_job_type(server, client):
    answer = client.submit({"type": "trace",
                            "spec": {"workload": "wc", "units": 2,
                                     "max_cycles": 500_000}})
    client.wait([answer["key"]], timeout=60)
    payload = client.result(answer["key"])
    assert payload["type"] == "trace"
    assert payload["events"] > 0 and payload["trace"]["traceEvents"]


# ---------------------------------------------------------------- streams

def test_stream_replays_history_and_terminates(server, client):
    job = multiscalar_job("wc", 2)
    client.submit(sim_envelope(job))
    client.wait([job.key()], timeout=120)
    url = (f"http://127.0.0.1:{server.port}/v1/jobs/"
           f"{job.key()}/stream")
    with urllib.request.urlopen(url, timeout=30) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        body = response.read().decode()
    kinds = [line.split(" ", 1)[1] for line in body.splitlines()
             if line.startswith("event:")]
    assert kinds[0] == "queued" and kinds[-1] == "done"
    payloads = [json.loads(line.split(" ", 1)[1])
                for line in body.splitlines()
                if line.startswith("data:")]
    assert [p["seq"] for p in payloads] == sorted(p["seq"]
                                                  for p in payloads)


# ------------------------------------------------------- errors and status

def test_unknown_key_is_404(client):
    with pytest.raises(ServerError) as err:
        client.status("0" * 64)
    assert err.value.status == 404
    with pytest.raises(ServerError) as err:
        client.result("0" * 64)
    assert err.value.status == 404


def test_malformed_submissions_are_400(client):
    sim = multiscalar_job("wc", 4).spec()
    fuzz = {"seed": 1, "index": 0, "languages": ["asm"],
            "grid": [{"kind": "scalar"}]}
    for envelope in ({"type": "nope", "spec": {}},
                     {"type": "sim", "spec": {"bogus": 1}},
                     {"type": "sim", "spec": "not-a-dict"},
                     {"type": "sim", "spec": {**sim, "units": 0}},
                     {"type": "sim", "spec": {**sim, "ring_hop": 0}},
                     {"type": "sim", "spec": {**sim, "ring_hop": "1"}},
                     {"type": "sim", "spec": {**sim, "arb_entries": 1.5}},
                     {"type": "sim", "spec": {**sim, "dcache_bank_kb": 0}},
                     {"type": "sim", "spec": {**sim, "pred_history": 0}},
                     {"type": "sim", "spec": {**sim, "language": "fortran"}},
                     {"type": "sim",
                      "spec": {**sim, "arb_full_policy": ["stall"]}},
                     {"type": "sim", "spec": {**sim, "issue_width": True}},
                     {"type": "sim", "spec": {**sim, "out_of_order": "no"}},
                     {"type": "sim", "spec": {**sim, "jit": 1}},
                     {"type": "fuzz", "spec": {"seed": 1}},
                     # A grid is a list of SimJob field dicts, bound at
                     # submission as the oracle binds it.
                     {"type": "fuzz",
                      "spec": {**fuzz, "grid": [["scalar", 1, 1, False,
                                                 True, True]]}},
                     {"type": "fuzz",
                      "spec": {**fuzz, "grid": [{"kind": "scalar",
                                                 "bogus": 1}]}},
                     {"type": "fuzz",
                      "spec": {**fuzz, "grid": [{"kind": "multiscalar",
                                                 "units": 0}]}},
                     {"type": "fuzz", "spec": {**fuzz, "grid": "scalar"}},
                     {"type": "trace", "spec": {"workload": "zzz"}},
                     {"type": "trace",
                      "spec": {"workload": "wc", "units": "x"}},
                     {"type": "trace", "spec": {"workload": "wc", "units": 0}},
                     {"type": "trace",
                      "spec": {"workload": "wc", "units": 2.5}},
                     {"type": "trace",
                      "spec": {"workload": "wc", "issue_width": 3}},
                     {"type": "trace",
                      "spec": {"workload": "wc", "max_cycles": 0}},
                     {"type": "trace",
                      "spec": {"workload": "wc", "categories": "bogus"}},
                     {"type": "trace",
                      "spec": {"workload": "wc", "window": [5]}}):
        with pytest.raises(ServerError) as err:
            client.submit(envelope, max_retries=0)
        assert err.value.status == 400, envelope
    with pytest.raises(BadJobError):
        ServerJob.from_envelope(["not", "an", "object"])


def test_metrics_endpoint_text_and_json(server, client):
    metrics = client.metrics()
    assert metrics["counters"]["server.submissions"] >= 1
    assert "server.queue_depth" in metrics["gauges"]
    url = f"http://127.0.0.1:{server.port}/metrics"
    with urllib.request.urlopen(url, timeout=10) as response:
        text = response.read().decode()
    assert "server.submissions" in text


def test_health_and_queue_endpoints(server, client):
    health = client.health()
    assert health["ok"] and health["workers"] == 2
    snapshot = client.queue()
    assert "depth" in snapshot and "pending" in snapshot


def test_unknown_endpoint_is_404(server):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/nope")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    err.value.close()
    assert err.value.code == 404


# ----------------------------------------- backpressure (no fleet needed)

def test_queue_full_maps_to_429_with_retry_after():
    srv = ReproServer(workers=1, max_queue=1, store=None)
    srv.submit(sim_envelope(count_job("wc", annotated=True)))
    with pytest.raises(_HttpError) as err:
        srv.submit(sim_envelope(count_job("cmp", annotated=True)))
    assert err.value.status == 429
    assert float(err.value.headers["Retry-After"]) > 0


def test_quota_maps_to_429(server):
    srv = ReproServer(workers=1, quota=1, store=None)
    srv.submit(sim_envelope(count_job("wc", annotated=True)))
    with pytest.raises(_HttpError) as err:
        srv.submit(sim_envelope(count_job("cmp", annotated=True)))
    assert err.value.status == 429


def test_duplicate_pending_submission_dedupes():
    srv = ReproServer(workers=1, store=None)
    job = count_job("wc", annotated=True)
    first = srv.submit(sim_envelope(job))
    again = srv.submit(sim_envelope(job))
    assert first[1]["status"] == "queued"
    assert again[1].get("deduped")


def test_status_reads_done_only_once_the_result_is_readable():
    # The daemon reports the "done" event before it hands over the
    # outcome; a client polling in between must not see a finished job
    # whose result is still 202.
    from repro.engine.scheduler import JobOutcome

    srv = ReproServer(workers=1, store=None)
    job = count_job("wc", annotated=True)
    srv.submit(sim_envelope(job))
    srv._on_event(job.key(), {"type": "done", "error": ""})
    assert srv.status(job.key())["status"] != "done"
    assert srv.result(job.key())[0] == 202
    srv._on_settled(job.key(), JobOutcome(job_id=job.key(), ok=True,
                                          value={"type": "count",
                                                 "count": 7}))
    assert srv.status(job.key())["status"] == "done"
    assert srv.result(job.key()) == (200, {"type": "count", "count": 7})


def test_fault_requires_chaos_mode():
    srv = ReproServer(workers=1, chaos=False, store=None)
    body = sim_envelope(count_job("wc", annotated=True))
    body["fault"] = {"kill_on_attempts": [0]}
    with pytest.raises(_HttpError) as err:
        srv.submit(body)
    assert err.value.status == 403


def test_status_answers_from_a_previous_server_life():
    # A fresh server over a warm store knows nothing in-memory, but
    # still answers status/result for stored keys.
    root = tempfile.mkdtemp(prefix="repro-server-warm-")
    store = ResultStore(root)
    job = count_job("wc", annotated=True)
    store.put(job.key(), execute(job), job=job.describe())
    srv = ReproServer(workers=1, store=store)
    record = srv.status(job.key())
    assert record["cached"] and record["timeouts"] == 0
    status, payload = srv.result(job.key())
    assert status == 200 and payload == execute(job)


# ------------------------------------------------------------ timeouts

def _stall_first_attempt(payload, attempt):
    if attempt == 0:
        time.sleep(60)
    return execute_server_job(payload, attempt)


def test_overrunning_attempt_is_recorded_as_a_timeout(serve):
    # The server used to leave timeout requeues out of worker_deaths and
    # count them nowhere, so `sweep --server` always read "0 timeouts".
    from repro.engine.resolve import ServerResolver

    srv = ReproServer(workers=1, timeout=1.0, store=None)
    srv.daemon.entrypoint = _stall_first_attempt
    url = serve(srv)
    job = count_job("cmp", annotated=True)
    resolution = ServerResolver(url).resolve([job])
    assert resolution.payloads == {job.key(): execute(job)}
    assert (resolution.timeouts, resolution.worker_deaths,
            resolution.retries) == (1, 0, 1)
    record = ServerClient(url).status(job.key())
    assert record["timeouts"] == 1 and record["worker_deaths"] == 0
    assert record["attempts"] == 2 and record["requeues"] == 1


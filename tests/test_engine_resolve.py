"""The one path from jobs to payloads: store -> admit -> dispatch.

The order is written once (``repro.engine.resolve``) and carried by two
transports. The unit tests below run against both — a real
``LocalResolver`` over a tmp store, and a ``ServerResolver`` whose HTTP
client is an in-memory stub — and the equivalence test at the bottom
runs real sweeps and searches through a real in-process server.
"""

import json
from dataclasses import replace

import pytest

from repro.engine.job import SimJob, count_job, execute, multiscalar_job
from repro.engine.resolve import LocalResolver, Resolution, ServerResolver
from repro.engine.scheduler import WorkerPool
from repro.engine.store import ResultStore
from repro.engine.sweep import SweepRequest, run_sweep, run_sweep_via_server
from repro.explore import (
    ExploreRequest,
    LocalEvaluator,
    ServerEvaluator,
    build_report,
    default_point,
    run_explore,
)
from repro.explore.evaluate import Evaluator
from repro.server import ReproServer, ServerError

JOBS = [count_job("wc", annotated=False), count_job("wc", annotated=True),
        count_job("cmp", annotated=True)]
KEYS = [job.key() for job in JOBS]


class StubClient:
    """An in-memory ``ServerClient``: ``stored`` answers lookups, a key
    in ``refuse`` is a 400, anything else submitted runs on the spot."""

    def __init__(self, refuse=()):
        self.stored = {}
        self.refuse = set(refuse)
        self.submitted = []

    def result(self, key):
        if key not in self.stored:
            raise ServerError(404, f"unknown job {key}")
        return self.stored[key]

    def submit(self, envelope, **kwargs):
        job = SimJob.from_spec(envelope["spec"])
        if job.key() in self.refuse:
            raise ServerError(400, "refused by the stub")
        self.submitted.append(job.key())
        self.stored[job.key()] = execute(job)
        return {"key": job.key(), "status": "queued", "cached": False}

    def wait(self, keys, **kwargs):
        return {key: {"status": "done", "requeues": 0, "worker_deaths": 0,
                      "timeouts": 0, "error": ""} for key in keys}


@pytest.fixture(params=["local", "server"])
def transport(request, tmp_path, monkeypatch):
    """``(resolver, warm, dispatched)``: ``warm(jobs)`` stores their
    payloads where the resolver looks, ``dispatched`` lists the keys
    that were actually run, in order."""
    if request.param == "local":
        store = ResultStore(tmp_path / "store")
        dispatched = []
        real_run = WorkerPool.run

        def recording_run(self, pool_jobs):
            dispatched.extend(job.job_id for job in pool_jobs)
            return real_run(self, pool_jobs)

        monkeypatch.setattr(WorkerPool, "run", recording_run)

        def warm(jobs):
            for job in jobs:
                store.put(job.key(), execute(job))

        return LocalResolver(store), warm, dispatched
    resolver = ServerResolver("http://127.0.0.1:1")
    resolver.client = stub = StubClient()
    return (resolver,
            lambda jobs: stub.stored.update(
                {job.key(): execute(job) for job in jobs}),
            stub.submitted)


def _never(job):
    raise AssertionError(f"admit was asked about a stored job: {job}")


def test_warm_store_answers_before_admit_is_asked(transport):
    resolver, warm, dispatched = transport
    warm(JOBS)
    resolution = resolver.resolve(JOBS, admit=_never)
    assert resolution.cached == set(KEYS) and resolution.fresh == 0
    assert resolution.payloads == {job.key(): execute(job) for job in JOBS}
    assert dispatched == []


def test_refused_job_is_neither_a_hit_nor_a_dispatch(transport):
    resolver, warm, dispatched = transport
    warm(JOBS[:1])
    asked = []

    def admit(job):
        asked.append(job.key())
        return "not this one" if job.key() == KEYS[1] else None

    resolution = resolver.resolve(JOBS, admit=admit)
    assert asked == KEYS[1:]                     # misses only
    assert resolution.rejected == {KEYS[1]: "not this one"}
    assert resolution.cached == {KEYS[0]} and resolution.fresh == 1
    assert dispatched == [KEYS[2]]
    assert set(resolution.payloads) == {KEYS[0], KEYS[2]}
    assert not resolution.errors
    # Nothing was stored for the refused job: it is asked about again.
    again = resolver.resolve(JOBS, admit=admit)
    assert again.rejected == resolution.rejected
    assert again.cached == {KEYS[0], KEYS[2]} and again.fresh == 0


def test_duplicate_keys_in_one_batch_dispatch_once(transport):
    resolver, _, dispatched = transport
    resolution = resolver.resolve(JOBS + JOBS[::-1])
    assert dispatched == KEYS
    assert list(resolution.payloads) == KEYS and resolution.fresh == 3


def test_faulted_key_skips_the_read(transport):
    resolver, warm, dispatched = transport
    warm(JOBS)
    resolution = resolver.resolve(
        JOBS, faults={KEYS[0]: {"kill_on_attempts": ()}})
    assert dispatched == [KEYS[0]]
    assert resolution.cached == set(KEYS[1:]) and resolution.fresh == 1


def test_unreachable_server_is_a_connection_error():
    with pytest.raises(ConnectionError, match="cannot reach"):
        ServerResolver("http://127.0.0.1:1").resolve(JOBS)


def test_server_records_fold_into_the_accounting():
    resolver = ServerResolver("http://127.0.0.1:1")
    resolver.client = stub = StubClient(refuse={KEYS[2]})
    stub.wait = lambda keys, **kwargs: {
        KEYS[0]: {"status": "done", "requeues": 2, "worker_deaths": 1,
                  "timeouts": 1, "error": ""},
        KEYS[1]: {"status": "failed", "requeues": 0, "worker_deaths": 0,
                  "timeouts": 0, "error": "SimulationMismatchError: x"}}
    resolution = resolver.resolve(JOBS)
    assert (resolution.retries, resolution.worker_deaths,
            resolution.timeouts) == (2, 1, 1)
    assert set(resolution.payloads) == {KEYS[0]}
    assert resolution.errors == {
        KEYS[1]: "SimulationMismatchError: x",
        KEYS[2]: "HTTP 400: refused by the stub"}


# ------------------------------------------- the evaluator over a resolver

class CannedResolver:
    """A fake transport: answers every batch with one fixed record."""

    def __init__(self, resolution):
        self.resolution = resolution

    def resolve(self, jobs, *, faults=None, admit=None):
        return self.resolution


def test_evaluator_accounts_hits_refusals_and_failures():
    points = [replace(default_point(), units=units) for units in (1, 2, 4)]
    probe = Evaluator(CannedResolver(Resolution()))
    hit, refused, failed = (probe._job("wc", p).key() for p in points)
    payload = execute(multiscalar_job("wc", 1))
    evaluator = Evaluator(CannedResolver(Resolution(
        payloads={hit: payload}, cached={hit},
        rejected={refused: "AnnotationError: no"},
        errors={failed: "worker died"})))
    evaluator._scalar_cycles["wc"] = 2 * payload["result"]["cycles"]
    results = evaluator.evaluate("wc", points)
    assert results[0].ok and results[0].cached and results[0].speedup == 2.0
    assert results[1].infeasible and results[1].error == "AnnotationError: no"
    assert not results[2].ok and not results[2].infeasible
    assert results[2].error == "worker died"
    # A refused point is neither a hit nor a fresh run; a failed one ran.
    assert (evaluator.cache_hits, evaluator.fresh_runs,
            evaluator.failures) == (1, 1, 1)


def test_interrupted_resolution_stops_the_search():
    evaluator = Evaluator(CannedResolver(Resolution(interrupted=True)))
    evaluator._scalar_cycles["wc"] = 1
    with pytest.raises(KeyboardInterrupt):
        evaluator.evaluate("wc", [default_point()])


def test_refused_submission_fails_one_point_not_the_search():
    # `explore --server` used to die with the ServerError of the first
    # submission the server turned down.
    evaluator = ServerEvaluator("http://127.0.0.1:1")
    points = [replace(default_point(), units=units) for units in (1, 2)]
    refused = evaluator._job("wc", points[0]).key()
    evaluator.resolver.client = StubClient(refuse={refused})
    evaluator._scalar_cycles["wc"] = 1
    bad, good = evaluator.evaluate("wc", points)
    assert good.ok and not good.cached
    assert not bad.ok and not bad.infeasible
    assert bad.error == "HTTP 400: refused by the stub"
    assert (evaluator.failures, evaluator.fresh_runs) == (1, 2)


# --------------------------------------------------- transport equivalence

def test_sweep_and_explore_agree_across_transports(tmp_path, serve):
    url = serve(ReproServer(workers=2,
                            store=ResultStore(tmp_path / "server")))
    local = ResultStore(tmp_path / "local")
    grid = SweepRequest(workloads=("wc", "cmp"), units=(1, 4), jobs=2)
    for hits in (0, 6):
        here = run_sweep(grid, local)
        there = run_sweep_via_server(grid, url)
        assert here.render() == there.render()
        assert here.ok and here.cache_hits == hits
    search = ExploreRequest(workloads=("cmp",), budget=6, seed=3)
    for run in ("cold", "warm"):
        here = run_explore(search, LocalEvaluator(local, jobs=2))
        there = run_explore(search, ServerEvaluator(url))
        assert (here.cache_hits, here.fresh_runs) \
            == (there.cache_hits, there.fresh_runs)
        assert (here.fresh_runs == 0) == (run == "warm")
        assert json.dumps(build_report(here), sort_keys=True).encode() \
            == json.dumps(build_report(there), sort_keys=True).encode()

"""``serve-mixed``: what a client of ``repro serve`` waits for.

A real server subprocess (``python -m repro serve --port 0 --jobs 2
--cache-dir TMP``) driven through ``ServerClient``, closed loop:

* **fresh-grid** — every job of the grid submitted ``fresh=True``,
  then ``wait`` and ``result``: the second scheduling discipline
  (LeaseQueue + WorkerDaemon) beside the sweep's WorkerPool. The jobs
  are 2-way out-of-order, the only end-to-end cover of that issue
  path, scored against Table 4's 2-way columns.
* **cached** — ``submit`` + ``result`` over the keys just cached, from
  one closed-loop client (two in the traced run): HTTP + JSON + one
  store read, no simulation.
* **fresh-small** (traced run) — one small fresh job at a time, at the
  client's default poll and at a 5 ms poll, which separates dispatch
  from what ``ServerClient.wait``'s polling costs.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from repro.engine import (
    JobOutcome,
    QueuedJob,
    WorkerDaemon,
    execute,
    multiscalar_job,
    scalar_job,
)
from repro.harness.paper_data import PAPER_TABLE4
from repro.server.client import ServerClient, ServerError

from perf.common import (
    Checks,
    Measured,
    Sizing,
    child_env,
    fresh_dir,
    median,
    percentile,
    tail_percentile,
)
from perf.sweep import speedup_mae
from perf.trace import Tracer, trace_overhead

CLIENTS = 2
#: ``wait`` polls every pending key each round; at 18 keys a shorter
#: poll than this has the client compete with the two workers for CPU.
GRID_POLL = 0.1
FAST_POLL = 0.005
#: Cached operations per reported sample (a block's median latency).
SAMPLE_BLOCK = 100
_LISTENING = re.compile(r"listening on (http://\S+)")


def _children_of(pid: int) -> list[int]:
    """Direct children of ``pid``, from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and brackets.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, area: Path, store_dir: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--cache-dir", str(store_dir)],
            cwd=area, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.url = ""
        self.log: list[str] = []
        for line in self.process.stderr:
            self.log.append(line)
            found = _LISTENING.search(line)
            if found:
                self.url = found.group(1)
                break
        if not self.url:
            self.process.wait(timeout=10)
            raise RuntimeError("repro serve did not start: "
                               + "".join(self.log)[-500:])
        self._drain = threading.Thread(
            target=lambda: self.log.extend(self.process.stderr), daemon=True)
        self._drain.start()

    def stop(self, checks: Checks) -> None:
        """Ctrl-C the server; it, and every worker it forked, must be
        gone afterwards."""
        workers = _children_of(self.process.pid)
        self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._drain.join(timeout=5)
        self.process.stderr.close()
        checks.ok(code == 130, f"repro serve exited {code}, expected 130")
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _alive(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        checks.ok(not orphans, f"server left orphan workers {orphans}")


def _noop(payload, attempt, progress):
    return payload


def _envelope(job) -> dict:
    return {"type": "sim", "spec": job.spec()}


def _plain(payload: dict) -> dict:
    """``payload`` as it reads after a JSON round trip."""
    return json.loads(json.dumps(payload))


class ServeMixed:
    name = "serve-mixed"

    def __init__(self) -> None:
        self.area: Path | None = None
        self.server: Server | None = None
        self.client: ServerClient | None = None

    def setup(self, area: Path, size: Sizing, tracer: Tracer) -> None:
        self.area = area
        with tracer.span("server.start"):
            self.server = Server(area, fresh_dir(area / "store"))
        self.client = ServerClient(self.server.url, client_id="perf")
        with tracer.span("server.healthz"):
            self.client.health()

    def teardown(self, checks: Checks) -> None:
        if self.server is not None:
            self.server.stop(checks)
            self.server = None

    # ----------------------------------------------------------------- jobs

    def _jobs(self, size: Sizing) -> list:
        """Kernel x {scalar, 4 units, 8 units}, 2-way out-of-order."""
        jobs = []
        for kernel in size.serve_kernels:
            jobs.append(scalar_job(kernel, 2, True))
            jobs.append(multiscalar_job(kernel, 4, 2, True))
            jobs.append(multiscalar_job(kernel, 8, 2, True))
        return jobs

    def _fresh_round(self, jobs, checks: Checks, tracer: Tracer,
                     poll: float | None = GRID_POLL):
        """Submit every job fresh, wait for all, fetch every result;
        returns (wall seconds, key -> payload)."""
        client = self.client
        payloads: dict[str, dict] = {}
        with tracer.span("server.fresh_round", jobs=len(jobs)):
            start = time.perf_counter()
            try:
                keys = []
                for job in jobs:
                    with tracer.span("server.submit", fresh=True):
                        keys.append(client.submit(_envelope(job),
                                                  fresh=True)["key"])
                with tracer.span("server.wait"):
                    records = client.wait(keys) if poll is None \
                        else client.wait(keys, poll=poll)
                for key in keys:
                    with tracer.span("server.result"):
                        payloads[key] = client.result(key)
            except ServerError as error:
                checks.ok(False, f"fresh round: {error}")
                return time.perf_counter() - start, payloads
            wall = time.perf_counter() - start
        tracer.count("server.fresh_jobs", len(jobs))
        for job, key in zip(jobs, keys):
            checks.ok(records[key]["status"] == "done"
                      and payloads.get(key) is not None,
                      f"{job.label()}: {records[key].get('error') or 'no result'}")
        return wall, payloads

    def _cached_ops(self, jobs, expected: dict, count: int, seed: int,
                    tracer: Tracer) -> tuple[list[float], list[str]]:
        """``count`` x (submit + result) of already-cached keys from one
        client; (latencies in seconds, problems)."""
        client = ServerClient(self.server.url, client_id=f"perf-{seed}")
        rng = random.Random(seed)
        latencies, problems = [], []
        for _ in range(count):
            job = rng.choice(jobs)
            start = time.perf_counter()
            try:
                with tracer.span("server.cached_op"):
                    with tracer.span("server.submit", cached=True):
                        answer = client.submit(_envelope(job))
                    with tracer.span("server.result"):
                        payload = client.result(answer["key"])
            except ServerError as error:
                problems.append(f"cached {job.label()}: {error}")
                continue
            latencies.append(time.perf_counter() - start)
            if not answer.get("cached"):
                problems.append(f"cached {job.label()}: was not a cache hit")
            elif payload != expected[answer["key"]]:
                problems.append(f"cached {job.label()}: another payload")
        return latencies, problems

    def _cached_phase(self, jobs, expected, clients: int, per_client: int,
                      seed: int, checks: Checks, tracer: Tracer):
        """The cached mix at ``clients`` closed-loop client threads;
        (latencies, operations per second)."""
        results: list = [None] * clients

        def client_thread(index: int) -> None:
            results[index] = self._cached_ops(
                jobs, expected, per_client, seed * clients + index, tracer)

        threads = [threading.Thread(target=client_thread, args=(i,))
                   for i in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        latencies = [lat for lats, _ in results for lat in lats]
        problems = [p for _, probs in results for p in probs]
        checks.add(clients * per_client, problems)
        tracer.count("server.cached_ops", len(latencies))
        return latencies, len(latencies) / wall

    def _verify(self, jobs, expected: dict, count: int, seed: int,
                checks: Checks, tracer: Tracer) -> None:
        """A seeded sample of the server's payloads against in-process
        ``execute`` of the same job."""
        for job in random.Random(seed).sample(jobs, min(count, len(jobs))):
            with tracer.span("engine.execute", job=job.label()):
                local = _plain(execute(job))
            checks.ok(expected.get(job.key()) == local,
                      f"{job.label()}: server payload differs from "
                      "in-process execute")

    # ----------------------------------------------------------- end to end

    def measure(self, size: Sizing, seed: int,
                checks: Checks) -> dict[str, Measured]:
        tracer = Tracer(self.name, enabled=False)
        jobs = self._jobs(size)
        # A server is long-lived: the round in which its workers compile
        # each program for the first time is warm-up, not a sample.
        _, expected = self._fresh_round(jobs, checks, tracer)
        walls = []
        for index in range(size.serve_rounds):
            order = list(jobs)
            random.Random(f"{seed}:{self.name}:{index}").shuffle(order)
            wall, payloads = self._fresh_round(order, checks, tracer)
            walls.append(wall)
            checks.ok(payloads == expected,
                      "fresh payloads differ between rounds")
        # One client: two threads of one process take turns on the GIL,
        # which makes their latencies bimodal (1.3 or 2.5 ms) and the
        # median a coin toss. The traced run loads the server with two.
        latencies, _ = self._cached_phase(
            jobs, expected, 1, size.serve_cached_ops, seed, checks, tracer)
        self._verify(jobs, expected, size.serve_verify_jobs, seed, checks,
                     tracer)
        cycles = sum(p["result"]["cycles"] for p in expected.values())
        mid = median(walls)
        return {
            "sim_cycles_per_s": Measured(cycles / mid,
                                         [cycles / w for w in walls]),
            "jobs_per_s": Measured(len(jobs) / mid,
                                   [len(jobs) / w for w in walls]),
            "op_p50_ms": Measured(
                median(latencies) * 1e3,
                [median(latencies[i:i + SAMPLE_BLOCK]) * 1e3
                 for i in range(0, len(latencies), SAMPLE_BLOCK)]),
            "paper_err": Measured(speedup_mae(
                _cells(size, jobs, expected), "2w", PAPER_TABLE4)),
        }

    # --------------------------------------------------------------- layers

    def layers(self, size: Sizing, seed: int, checks: Checks,
               tracer: Tracer) -> dict[str, float]:
        out: dict[str, float] = {}
        client = self.client
        jobs = self._jobs(size)
        wall, expected = self._fresh_round(jobs, checks, tracer)  # workers warm
        wall, _ = self._fresh_round(jobs, checks, tracer)
        cells = _cells(size, jobs, expected)
        out["harness.pred_mae_2w"] = sum(
            abs(cell.pred - getattr(PAPER_TABLE4[cell.workload],
                                    f"pred_{cell.units}u_2w"))
            for cell in cells) / len(cells)

        # Serial in-process reference: per-cycle cost of the 2-way
        # out-of-order cores, every payload checked, and the base of
        # fresh_scaling.
        serial = {"scalar": [0.0, 0], "ms8": [0.0, 0], "all": [0.0, 0]}
        for job in jobs:
            with tracer.timed("engine.execute", job=job.label()) as watch:
                local = _plain(execute(job))
            checks.ok(expected.get(job.key()) == local,
                      f"{job.label()}: server payload differs from "
                      "in-process execute")
            kinds = ["all"] + (["scalar"] if job.kind == "scalar" else []) \
                + (["ms8"] if job.units == 8 else [])
            for kind in kinds:
                serial[kind][0] += watch.seconds
                serial[kind][1] += local["result"]["cycles"]
        out["core.scalar_ooo2.us_per_cycle"] = \
            serial["scalar"][0] * 1e6 / serial["scalar"][1]
        out["core.ms8_ooo2.us_per_cycle"] = \
            serial["ms8"][0] * 1e6 / serial["ms8"][1]
        out["server.fresh_scaling"] = \
            (len(jobs) / wall) / (len(jobs) / serial["all"][0])

        # The cached mix, traced, and its span-free twin for overhead.
        latencies, rps = self._cached_phase(
            jobs, expected, CLIENTS, size.serve_cached_ops // CLIENTS, seed,
            checks, tracer)
        ms = [lat * 1e3 for lat in latencies]
        out["server.cached.p90_ms"] = percentile(ms, 90)
        out["server.cached.p99_ms"] = percentile(ms, 99)
        out["server.cached.rps"] = rps
        out["server.submit_cached_ms"] = median(
            s.duration_s for s in tracer.spans
            if s.name == "server.submit" and s.args.get("cached")) * 1e3
        out["server.result_ms"] = \
            median(tracer.durations("server.result")) * 1e3
        block = max(20, size.serve_cached_ops // 10)

        def section(traced: bool) -> None:
            _, problems = self._cached_ops(jobs, expected, block, seed,
                                           Tracer("probe", enabled=traced))
            checks.add(block, problems)

        out[f"perf.trace_overhead.{self.name}"] = \
            trace_overhead(size.probe_repeats, section)
        key = jobs[0].key()
        for metric, span, call in (
                ("server.healthz_ms", "server.healthz", client.health),
                ("server.status_ms", "server.status",
                 lambda: client.status(key))):
            samples = []
            for _ in range(size.micro_ops):
                with tracer.timed(span) as watch:
                    call()
                samples.append(watch.seconds)
            out[metric] = median(samples) * 1e3

        out.update(self._fresh_small(size, checks, tracer))
        out["engine.scheduler.daemon_dispatch_ms"] = \
            _daemon_dispatch_ms(size, checks, tracer)
        counters = client.metrics().get("counters", {})
        for name in ("backpressure_429", "dedup_hits", "requeues",
                     "jobs_failed"):
            out[f"server.{name}"] = counters.get(f"server.{name}", 0)
        return out

    def _fresh_small(self, size: Sizing, checks: Checks,
                     tracer: Tracer) -> dict[str, float]:
        """One small fresh job at a time: gcc on the scalar core."""
        job = scalar_job("gcc")
        local = []
        for _ in range(size.probe_repeats):
            with tracer.timed("engine.execute", job=job.label()) as watch:
                reference = _plain(execute(job))
            local.append(watch.seconds)
        trips = {None: [], FAST_POLL: []}
        for poll, samples in trips.items():
            for _ in range(size.serve_fresh_small):
                wall, payloads = self._fresh_round([job], checks, tracer,
                                                   poll=poll)
                checks.ok(payloads.get(job.key()) == reference,
                          "fresh-small payload differs from in-process")
                samples.append(wall * 1e3)
        default, fast = trips[None], trips[FAST_POLL]
        tail = tail_percentile(len(default)) or 80
        return {
            "server.fresh.p50_ms": median(default),
            "server.fresh.p80_ms": percentile(default, tail),
            "server.dispatch_ms": median(fast) - median(local) * 1e3,
            "server.client_poll_wait_ms": median(default) - median(fast),
        }


def _cells(size: Sizing, jobs, payloads: dict) -> list:
    """Speedup and prediction accuracy per (kernel, units) from the
    server's payloads."""
    results = {(job.workload, job.kind, job.units): payloads[job.key()]["result"]
               for job in jobs}
    cells = []
    for kernel in size.serve_kernels:
        scalar = results[(kernel, "scalar", 1)]["cycles"]
        for units in (4, 8):
            multi = results[(kernel, "multiscalar", units)]
            cells.append(SimpleNamespace(
                workload=kernel, units=units,
                speedup=scalar / multi["cycles"],
                pred=100.0 * multi["prediction_accuracy"]))
    return cells


def _daemon_dispatch_ms(size: Sizing, checks: Checks,
                        tracer: Tracer) -> float:
    """Wall per no-op job through a WorkerDaemon of two workers."""
    settled: list[JobOutcome] = []
    daemon = WorkerDaemon(_noop, workers=2,
                          on_settled=lambda key, outcome:
                          settled.append(outcome)).start()
    try:
        with tracer.timed("engine.scheduler.daemon.noop") as watch:
            for index in range(size.micro_ops):
                daemon.submit(QueuedJob(job_id=str(index), payload=index))
            idle = daemon.wait_idle(timeout=60)
    finally:
        daemon.shutdown()
    checks.ok(idle and len(settled) == size.micro_ops
              and all(o.ok for o in settled),
              f"daemon settled {len(settled)} of {size.micro_ops} no-op jobs")
    return watch.seconds * 1e3 / size.micro_ops

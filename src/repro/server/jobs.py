"""The server's job model: one submission envelope, content-addressed.

A :class:`ServerJob` wraps one of three work kinds behind a uniform
``{"type": ..., "spec": {...}}`` envelope:

* ``sim`` — a timing/count simulation; the spec is exactly
  :meth:`repro.engine.job.SimJob.spec`, and the server key **is**
  ``SimJob.key()`` — so anything a standalone ``repro sweep`` already
  cached is an instant hit for a server client, and vice versa;
* ``fuzz`` — one differential-oracle check (the same seeded payload
  ``repro fuzz`` hands its local pool);
* ``trace`` — run one registered workload with the structured event
  bus attached and return the Chrome trace-event JSON plus metrics.

Fuzz and trace keys hash the canonical envelope together with the
simulator's :func:`~repro.engine.job.code_fingerprint`, so — like sim
jobs — their cached results self-invalidate when the simulator
changes. :func:`execute_server_job` is the daemon worker entrypoint:
module-level (picklable), checkpoint-aware for sim jobs, and reporting
progress through the daemon's heartbeat callback.
"""

from __future__ import annotations

import hashlib
import json

from repro.engine.job import SimJob, code_fingerprint, execute

#: Bump when the envelope or key recipe changes incompatibly.
SERVER_JOB_SCHEMA_VERSION = 1

JOB_TYPES = ("sim", "fuzz", "trace")


class BadJobError(ValueError):
    """A submission envelope that cannot be turned into work (HTTP 400)."""


class ServerJob:
    """One validated submission: ``type`` plus its JSON ``spec``."""

    def __init__(self, type: str, spec: dict) -> None:
        if type not in JOB_TYPES:
            raise BadJobError(f"unknown job type {type!r} "
                              f"(one of: {', '.join(JOB_TYPES)})")
        if not isinstance(spec, dict):
            raise BadJobError("job spec must be a JSON object")
        self.type = type
        self.spec = spec
        if type == "sim":
            try:
                self._sim = SimJob.from_spec(spec)
            except (TypeError, ValueError, KeyError) as exc:
                raise BadJobError(f"bad sim spec: {exc}") from None
        elif type == "fuzz":
            missing = {"seed", "index", "languages", "grid"} - set(spec)
            if missing:
                raise BadJobError(
                    f"fuzz spec missing {sorted(missing)}")
        else:
            from repro.workloads import WORKLOADS

            workload = spec.get("workload")
            if workload not in WORKLOADS:
                raise BadJobError(
                    f"trace spec needs a registered workload, "
                    f"not {workload!r}")

    @classmethod
    def from_envelope(cls, data) -> "ServerJob":
        """Validate a raw submission body into a job."""
        if not isinstance(data, dict):
            raise BadJobError("submission body must be a JSON object")
        return cls(str(data.get("type", "")), data.get("spec"))

    def sim_job(self) -> SimJob | None:
        """The underlying :class:`SimJob` for ``sim`` envelopes."""
        return self._sim if self.type == "sim" else None

    # ---------------------------------------------------------- identity

    def key(self) -> str:
        """Content-addressed key; shared with the sweep engine for
        ``sim`` jobs, fingerprint-salted for the other types."""
        if self.type == "sim":
            return self._sim.key()
        material = {
            "schema": SERVER_JOB_SCHEMA_VERSION,
            "code": code_fingerprint(),
            "type": self.type,
            "spec": self.spec,
        }
        blob = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def label(self) -> str:
        """Short human-readable name for logs and status records."""
        if self.type == "sim":
            return self._sim.label()
        if self.type == "fuzz":
            return (f"fuzz:seed{self.spec.get('seed')}"
                    f":#{self.spec.get('index')}")
        return (f"trace:{self.spec.get('workload')}"
                f":{self.spec.get('units', 4)}u")

    def describe(self) -> dict:
        """What the store records next to the payload."""
        if self.type == "sim":
            return self._sim.describe()
        return {"type": self.type, "spec": self.spec}


# --------------------------------------------------------------- execution

def _execute_trace(spec: dict) -> dict:
    """Run one workload with the event bus attached; return the
    Perfetto-loadable trace plus run metrics as a JSON payload."""
    from repro.config import multiscalar_config, scalar_config
    from repro.core import MultiscalarProcessor, ScalarProcessor
    from repro.observability import Category, EventBus, chrome_trace
    from repro.observability.metrics import collect_metrics
    from repro.workloads import WORKLOADS

    workload = spec["workload"]
    units = int(spec.get("units", 4))
    issue = int(spec.get("issue_width", 1))
    ooo = bool(spec.get("out_of_order", False))
    max_cycles = int(spec.get("max_cycles", 20_000_000))
    categories = Category.parse(spec.get("categories", "all"))
    window = spec.get("window")
    window = tuple(window) if window else None
    wl = WORKLOADS[workload]
    if units > 1:
        processor = MultiscalarProcessor(
            wl.multiscalar_program(), multiscalar_config(units, issue, ooo))
        label = f"{workload}:ms{units}"
    else:
        processor = ScalarProcessor(
            wl.scalar_program(), scalar_config(issue, ooo))
        label = f"{workload}:scalar"
    bus = EventBus(categories, window=window).attach(processor)
    result = processor.run(max_cycles=max_cycles)
    trace = chrome_trace(bus, num_units=units if units > 1 else 1,
                         total_cycles=result.cycles, label=label)
    return {"type": "trace", "cycles": result.cycles,
            "events": len(bus.events), "trace": trace,
            "metrics": collect_metrics(processor).to_dict()}


def execute_server_job(payload, attempt: int, progress) -> dict:
    """Daemon worker entrypoint for every server job type.

    ``payload`` is ``(envelope_dict, CheckpointPolicy | None)``;
    ``progress`` is the daemon's heartbeat/progress callback. Sim jobs
    checkpoint through the policy and therefore resume mid-run when a
    previous attempt's worker was killed.
    """
    envelope, policy = payload
    job = ServerJob.from_envelope(envelope)
    if job.type == "sim":
        return execute(job.sim_job(), checkpoints=policy,
                       attempt=attempt, progress=progress)
    if job.type == "fuzz":
        from repro.difftest.campaign import check_entry

        return {"type": "fuzz", "check": check_entry(dict(job.spec),
                                                     attempt)}
    return _execute_trace(job.spec)

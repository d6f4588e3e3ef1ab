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
module-level (picklable), with the pool's ``fn(payload, attempt)``
signature.
"""

from __future__ import annotations

import hashlib
import json

from repro.engine.job import (
    DEFAULT_MAX_CYCLES,
    SimJob,
    code_fingerprint,
    execute,
)

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
            self._trace_job(spec)

    def _trace_job(self, spec: dict) -> None:
        """Check a ``trace`` spec as a ``sim`` spec is checked: its
        machine becomes a :class:`SimJob` (multiscalar above one unit),
        and its ``categories`` and ``window`` are parsed, so a spec
        that cannot run fails here with HTTP 400, not in a worker."""
        from repro.observability import Category
        from repro.workloads import WORKLOADS

        workload = spec.get("workload")
        if workload not in WORKLOADS:
            raise BadJobError(
                f"trace spec needs a registered workload, "
                f"not {workload!r}")
        try:
            units = spec.get("units", 4)
            self._sim = SimJob(
                kind="multiscalar" if units > 1 else "scalar",
                workload=workload, units=units,
                issue_width=spec.get("issue_width", 1),
                out_of_order=spec.get("out_of_order", False),
                max_cycles=spec.get("max_cycles", DEFAULT_MAX_CYCLES))
            self._categories = Category.parse(spec.get("categories", "all"))
            self._window = spec.get("window") or None
            if self._window is not None:
                start, end = self._window
                if not (type(start) is type(end) is int and start < end):
                    raise ValueError("window must be [start, end] cycles "
                                     "with end after start")
                self._window = (start, end)
        except (AttributeError, TypeError, ValueError) as exc:
            raise BadJobError(f"bad trace spec: {exc}") from None

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

def _execute_trace(job: ServerJob) -> dict:
    """Run one workload with the event bus attached; return the
    Perfetto-loadable trace plus run metrics as a JSON payload."""
    from repro.observability import EventBus, chrome_trace
    from repro.observability.metrics import collect_metrics

    sim = job._sim
    processor = sim.processor(sim.program()[0])
    bus = EventBus(job._categories, window=job._window).attach(processor)
    result = processor.run(max_cycles=sim.max_cycles)
    label = f"{sim.workload}:" \
        + (f"ms{sim.units}" if sim.kind == "multiscalar" else "scalar")
    trace = chrome_trace(bus, num_units=sim.units, total_cycles=result.cycles,
                         label=label)
    return {"type": "trace", "cycles": result.cycles,
            "events": len(bus.events), "trace": trace,
            "metrics": collect_metrics(processor).to_dict()}


def execute_server_job(payload: dict, attempt: int) -> dict:
    """Daemon worker entrypoint for every server job type.

    ``payload`` is the submission envelope. A sim job whose previous
    attempt's worker was killed runs again from cycle 0.
    """
    job = ServerJob.from_envelope(payload)
    if job.type == "sim":
        return execute(job.sim_job())
    if job.type == "fuzz":
        from repro.difftest.campaign import check_entry

        return {"type": "fuzz", "check": check_entry(dict(job.spec),
                                                     attempt)}
    return _execute_trace(job)

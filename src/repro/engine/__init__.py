"""``repro.engine`` — sharded parallel simulation job engine.

Layers:

* :mod:`repro.engine.job` — the content-addressed job model
  (:class:`SimJob`) and in-process execution;
* :mod:`repro.engine.store` — the persistent on-disk result store;
* :mod:`repro.engine.scheduler` — the fault-tolerant one-shot worker
  pool, plus the long-lived discipline behind ``repro serve``: the
  priority :class:`LeaseQueue` and the persistent
  :class:`WorkerDaemon` fleet that drains it under heartbeat-renewed
  leases;
* :mod:`repro.engine.resolve` — the one path from a list of jobs to
  payloads plus accounting, over a local pool or ``repro serve``;
* :mod:`repro.engine.sweep` — grid sweeps combining all four.

The one-job convenience path used by the harness runner is
:func:`~repro.engine.job.execute_cached`: it consults the persistent
store, simulates on a miss, persists the fresh payload, and returns
the native result object.

Names resolve on first use: reaching for :class:`ResultStore` or
:class:`SimJob` loads neither the scheduler nor the simulator.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "InjectedWorkerDeath",
    "JobOutcome",
    "Lease",
    "LeaseQueue",
    "PoolJob",
    "QueueFullError",
    "QueuedJob",
    "QuotaExceededError",
    "ResultStore",
    "RetryableJobError",
    "SimJob",
    "SimulationMismatchError",
    "WorkerDaemon",
    "WorkerPool",
    "code_fingerprint",
    "count_job",
    "default_cache_dir",
    "execute",
    "execute_cached",
    "multiscalar_job",
    "persistent_cache_enabled",
    "priority_value",
    "result_from_payload",
    "scalar_job",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "job": (
        "SimJob", "SimulationMismatchError", "code_fingerprint", "count_job",
        "execute", "execute_cached", "multiscalar_job",
        "result_from_payload", "scalar_job",
    ),
    "scheduler": (
        "InjectedWorkerDeath", "JobOutcome", "Lease", "LeaseQueue", "PoolJob",
        "QueuedJob", "QueueFullError", "QuotaExceededError",
        "RetryableJobError", "WorkerDaemon", "WorkerPool", "priority_value",
    ),
    "store": ("ResultStore", "default_cache_dir", "persistent_cache_enabled"),
})


"""Simulation-as-a-service: an asyncio job API over the worker daemon.

``python -m repro serve`` turns the repository's batch engine into a
long-lived service. Clients POST content-addressed job envelopes
(``sim``/``fuzz``/``trace``) to ``/v1/jobs``; the
:class:`~repro.server.app.ReproServer` answers cache hits instantly
from the shared :class:`~repro.engine.store.ResultStore`, and queues
everything else onto the leased
:class:`~repro.engine.scheduler.WorkerDaemon` — priority classes,
per-client quotas, and leases renewed while the worker lives that
requeue the job (to run again from the start) on worker death. Standalone
``repro sweep``/``repro fuzz`` keep working unchanged; pass
``--server URL`` to run the same commands as thin clients of a shared
fleet. See ``docs/SERVER.md`` for the endpoint and lifecycle contract.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BadJobError",
    "JOB_TYPES",
    "JobRecord",
    "ReproServer",
    "ServerClient",
    "ServerError",
    "ServerJob",
    "execute_server_job",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "app": ("JobRecord", "ReproServer"),
    "client": ("ServerClient", "ServerError"),
    "jobs": ("JOB_TYPES", "BadJobError", "ServerJob", "execute_server_job"),
})

"""Periodic on-disk checkpoints of a running machine.

A :class:`CheckpointManager` is the ``checkpointer`` object the
processors' run loop understands (``next_cycle`` attribute plus a
``capture(processor)`` method). Every ``every`` simulated cycles it
snapshots the whole machine through
:mod:`repro.resilience.snapshot` and atomically persists the envelope
(write + fsync + ``os.replace``, with a payload checksum) to
``<directory>/<key>.ckpt.json``.

The job engine does not use it: a job is deterministic, so a killed
job simply runs again from cycle 0. It stays as the probe the
benchmark times (``resilience.checkpoint_overhead``), and a snapshot
it wrote restores through :func:`~repro.resilience.snapshot.restore_state`.
"""

from __future__ import annotations

from pathlib import Path

from repro.resilience import atomio
from repro.resilience.snapshot import capture_state

#: Bump when the on-disk checkpoint envelope changes incompatibly.
CHECKPOINT_SCHEMA_VERSION = 1


class CheckpointManager:
    """Periodic whole-machine checkpoints for one job key."""

    def __init__(self, directory: Path | str, key: str,
                 every: int = 2_000_000) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be at least 1 "
                             f"cycle, not {every}")
        self.directory = Path(directory)
        self.key = key
        self.every = every
        self.path = self.directory / f"{key}.ckpt.json"
        #: First cycle at or past which the run loop calls capture().
        #: The run loop clamps cycle skips and compiled jit windows to
        #: this boundary, so (unless the program halts first) capture
        #: lands on exactly this cycle in every execution mode.
        self.next_cycle = self.every

    def capture(self, processor) -> None:
        """Snapshot ``processor`` and persist it atomically."""
        snapshot = capture_state(processor)
        envelope = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "key": self.key,
            "cycle": processor.cycle,
            "checksum": atomio.payload_checksum(snapshot),
            "payload": snapshot,
        }
        atomio.atomic_write_json(self.path, envelope)
        self.next_cycle = processor.cycle + self.every

"""Periodic on-disk checkpoints and the engine's resume protocol.

A :class:`CheckpointManager` is the ``checkpointer`` object the
processors' run loop understands (``next_cycle`` attribute plus a
``capture(processor)`` method). Every ``every`` simulated cycles it
snapshots the whole machine through
:mod:`repro.resilience.snapshot` and atomically persists the envelope
(write + fsync + ``os.replace``, with a payload checksum) to
``<directory>/<key>.ckpt.json``. A crashed or SIGKILLed job resumes
from its last good checkpoint via :meth:`CheckpointManager.resume`;
truncated or corrupt checkpoint files fail their checksum and are
treated as absent (warned once), so the worst case is re-simulating
from cycle 0 — never wrong results.

:class:`CheckpointPolicy` is the frozen, picklable description of the
checkpoint discipline that a parent process ships to pool workers
alongside each job.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.resilience import atomio
from repro.resilience.snapshot import (
    SnapshotError,
    capture_state,
    restore_state,
)

#: Bump when the on-disk checkpoint envelope changes incompatibly.
CHECKPOINT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckpointPolicy:
    """How (and whether) workers checkpoint long jobs.

    Frozen and built from plain values so it pickles under any
    multiprocessing start method.
    """

    directory: str
    every: int = 2_000_000
    keep: bool = False
    #: Chaos injection: attempts on which the worker dies right after
    #: persisting its first checkpoint (proving resume correctness).
    kill_after_checkpoint_on_attempts: tuple[int, ...] = ()


class CheckpointManager:
    """Periodic whole-machine checkpoints for one job key."""

    def __init__(self, directory: Path | str, key: str,
                 every: int = 2_000_000) -> None:
        self.directory = Path(directory)
        self.key = key
        self.every = max(1, every)
        self.path = self.directory / f"{key}.ckpt.json"
        #: First cycle at or past which the run loop calls capture().
        #: The run loop clamps cycle skips and compiled jit windows to
        #: this boundary, so (unless the program halts first) capture
        #: lands on exactly this cycle in every execution mode.
        self.next_cycle = self.every
        #: Cycle of the last persisted checkpoint (None before any).
        self.saved_cycle: int | None = None
        #: Chaos switch: die immediately after the next capture.
        self.die_after_capture = False
        #: Optional observer called with the cycle of each durable
        #: checkpoint — the server daemon turns it into a lease
        #: heartbeat + progress event.
        self.on_capture = None

    # ----------------------------------------------------------- capture

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
        self.saved_cycle = processor.cycle
        self.next_cycle = processor.cycle + self.every
        if self.on_capture is not None:
            self.on_capture(processor.cycle)
        if self.die_after_capture:
            self.die_after_capture = False
            self._die()

    @staticmethod
    def _die() -> None:
        """Chaos injection: simulate a crash after a durable checkpoint.

        In a daemonized pool worker this is a real SIGKILL (no cleanup,
        no Python teardown — exactly the crash being modelled). In a
        serial in-process run a SIGKILL would take the harness down, so
        it degrades to the pool's retryable stand-in exception.
        """
        import multiprocessing
        import signal

        if multiprocessing.current_process().daemon:
            os.kill(os.getpid(), signal.SIGKILL)
        from repro.engine.scheduler import InjectedWorkerDeath

        raise InjectedWorkerDeath(
            "injected worker death after checkpoint")

    # ------------------------------------------------------------ resume

    def load_snapshot(self) -> dict | None:
        """The last good checkpoint's snapshot, or None.

        Missing files are silent; truncated/corrupt/mismatched files
        warn once and read as absent.
        """
        envelope = atomio.read_json(self.path)
        if envelope is None:
            return None
        if not isinstance(envelope, dict) \
                or envelope.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            atomio.warn_corrupt_once(self.path, "unknown checkpoint schema")
            return None
        if envelope.get("key") != self.key:
            atomio.warn_corrupt_once(self.path, "checkpoint key mismatch")
            return None
        if "checksum" not in envelope:
            atomio.warn_corrupt_once(self.path, "checkpoint missing checksum")
            return None
        if not atomio.verify_envelope(self.path, envelope):
            return None
        payload = envelope.get("payload")
        return payload if isinstance(payload, dict) else None

    def resume(self, processor) -> bool:
        """Restore ``processor`` from the last good checkpoint.

        Returns True when the processor now continues mid-run; False
        (after at most one warning) when there is nothing usable and
        the run must start from cycle 0.
        """
        snapshot = self.load_snapshot()
        if snapshot is None:
            return False
        try:
            restore_state(processor, snapshot)
        except SnapshotError as exc:
            atomio.warn_corrupt_once(self.path, str(exc))
            return False
        self.saved_cycle = processor.cycle
        self.next_cycle = processor.cycle + self.every
        return True

    def discard(self) -> None:
        """Delete the checkpoint file (job finished cleanly)."""
        try:
            self.path.unlink()
        except OSError:
            pass

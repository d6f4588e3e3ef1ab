"""Atomic, checksummed persistence — the one write path for every
file the repository stores durably (result-store entries,
checkpoints).

* :func:`atomic_write_text` writes through a same-directory temp file,
  flushes, ``fsync``\\ s, then ``os.replace``\\ s, so a crash (or a
  SIGKILLed worker) can never leave a half-written file where a reader
  might find it.
* :func:`payload_checksum` hashes the canonical JSON form of a
  payload; envelopes store it next to the payload so truncation or
  bit-rot is *detected* rather than silently deserialized.
* :func:`warn_corrupt_once` logs one warning per corrupt path per
  process — corrupt files are treated as absent, but never silently.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

log = logging.getLogger("repro.resilience")

#: Paths already warned about in this process (corrupt files are
#: re-read on every miss; one log line per file is plenty).
_warned_paths: set[str] = set()


def canonical_json(payload) -> str:
    """Deterministic JSON text for ``payload`` (checksum input)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def atomic_write_text(path: Path | str, text: str) -> None:
    """Durably replace ``path`` with ``text`` (temp file + fsync +
    ``os.replace``); creates parent directories as needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:12]}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: Path | str, obj) -> None:
    atomic_write_text(path, json.dumps(obj))


def warn_corrupt_once(path: Path | str, reason: str) -> None:
    """Log one warning for a corrupt persistent file (then treat it as
    absent). Subsequent reads of the same path stay quiet."""
    key = str(path)
    if key in _warned_paths:
        return
    _warned_paths.add(key)
    log.warning("corrupt persistent file treated as absent: %s (%s)",
                key, reason)


def read_json(path: Path | str):
    """Parse ``path`` as JSON.

    Returns ``None`` when the file does not exist (silently) or cannot
    be parsed (with a one-time warning).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        warn_corrupt_once(path, f"unreadable: {exc}")
        return None
    try:
        return json.loads(text)
    except ValueError as exc:
        warn_corrupt_once(path, f"invalid JSON: {exc}")
        return None


def verify_envelope(path: Path | str, envelope) -> bool:
    """Check an envelope's ``checksum`` field against its ``payload``.

    Envelopes without a checksum (files written before the field
    existed) pass; a present-but-wrong checksum warns once and fails.
    """
    if not isinstance(envelope, dict):
        return False
    checksum = envelope.get("checksum")
    if checksum is None:
        return True
    if payload_checksum(envelope.get("payload")) != checksum:
        warn_corrupt_once(path, "checksum mismatch")
        return False
    return True

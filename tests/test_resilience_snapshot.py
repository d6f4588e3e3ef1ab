"""Bit-identical checkpoint/resume across the whole machine matrix.

The contract under test: capture the complete machine state at an
arbitrary cycle K, rebuild a *fresh* processor from that snapshot, run
both to completion, and get byte-for-byte identical results — cycle
counts, stall distributions, program output, and final machine state.
Snapshots go through a real JSON round trip, so anything that would not
survive the on-disk format fails here too.
"""

import json

import pytest

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.resilience import (
    SNAPSHOT_SCHEMA_VERSION,
    CheckpointManager,
    SnapshotError,
    capture_state,
    restore_state,
)
from repro.workloads import WORKLOADS

MACHINES = ("scalar", "ms4", "ms8")

#: Execution modes: (fast_path, jit). The reference path never builds
#: a jit engine regardless of the flag, and neither does a multiscalar
#: machine (the JIT serves the scalar core only): on ms4/ms8 the "jit"
#: and "no-jit" rows are the same interpreter under both values of a
#: config field that must stay inert there.
MODES = {"jit": (True, True),
         "no-jit": (True, False),
         "reference": (False, True)}


def build(machine: str, workload: str, fast: bool, jit: bool = True):
    spec = WORKLOADS[workload]
    if machine == "scalar":
        return ScalarProcessor(
            spec.scalar_program(),
            scalar_config(1, False, fast_path=fast, jit=jit))
    units = int(machine[2:])
    return MultiscalarProcessor(
        spec.multiscalar_program(),
        multiscalar_config(units, 1, False, fast_path=fast, jit=jit))


class Probe:
    """A checkpointer that captures once at/after a target cycle and
    forces the snapshot through a JSON round trip."""

    def __init__(self, at: int) -> None:
        self.next_cycle = at
        self.snapshot = None
        self.cycle = None

    def capture(self, processor) -> None:
        self.snapshot = json.loads(json.dumps(capture_state(processor)))
        self.cycle = processor.cycle
        self.next_cycle = 10 ** 18


class ConditionProbe:
    """Capture the first post-step state satisfying a predicate."""

    def __init__(self, condition) -> None:
        self.next_cycle = 1
        self.condition = condition
        self.snapshot = None
        self.cycle = None

    def capture(self, processor) -> None:
        if self.condition(processor):
            self.snapshot = json.loads(
                json.dumps(capture_state(processor)))
            self.cycle = processor.cycle
            self.next_cycle = 10 ** 18
        else:
            self.next_cycle = processor.cycle + 1


def resume_and_compare(machine, workload, fast, probe, jit=True):
    """Reference run with ``probe`` attached; resume a fresh machine
    from the captured snapshot; demand identical results and identical
    final machine state."""
    reference = build(machine, workload, fast, jit)
    ref_result = reference.run(checkpointer=probe)
    assert probe.snapshot is not None, "probe never captured"

    resumed = build(machine, workload, fast, jit)
    restore_state(resumed, probe.snapshot)
    assert resumed.cycle == probe.cycle
    res_result = resumed.run()

    assert res_result.to_dict() == ref_result.to_dict()
    assert res_result.output == ref_result.output
    assert capture_state(resumed) == capture_state(reference)


@pytest.mark.parametrize("mode", tuple(MODES))
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("workload", ("wc", "cmp"))
def test_resume_matrix(workload, machine, mode):
    fast, jit = MODES[mode]
    total = build(machine, workload, fast, jit).run().cycles
    resume_and_compare(machine, workload, fast, Probe(at=total // 2),
                       jit=jit)


@pytest.mark.parametrize("machine", ("scalar", "ms4"))
def test_snapshots_are_mode_portable(machine):
    """A snapshot captured mid-run under the jit lands on a deopt-safe
    boundary: restoring it into a ``jit=False`` interpreter (and vice
    versa) finishes with identical results. Compiled windows stop at
    checkpoint cycles, so the capture cycle matches across modes. On
    ms4, where the field selects nothing, the same holds trivially."""
    results = {}
    for source_jit in (True, False):
        total = build(machine, "wc", True, source_jit).run().cycles
        probe = Probe(at=total // 2)
        donor = build(machine, "wc", True, source_jit)
        donor_result = donor.run(checkpointer=probe)
        resumed = build(machine, "wc", True, not source_jit)
        restore_state(resumed, probe.snapshot)
        assert resumed.cycle == probe.cycle
        assert resumed.run().to_dict() == donor_result.to_dict()
        results[source_jit] = (probe.cycle, probe.snapshot)
    # The two donors captured the same state at the same cycle.
    assert results[True] == results[False]


@pytest.mark.parametrize("quarter", (1, 2, 3))
def test_resume_at_various_cycles(quarter):
    total = build("ms4", "wc", True).run().cycles
    resume_and_compare("ms4", "wc", True,
                       Probe(at=max(1, total * quarter // 4)))


def test_resume_every_bundled_workload():
    """One configuration, every workload in the repository."""
    for name in WORKLOADS:
        total = build("ms4", name, True).run().cycles
        resume_and_compare("ms4", name, True, Probe(at=total // 2))


def test_resume_with_arb_occupied():
    """Checkpoint while speculative stores/loads sit in the ARB."""
    probe = ConditionProbe(lambda p: p.arb.entry_count() > 0)
    resume_and_compare("ms8", "wc", True, probe)
    assert probe.snapshot["state"]["arb"]["entries"]


def test_resume_just_after_a_squash():
    """Checkpoint at the first post-squash cycle, while the machine is
    still digesting the recovery (freed units, retired-outgoing pools,
    predictor state)."""
    probe = ConditionProbe(
        lambda p: p.tasks_squashed > 0 and p.active)
    resume_and_compare("ms8", "example", True, probe)
    assert probe.snapshot["state"]["tasks_squashed"] > 0


def test_capture_has_no_side_effects():
    """A run observed by frequent captures is cycle-identical to an
    unobserved one."""
    silent = build("ms4", "wc", True).run()

    class Every:
        next_cycle = 1

        def capture(self, processor):
            capture_state(processor)
            self.next_cycle = processor.cycle + 250

    observed = build("ms4", "wc", True).run(checkpointer=Every())
    assert observed.to_dict() == silent.to_dict()


def test_restore_rejects_wrong_shape():
    processor = build("ms4", "wc", True)
    snapshot = capture_state(processor)
    with pytest.raises(SnapshotError):
        restore_state(processor, "not a mapping")
    with pytest.raises(SnapshotError):
        restore_state(processor, {**snapshot,
                                  "schema": SNAPSHOT_SCHEMA_VERSION + 1})
    with pytest.raises(SnapshotError):
        restore_state(processor, {**snapshot, "machine": "scalar"})
    with pytest.raises(SnapshotError):
        restore_state(build("ms8", "wc", True), snapshot)


# --------------------------------------------------- CheckpointManager

KEY = "ab" + "0" * 62


def test_checkpoint_manager_roundtrip(tmp_path):
    reference = build("ms4", "wc", True)
    manager = CheckpointManager(tmp_path, KEY, every=3_000)
    ref_result = reference.run(checkpointer=manager)
    assert manager.saved_cycle is not None
    assert manager.path.is_file()

    resumed = build("ms4", "wc", True)
    assert CheckpointManager(tmp_path, KEY).resume(resumed) is True
    assert resumed.cycle == manager.saved_cycle
    assert resumed.run().to_dict() == ref_result.to_dict()

    manager.discard()
    assert not manager.path.exists()
    assert CheckpointManager(tmp_path, KEY).resume(
        build("ms4", "wc", True)) is False


def test_truncated_checkpoint_reads_as_absent(tmp_path):
    processor = build("ms4", "wc", True)
    manager = CheckpointManager(tmp_path, KEY, every=3_000)
    processor.run(checkpointer=manager)
    raw = manager.path.read_bytes()
    manager.path.write_bytes(raw[: len(raw) // 2])
    fresh = CheckpointManager(tmp_path, KEY)
    assert fresh.load_snapshot() is None
    assert fresh.resume(build("ms4", "wc", True)) is False


def test_checkpoint_key_mismatch_reads_as_absent(tmp_path):
    processor = build("ms4", "wc", True)
    manager = CheckpointManager(tmp_path, KEY, every=3_000)
    processor.run(checkpointer=manager)
    other = "cd" + "1" * 62
    manager.path.rename(tmp_path / f"{other}.ckpt.json")
    assert CheckpointManager(tmp_path, other).load_snapshot() is None

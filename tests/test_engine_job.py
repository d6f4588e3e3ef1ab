"""Tests for the engine's content-addressed job model."""

import importlib.util
from pathlib import Path

import pytest

from repro.engine import job as job_mod
from repro.engine.job import (
    SimJob,
    SimulationMismatchError,
    count_job,
    execute,
    multiscalar_job,
    result_from_payload,
    scalar_job,
)

NAME = "cmp"
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_key_is_deterministic_and_hex():
    a = multiscalar_job(NAME, units=4)
    b = multiscalar_job(NAME, units=4)
    assert a.key() == b.key()
    assert len(a.key()) == 64
    int(a.key(), 16)   # raises if not hex


def test_key_separates_every_config_axis():
    keys = {
        multiscalar_job(NAME, 4, 1, False).key(),
        multiscalar_job(NAME, 8, 1, False).key(),
        multiscalar_job(NAME, 4, 2, False).key(),
        multiscalar_job(NAME, 4, 1, True).key(),
        multiscalar_job("wc", 4, 1, False).key(),
        scalar_job(NAME).key(),
        count_job(NAME, annotated=False).key(),
        count_job(NAME, annotated=True).key(),
    }
    assert len(keys) == 8


def test_key_depends_on_code_fingerprint(monkeypatch):
    before = scalar_job(NAME).key()
    monkeypatch.setattr(job_mod, "code_fingerprint",
                        lambda: "another-simulator-version")
    assert scalar_job(NAME).key() != before


def test_key_depends_on_max_cycles():
    assert scalar_job(NAME).key() != \
        scalar_job(NAME, max_cycles=1_000).key()


def test_inline_source_key_tracks_source_text():
    a = SimJob(kind="scalar", workload=None,
               source="void main() { print_int(1); }")
    b = SimJob(kind="scalar", workload=None,
               source="void main() { print_int(2); }")
    assert a.key() != b.key()


def test_job_validation():
    with pytest.raises(ValueError):
        SimJob(kind="warp", workload=NAME)
    with pytest.raises(ValueError):
        SimJob(kind="scalar")                        # no program at all
    with pytest.raises(ValueError):
        SimJob(kind="scalar", workload=NAME, source="x")   # both
    # Machines that cannot exist: a worker would spin to the livelock
    # deadline (no units) or time out at once (no budget); a ring hop
    # below 1 simulated hop 1 under a key of its own, an empty ARB ran,
    # and an empty bank or history table (or a string hop) died inside
    # the simulator.
    for axes, message in (({"units": 0}, "units must be at least 1"),
                          ({"units": -1}, "units must be at least 1"),
                          ({"issue_width": 3}, "issue_width must be 1 or 2"),
                          ({"max_cycles": 0}, "max_cycles must be at least"),
                          ({"ring_hop": 0}, "ring_hop must be an int >= 1"),
                          ({"ring_hop": -1}, "ring_hop must be an int"),
                          ({"ring_hop": -5}, "ring_hop must be an int"),
                          ({"ring_hop": "1"}, "ring_hop must be an int"),
                          ({"ring_hop": True}, "ring_hop must be an int"),
                          ({"arb_entries": 0}, "arb_entries must be an int"),
                          ({"arb_entries": -3}, "arb_entries must be an int"),
                          ({"arb_entries": 1.5}, "arb_entries must be an int"),
                          ({"dcache_bank_kb": 0}, "dcache_bank_kb must be"),
                          ({"pred_history": 0}, "pred_history must be"),
                          ({"pred_pattern": 0}, "pred_pattern must be"),
                          ({"arb_full_policy": "drop"},
                           "arb_full_policy must be 'squash' or 'stall'"),
                          ({"predictor_static": 1},
                           "predictor_static must be False or True"),
                          ({"shared_fp_units": "yes"},
                           "shared_fp_units must be False or True")):
        with pytest.raises(ValueError, match=message):
            SimJob(kind="multiscalar", workload=NAME, **axes)
    # Types are checked too: a bool is no int and an int no bool. A
    # 1-way job spelled ``issue_width=True`` was keyed apart from
    # ``issue_width=1``, ``out_of_order="no"`` ran out of order, and a
    # fractional unit count failed only inside a worker.
    for kind, fields, message in (
            ("scalar", {"issue_width": True}, "issue_width must be an int"),
            ("multiscalar", {"units": 2.5}, "units must be an int"),
            ("multiscalar", {"units": True}, "units must be an int"),
            ("scalar", {"max_cycles": 1e6}, "max_cycles must be an int"),
            ("scalar", {"out_of_order": "no"},
             "out_of_order must be False or True"),
            ("scalar", {"out_of_order": 0},
             "out_of_order must be False or True"),
            ("scalar", {"fast_path": 1}, "fast_path must be False or True"),
            ("scalar", {"jit": None}, "jit must be False or True"),
            ("count", {"annotated": "yes"},
             "annotated must be False or True")):
        with pytest.raises(ValueError, match=message):
            SimJob(kind=kind, workload=NAME, **fields)
    # Only MinC and assembly compile; anything else used to compile as
    # MinC under a key of its own.
    with pytest.raises(ValueError, match="language must be 'minic' or 'asm'"):
        SimJob(kind="scalar", source="void main() {}", language="fortran")


def test_labels_name_every_non_default_axis_and_knob():
    # Paper-default labels are what sweep errors, server records and the
    # benchmark's messages show: they must not change.
    assert multiscalar_job("tomcatv", 8).label() == "tomcatv:ms:8u-1w-io"
    assert scalar_job(NAME, 2, True).label() == f"{NAME}:scalar:2w-ooo"
    assert count_job(NAME, True).label() == f"{NAME}:count:multi"
    assert SimJob(kind="multiscalar", workload=NAME, units=4, ring_hop=2,
                  loop_cut="all").label() \
        == f"{NAME}:ms:4u-1w-io:ring_hop=2,loop_cut=all"
    # The ARB ablation's five tomcatv jobs used to share one label.
    spec = importlib.util.spec_from_file_location(
        "ablation_arb", BENCHMARKS / "test_ablation_arb.py")
    ablation = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ablation)
    batch = [ablation.job(entries, "squash") for entries in ablation.ENTRIES] \
        + [ablation.job(8, "stall")]
    assert len({job.label() for job in batch}) == len(batch) == 5
    # The simulator knobs key jobs apart, so the labels tell them apart
    # too; the JIT serves the scalar core alone and is named only there.
    assert scalar_job(NAME, fast_path=False).label() \
        == f"{NAME}:scalar:1w-io-ref"
    assert scalar_job(NAME, jit=False).label() == f"{NAME}:scalar:1w-io-nojit"
    assert scalar_job(NAME, fast_path=False, jit=False).label() \
        == f"{NAME}:scalar:1w-io-ref"
    assert multiscalar_job(NAME, 4, fast_path=False).label() \
        == f"{NAME}:ms:4u-1w-io-ref"
    assert multiscalar_job(NAME, 4, jit=False).label() == f"{NAME}:ms:4u-1w-io"


def test_execute_scalar_and_roundtrip():
    payload = execute(scalar_job(NAME))
    assert payload["type"] == "scalar"
    result = result_from_payload(payload)
    assert result.cycles > 0
    assert result.output      # cmp prints something


def test_execute_multiscalar_and_count_agree_with_labels():
    multi = execute(multiscalar_job(NAME, units=2))
    assert multi["type"] == "multiscalar"
    count = execute(count_job(NAME, annotated=True))
    assert count["type"] == "count"
    # Retired (useful) instructions of the timing run match the
    # functional dynamic count of the same binary.
    assert multi["result"]["instructions"] == count["count"]


def test_program_and_processor_are_execute_in_two_halves():
    job = multiscalar_job(NAME, units=2)
    program, expected = job.program()
    result = job.processor(program).run(max_cycles=job.max_cycles)
    assert result.output == expected
    assert result.to_dict() == execute(job)["result"]
    with pytest.raises(ValueError, match="count job"):
        count_job(NAME, annotated=True).processor(program)


def test_execute_inline_minic_source():
    job = SimJob(kind="scalar", workload=None,
                 source="void main() { print_int(6 * 7); }")
    result = result_from_payload(execute(job))
    assert result.output == "42"


def test_mismatch_raises_unconditionally(monkeypatch):
    import dataclasses

    from repro.workloads import WORKLOADS

    bad = dataclasses.replace(WORKLOADS[NAME],
                              expected_output="certainly not this")
    monkeypatch.setitem(WORKLOADS, NAME, bad)
    with pytest.raises(SimulationMismatchError):
        execute(scalar_job(NAME))


def test_result_from_payload_rejects_unknown_type():
    with pytest.raises(ValueError):
        result_from_payload({"type": "tachyonic"})

"""The fast path must be invisible in the results.

The simulator's layered fast path (pre-decoded micro-ops, table-driven
semantics closures, quiescence-aware cycle skipping, per-unit sleep) is
a pure performance optimisation: running any program with
``fast_path=False`` — the plain per-cycle reference interpreter — must
produce an *identical* result dictionary, including the cycle count,
the stall breakdown, and the full CycleDistribution.

These tests pin that contract three ways:

* every bundled workload, scalar and multiscalar, fast vs reference
  (the fast side is the session's one default-mode run per cell,
  ``conftest.grid_run``, shared with ``test_jit_differential`` and
  pinned by ``test_grid_digest``);
* a seeded batch of fuzzer-generated programs, plus the difftest
  oracle/campaign plumbing that carries ``fast_path`` as a grid axis;
* the injection seam: planted semantic bugs force the generic paths so
  differential fuzzing cannot be blinded by the pre-bound closures.
"""

from __future__ import annotations

import pytest

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.difftest import (
    FuzzCampaign,
    check_program,
    generator_for,
    inject_opcode_bug,
)
from repro.difftest.oracle import ProgramInvalid, compile_backends
from repro.isa.opcodes import Op
from repro.workloads import WORKLOADS

from tests.conftest import simulate_cell

WORKLOAD_NAMES = tuple(WORKLOADS)


def _scalar_dict(program, fast_path: bool) -> dict:
    config = scalar_config(fast_path=fast_path)
    return ScalarProcessor(program, config).run().to_dict()


def _multi_dict(program, units: int, fast_path: bool) -> dict:
    config = multiscalar_config(num_units=units, fast_path=fast_path)
    return MultiscalarProcessor(program, config).run().to_dict()


# ------------------------------------------------------- all workloads

def _matches_reference(fast, workload: str, machine: str) -> None:
    reference = simulate_cell(workload, machine, fast_path=False)
    assert fast.result == reference.result
    assert fast.digest == reference.digest


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_scalar_fast_path_matches_reference(name, grid_run):
    _matches_reference(grid_run(name, "scalar"), name, "scalar")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_multiscalar_fast_path_matches_reference(name, grid_run):
    _matches_reference(grid_run(name, "ms4"), name, "ms4")


def test_fast_path_matches_reference_at_eight_units(grid_run):
    # Wider machines exercise the ring, the ARB, and the per-unit sleep
    # wake events harder; one representative case keeps the suite fast.
    _matches_reference(grid_run("cmp", "ms8"), "cmp", "ms8")


# -------------------------------------------------- generated programs

def test_generated_programs_fast_path_matches_reference():
    checked = 0
    for index in range(6):
        language = ("asm", "minic")[index % 2]
        generated = generator_for(language).generate(9000 + index)
        try:
            scalar_bin, multi_bin = compile_backends(generated)
        except ProgramInvalid:
            continue
        assert _scalar_dict(scalar_bin, True) \
            == _scalar_dict(scalar_bin, False)
        assert _multi_dict(multi_bin, 4, True) \
            == _multi_dict(multi_bin, 4, False)
        checked += 1
    assert checked >= 4  # the seeds above are known-good generators


def test_oracle_grid_carries_the_fast_path_axis():
    generated = generator_for("asm").generate(41)
    grid = (
        {"kind": "scalar"},
        {"kind": "scalar", "fast_path": False},
        {"kind": "multiscalar", "units": 4},
        {"kind": "multiscalar", "units": 4, "fast_path": False},
    )
    report = check_program(generated, grid=grid)
    assert report.ok, report.render()
    assert "scalar:1w-io-ref" in report.backends_run
    assert "ms:4u-1w-io-ref" in report.backends_run


def test_campaign_fast_path_axis():
    result = FuzzCampaign(seed=23, budget=6, languages=("asm",),
                          units=(2, 4), widths=(1,), orders=(False,),
                          fast_paths=(True, False)).run()
    assert result.ok, result.report.render()
    assert any(label.endswith("-ref") for label in result.backends_used)


# ------------------------------------------------------ injection seam

def test_injection_disables_the_pre_bound_closures():
    program = WORKLOADS["example"].multiscalar_program()
    with inject_opcode_bug(Op.XOR, backends=frozenset({"multiscalar"})):
        processor = MultiscalarProcessor(program, multiscalar_config())
        assert all(not slot.pipeline._fast for slot in processor.units)
        scalar = ScalarProcessor(WORKLOADS["example"].scalar_program())
        assert not scalar.pipeline._fast
    processor = MultiscalarProcessor(program, multiscalar_config())
    assert all(slot.pipeline._fast for slot in processor.units)


def test_no_fast_path_flag_reaches_the_pipelines():
    program = WORKLOADS["example"].multiscalar_program()
    config = multiscalar_config(fast_path=False)
    processor = MultiscalarProcessor(program, config)
    assert all(not slot.pipeline._fast for slot in processor.units)
    assert not processor._fast

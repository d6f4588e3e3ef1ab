"""The trace-JIT must be invisible in the results.

``repro.jit`` compiles hot straight-line uop sequences into generated
Python bodies that execute many cycles of one unit per call, deopting
back to the interpreter at every irregular boundary. Like the fast path underneath it, the JIT is
a pure performance optimisation: running any program with ``jit=False``
— or with ``fast_path=False``, the per-cycle reference interpreter —
must produce an *identical* result dictionary, including the cycle
count, the stall breakdown, the full CycleDistribution, and the
collected metrics registry.

Pinned here:

* every bundled workload × scalar/ms4/ms8 × jit vs no-jit (results,
  stats, and metrics all bit-identical), with a spot check against the
  ``--no-fast-path`` reference as well — the jit side is the session's
  one default-mode run per cell (``conftest.grid_run``), which
  ``test_grid_digest`` also pins against the committed digests;
* a seeded batch of fuzzer-generated programs through the difftest
  oracle with the ``jit`` backend axis (labels carry ``-nojit``), which
  also diffs *cycle counts* across same-machine backends;
* the engine actually engages (the identity tests are not vacuous) and
  declines ineligible shapes (2-way, out-of-order, no-fast-path);
* the guard-miss injection seam makes the oracle's jit axis diverge —
  proof the battery catches compiled-code bugs.
"""

from __future__ import annotations

import pytest

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.difftest import (
    BackendSpec,
    FuzzCampaign,
    check_program,
    generator_for,
    inject_jit_guard_miss,
)
from repro.difftest.oracle import ProgramInvalid, compile_backends
from repro.jit import engine_for
from repro.observability import collect_metrics
from repro.workloads import WORKLOADS

from tests.conftest import GRID_MACHINES, simulate_cell

WORKLOAD_NAMES = tuple(WORKLOADS)
MACHINES = tuple(GRID_MACHINES)


def _build(machine: str, program, jit: bool, fast_path: bool = True):
    if machine == "scalar":
        return ScalarProcessor(
            program, scalar_config(fast_path=fast_path, jit=jit))
    units = int(machine[2:])
    return MultiscalarProcessor(
        program, multiscalar_config(units, fast_path=fast_path, jit=jit))


def _run(machine: str, program, jit: bool, fast_path: bool = True):
    """(result dict, metrics dict, processor) for one run."""
    processor = _build(machine, program, jit, fast_path)
    result = processor.run()
    return result.to_dict(), collect_metrics(processor).to_dict(), processor


# ---------------------------------------------- the full workload matrix

@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_jit_matches_interpreter(name, machine, grid_run):
    jit = grid_run(name, machine)
    interpreted = simulate_cell(name, machine, jit=False)
    assert jit.result == interpreted.result
    assert jit.metrics == interpreted.metrics
    assert jit.digest == interpreted.digest
    assert jit.jit_stats is not None, "jit engine never constructed"
    assert jit.jit_stats["entries"] > 0, \
        f"{name}:{machine}: the JIT never ran a compiled body"


@pytest.mark.parametrize("machine", MACHINES)
def test_jit_matches_no_fast_path_reference(machine, grid_run):
    # The stretch form of the identity: compiled bodies against the
    # plain per-cycle reference interpreter. One representative
    # workload per machine keeps the (slow) reference runs bounded.
    jit = grid_run("cmp", machine)
    reference = simulate_cell("cmp", machine, fast_path=False)
    assert jit.result == reference.result
    assert jit.metrics == reference.metrics


# -------------------------------------------------- generated programs

def test_generated_programs_jit_matches_interpreter():
    checked = 0
    for index in range(6):
        language = ("asm", "minic")[index % 2]
        generated = generator_for(language).generate(77000 + index)
        try:
            scalar_bin, multi_bin = compile_backends(generated)
        except ProgramInvalid:
            continue
        assert _run("scalar", scalar_bin, True)[:2] \
            == _run("scalar", scalar_bin, False)[:2]
        assert _run("ms4", multi_bin, True)[:2] \
            == _run("ms4", multi_bin, False)[:2]
        checked += 1
    assert checked >= 4  # the seeds above are known-good generators


def test_oracle_grid_carries_the_jit_axis():
    generated = generator_for("asm").generate(43)
    grid = (
        BackendSpec("scalar", 1, 1, False),
        BackendSpec("scalar", 1, 1, False, jit=False),
        BackendSpec("multiscalar", 4, 1, False),
        BackendSpec("multiscalar", 4, 1, False, jit=False),
        BackendSpec("multiscalar", 4, 1, False, fast_path=False),
    )
    report = check_program(generated, grid=grid)
    assert report.ok, report.render()
    assert "scalar:1w-io-nojit" in report.backends_run
    assert "ms:4u-1w-io-nojit" in report.backends_run
    assert "ms:4u-1w-io-ref" in report.backends_run


def test_campaign_jit_axis():
    result = FuzzCampaign(seed=29, budget=6, languages=("asm",),
                          units=(2, 4), widths=(1,), orders=(False,),
                          jits=(True, False)).run()
    assert result.ok, result.report.render()
    assert any(label.endswith("-nojit") for label in result.backends_used)


# ------------------------------------------------------ engine gating

def test_engine_declines_ineligible_shapes():
    program = WORKLOADS["cmp"].multiscalar_program()
    assert engine_for(program, multiscalar_config(4), False) is not None
    assert engine_for(program, multiscalar_config(4, jit=False),
                      False) is None
    assert engine_for(program, multiscalar_config(4, fast_path=False),
                      False) is None
    assert engine_for(program, multiscalar_config(4, issue_width=2),
                      False) is None
    assert engine_for(program,
                      multiscalar_config(4, out_of_order=True),
                      False) is None


def test_no_jit_config_never_builds_an_engine():
    program = WORKLOADS["example"].multiscalar_program()
    processor = MultiscalarProcessor(program,
                                     multiscalar_config(4, jit=False))
    processor.run()
    assert processor._jit is None


# ---------------------------------------------------- oracle has teeth

def test_guard_miss_is_caught_by_the_jit_axis():
    generated = generator_for("minic").generate(12345)
    grid = (
        BackendSpec("scalar", 1, 1, False),
        BackendSpec("scalar", 1, 1, False, jit=False),
        BackendSpec("multiscalar", 4, 1, False),
        BackendSpec("multiscalar", 4, 1, False, jit=False),
    )
    assert check_program(generated, grid=grid).ok
    with inject_jit_guard_miss("stop"):
        buggy = check_program(generated, grid=grid,
                              max_cycles=2_000_000)
    assert not buggy.ok, "planted stop-guard miss went undetected"
    with inject_jit_guard_miss("taken-branch"):
        # The wrong path never halts; 100x the clean run's ~1,000
        # cycles is plenty to call it.
        buggy = check_program(generated, grid=grid, max_cycles=100_000)
    assert not buggy.ok, "planted branch-guard miss went undetected"

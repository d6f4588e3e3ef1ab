"""The trace-JIT must be invisible in the results.

``repro.jit`` compiles hot straight-line uop sequences into generated
Python bodies that execute many cycles of the scalar core's unit per
call, deopting back to the interpreter at every irregular boundary.
Like the fast path underneath it, the JIT is a pure performance
optimisation: running any program with ``jit=False`` — or with
``fast_path=False``, the per-cycle reference interpreter — must produce
an *identical* result dictionary, including the cycle count, the stall
breakdown and the collected metrics registry. The multiscalar machine
is interpreter-only: ``jit`` selects nothing there, so its cells have
no jit side to compare and only assert that no engine was built.

Pinned here:

* every bundled workload on the scalar core, jit vs no-jit (results,
  stats, and metrics all bit-identical), and the default mode of
  scalar/ms4/ms8 against the ``--no-fast-path`` reference — the
  default side is the session's one run per cell
  (``conftest.grid_run``), which ``test_grid_digest`` also pins against
  the committed digests;
* a seeded batch of fuzzer-generated programs through the difftest
  oracle with the ``jit`` backend axis (scalar labels carry
  ``-nojit``; no ``ms:*-nojit`` label exists), which also diffs
  *cycle counts* across same-machine backends;
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
    FuzzCampaign,
    check_program,
    generator_for,
    inject_jit_guard_miss,
)
from repro.difftest.oracle import (
    ProgramInvalid,
    backend_label,
    compile_backends,
    full_grid,
)
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
    if machine != "scalar":
        # Interpreter-only: the default-mode run *is* the interpreter's.
        assert jit.jit_stats is None, \
            f"{name}:{machine}: a multiscalar machine built a JIT engine"
        return
    interpreted = simulate_cell(name, machine, jit=False)
    assert jit.result == interpreted.result
    assert jit.metrics == interpreted.metrics
    assert jit.digest == interpreted.digest
    assert jit.jit_stats is not None, "jit engine never constructed"
    assert jit.jit_stats["entries"] > 0, \
        f"{name}:{machine}: the JIT never ran a compiled body"


@pytest.mark.parametrize("machine", MACHINES)
def test_jit_matches_no_fast_path_reference(machine, grid_run):
    # The stretch form of the identity: the default mode (compiled
    # bodies on the scalar core, the fast path on ms4/ms8) against the
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
            == _run("ms4", multi_bin, True, fast_path=False)[:2]
        checked += 1
    assert checked >= 4  # the seeds above are known-good generators


def test_oracle_grid_carries_the_jit_axis():
    generated = generator_for("asm").generate(43)
    grid = (
        {"kind": "scalar"},
        {"kind": "scalar", "jit": False},
        {"kind": "multiscalar", "units": 4},
        {"kind": "multiscalar", "units": 4, "fast_path": False},
    )
    report = check_program(generated, grid=grid)
    assert report.ok, report.render()
    assert "scalar:1w-io-nojit" in report.backends_run
    assert "ms:4u-1w-io-ref" in report.backends_run
    # The axis exists only where it selects something.
    labels = {backend_label(b) for b in full_grid(fast_paths=(True, False))}
    labels.add(backend_label({"kind": "multiscalar", "units": 4,
                              "jit": False}))
    assert not any(label.endswith("-nojit") for label in labels)


def test_campaign_jit_axis():
    result = FuzzCampaign(seed=29, budget=6, languages=("asm",),
                          units=(2, 4), widths=(1,), orders=(False,),
                          jits=(True, False)).run()
    assert result.ok, result.report.render()
    assert {label for label in result.backends_used
            if label.endswith("-nojit")} == {"scalar:1w-io-nojit"}


# ------------------------------------------------------ engine gating

def test_engine_declines_ineligible_shapes():
    program = WORKLOADS["cmp"].scalar_program()
    assert engine_for(program, scalar_config()) is not None
    assert engine_for(program, scalar_config(jit=False)) is None
    assert engine_for(program, scalar_config(fast_path=False)) is None
    assert engine_for(program, scalar_config(issue_width=2)) is None
    assert engine_for(program, scalar_config(out_of_order=True)) is None


def test_no_jit_config_never_builds_an_engine():
    processor = ScalarProcessor(WORKLOADS["example"].scalar_program(),
                                scalar_config(jit=False))
    processor.run()
    assert processor._jit is None
    # The multiscalar machine has no engine to build, whatever the flag.
    processor = MultiscalarProcessor(
        WORKLOADS["example"].multiscalar_program(), multiscalar_config(4))
    processor.run()
    assert not hasattr(processor, "_jit")


# ---------------------------------------------------- oracle has teeth

def test_guard_miss_is_caught_by_the_jit_axis():
    generated = generator_for("minic").generate(12345)
    grid = (
        {"kind": "scalar"},
        {"kind": "scalar", "jit": False},
        {"kind": "multiscalar", "units": 4},
    )
    assert check_program(generated, grid=grid).ok
    with inject_jit_guard_miss("taken-branch"):
        # The wrong path never halts; 100x the clean run's ~1,000
        # cycles is plenty to call it.
        buggy = check_program(generated, grid=grid, max_cycles=100_000)
    assert not buggy.ok, "planted branch-guard miss went undetected"
    # Only compiled bodies go blind, and only the scalar core has any.
    assert {d.backend for d in buggy.divergences} == {"scalar:1w-io"}

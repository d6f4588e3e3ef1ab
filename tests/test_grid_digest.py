"""The timing witness: simulated results pinned against committed digests.

The execution modes (reference, ``--no-jit``, jit) agree with each
other by construction — they share ``UnitPipeline.step`` — so their
differential tests cannot notice a change that moves all three.
``tests/data/grid_digest.json`` can: cycles, instructions and a digest
of the whole result and final machine state for every bundled workload
x {scalar, ms4, ms8} x {1-way in-order, 2-way out-of-order}, generated
by ``tests/make_grid_digest.py``. A performance PR must leave every
cell alone; a fidelity PR regenerates the file and says what moved.
"""

from __future__ import annotations

import json

import pytest

from repro.workloads import WORKLOADS

from tests.conftest import GRID_DIGEST_PATH, GRID_MACHINES, GRID_SHAPES

PINNED = json.loads(GRID_DIGEST_PATH.read_text())


def test_digest_file_covers_the_grid():
    assert set(PINNED) == {f"{workload}:{machine}:{shape}"
                           for workload in WORKLOADS
                           for machine in GRID_MACHINES
                           for shape in GRID_SHAPES}


@pytest.mark.parametrize("shape", GRID_SHAPES)
@pytest.mark.parametrize("machine", GRID_MACHINES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_cell_matches_its_pinned_digest(workload, machine, shape, grid_run):
    run = grid_run(workload, machine, shape)
    pinned = PINNED[f"{workload}:{machine}:{shape}"]
    assert run.result["cycles"] == pinned["cycles"]
    assert run.result["instructions"] == pinned["instructions"]
    assert run.digest == pinned["digest"], \
        "same cycles and instructions, but the result or the final " \
        "machine state moved"

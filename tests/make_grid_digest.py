"""Regenerate ``tests/data/grid_digest.json``.

The digest file is the timing witness the execution modes cannot give
each other (they share ``UnitPipeline.step``): cycles, instructions and
a digest of the full result and final machine state for every bundled
workload x {scalar, ms4, ms8} x {1-way in-order, 2-way out-of-order}.
Run only after an *intentional* change to simulated timing:

    PYTHONPATH=src python tests/make_grid_digest.py

and say in the PR which cells moved and why.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import (  # noqa: E402
    GRID_DIGEST_PATH,
    GRID_MACHINES,
    GRID_SHAPES,
    simulate_cell,
)

from repro.workloads import WORKLOADS  # noqa: E402


def main() -> None:
    """Simulate the 60 cells in default mode and write the file."""
    cells = {}
    for workload in WORKLOADS:
        for machine in GRID_MACHINES:
            for shape in GRID_SHAPES:
                run = simulate_cell(workload, machine, shape)
                cells[f"{workload}:{machine}:{shape}"] = {
                    "cycles": run.result["cycles"],
                    "instructions": run.result["instructions"],
                    "digest": run.digest}
    GRID_DIGEST_PATH.write_text(json.dumps(cells, indent=1) + "\n")
    print(f"wrote {GRID_DIGEST_PATH} ({len(cells)} cells)")


if __name__ == "__main__":
    main()

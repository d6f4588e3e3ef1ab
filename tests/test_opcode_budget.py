"""The cost of a unit-cycle, as a count that repeats exactly.

``benchmarks/opcount.py`` counts the bytecode instructions CPython
executes for a run. Wall-clock on a shared box drifts by tens of
percent; this count does not drift at all, so the gain of the fused
``UnitPipeline.step`` and of the in-order scoreboard (docs/INTERNALS.md
§3) is held by a ceiling on a bounded window instead of by a timing.
The window is the first 600 ``MultiscalarProcessor.step()`` calls of
``wc`` on 4 units with the JIT off, the program's lazy tables already
built: 1,447,638 opcode events before the fusion, 1,077,905 after it,
1,080,062 with producer links at dispatch, and 981,679 with the
scoreboard.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "opcount", Path(__file__).parents[1] / "benchmarks" / "opcount.py")
opcount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(opcount)

#: The scoreboard's count plus 2 %, per bytecode version (the count is
#: a property of the compiler's output, so it is pinned per CPython).
CEILING = {(3, 11): 999_000}


def _window(processor):
    def run():
        for _ in range(600):
            processor.step()
    return run


@pytest.mark.skipif(sys.version_info[:2] not in CEILING,
                    reason="opcode ceilings are pinned per CPython version")
def test_unit_cycle_opcode_ceiling():
    _window(opcount.build("wc", 4, jit=False))()    # build lazy tables
    processor = opcount.build("wc", 4, jit=False)
    counted = opcount.count_opcodes(_window(processor))
    assert processor.cycle == 619    # the window itself has not moved
    assert counted <= CEILING[sys.version_info[:2]], \
        f"{counted:,} opcode events in the window"
    # What makes it a yardstick: it repeats exactly.
    assert opcount.count_opcodes(
        _window(opcount.build("wc", 4, jit=False))) == counted


def test_count_opcodes_restores_the_trace_hook():
    before = sys.gettrace()
    assert opcount.count_opcodes(lambda: sum(range(10))) > 0
    assert sys.gettrace() is before

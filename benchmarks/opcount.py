"""Interpreter opcode events per simulated cycle: the noise-free yardstick.

Wall-clock on a shared box drifts by 15-30 % an hour; the count of
bytecode instructions CPython executes for a run repeats exactly
(``sys.settrace`` + ``f_trace_opcodes``, ~10x an untraced run).

    PYTHONPATH=src python benchmarks/opcount.py [cmp wc] [--shapes ms8]
"""

import argparse
import sys
from itertools import product

from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.workloads import WORKLOADS

#: name -> (units, issue width, out of order).
SHAPES = {"ms8": (8, 1, False), "ms8-ooo2": (8, 2, True),
          "scalar": (1, 1, False)}


def count_opcodes(fn) -> int:
    """Bytecode instructions executed by ``fn()`` in Python frames."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def build(kernel, units, width=1, ooo=False, jit=True):
    """A processor for ``kernel``: ``units == 1`` is the scalar core."""
    spec = WORKLOADS[kernel]
    if units == 1:
        return ScalarProcessor(spec.scalar_program(),
                               scalar_config(width, ooo, jit=jit))
    config = multiscalar_config(units, width, ooo, jit=jit)
    return MultiscalarProcessor(spec.multiscalar_program(), config)


def measure(kernels, shapes):
    """Yield (kernel, shape, jit, opcodes, cycles) per full run. Only
    the scalar core has a JIT to turn on: a multiscalar shape gets the
    one (jit-off) row."""
    for kernel, shape in product(kernels, shapes):
        units = SHAPES[shape][0]
        for jit in (True, False) if units == 1 else (False,):
            processor = build(kernel, *SHAPES[shape], jit=jit)
            yield (kernel, shape, jit, count_opcodes(processor.run),
                   processor.cycle)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kernels", nargs="*", default=["cmp", "wc"])
    parser.add_argument("--shapes", default=",".join(SHAPES),
                        help="comma list of " + "/".join(SHAPES))
    args = parser.parse_args(argv)
    row = "{:10} {:9} {:4} {:>12} {:>8} {:>10}"
    print(row.format(*"kernel shape jit opcodes cycles /cycle".split()))
    for kernel, shape, jit, opcodes, cycles in measure(
            args.kernels, args.shapes.split(",")):
        print(row.format(kernel, shape, "on" if jit else "off",
                         f"{opcodes:,}", f"{cycles:,}",
                         f"{opcodes / cycles:,.0f}"), flush=True)


if __name__ == "__main__":
    main()

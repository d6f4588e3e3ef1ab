"""Transient heap per run(): the memory yardstick beside opcount.py.

The peak of what ``run()`` allocates and holds at once, as
``tracemalloc`` counts it, for a processor built before tracing starts
(a first, untraced run of the same shape builds the program's lazy
tables). Like the opcode count it repeats exactly from run to run, so
it shows a change in what the simulator keeps alive without the noise
of a resident-set reading. Tracing costs ~3x an untraced run.

    PYTHONPATH=src python benchmarks/heap.py [tomcatv sc] [--shapes ms8]
"""

import argparse
import gc
import tracemalloc
from itertools import product

from opcount import build

from repro.workloads import WORKLOADS

#: name -> units; every shape is 1-way in-order, the JIT off.
SHAPES = {"ms8": 8, "ms4": 4, "scalar": 1}


def heap_peak(processor) -> int:
    """Peak bytes traced while ``processor.run()`` executes."""
    gc.collect()
    tracemalloc.start()
    try:
        processor.run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(kernels, shapes):
    """Yield (kernel, shape, peak bytes, cycles) per full run."""
    for kernel, shape in product(kernels, shapes):
        units = SHAPES[shape]
        build(kernel, units, jit=False).run()
        processor = build(kernel, units, jit=False)
        yield kernel, shape, heap_peak(processor), processor.cycle


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kernels", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--shapes", default=",".join(SHAPES),
                        help="comma list of " + "/".join(SHAPES))
    args = parser.parse_args(argv)
    row = "{:10} {:7} {:>10} {:>9}"
    print(row.format("kernel", "shape", "peak KB", "cycles"))
    for kernel, shape, peak, cycles in measure(args.kernels,
                                               args.shapes.split(",")):
        print(row.format(kernel, shape, f"{peak / 1024:,.0f}",
                         f"{cycles:,}"), flush=True)


if __name__ == "__main__":
    main()

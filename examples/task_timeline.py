#!/usr/bin/env python3
"""Visualize the circular unit queue: an ASCII task timeline.

Attaches a task-category event bus to the multiscalar processor and
renders, from its lifecycle events, when each unit ran which task,
where squashes discarded work, and how the in-order retirement
wavefront moves — for a well-behaved workload (wc) and a squash-bound
one (gcc).

Run:  python examples/task_timeline.py
"""

from repro.config import multiscalar_config
from repro.core import MultiscalarProcessor
from repro.observability import Category, EventBus, render_timeline
from repro.workloads import WORKLOADS


def show(name: str) -> None:
    spec = WORKLOADS[name]
    processor = MultiscalarProcessor(spec.multiscalar_program(),
                                     multiscalar_config(8))
    bus = EventBus(Category.TASK).attach(processor)
    result = processor.run()
    assert result.output == spec.expected_output
    print(f"== {name}: {spec.description}")
    chart, summary = render_timeline(bus, processor.num_units, width=96)
    print(chart)
    print(summary)
    print(f"squashes: {result.squashes_mispredict} mispredict, "
          f"{result.squashes_memory} memory-order\n")


def main() -> None:
    print("'=' running task that retires, 'x' work that gets squashed,\n"
          "'R' retirement, '.' idle unit\n")
    show("wc")     # parallel tasks march across the units
    show("gcc")    # memory-order squashes shred the window


if __name__ == "__main__":
    main()

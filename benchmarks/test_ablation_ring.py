"""Extension: sensitivity to the register-forwarding ring's hop latency.

The paper's configuration forwards values with one cycle of latency per
hop. Inter-task register dependences (induction variables above all)
ride the ring, so inflating the hop latency stretches the critical path
of recurrence-bound workloads while barely touching independent-task
ones.
"""

from repro.engine.job import SimJob
from repro.harness.runner import run_jobs

HOPS = (1, 2, 4, 8)
NAMES = ("compress", "cmp")


def build():
    cycles = [result.cycles for result in run_jobs([
        SimJob(kind="multiscalar", workload=name, units=8, ring_hop=hop)
        for name in NAMES for hop in HOPS])]
    return {name: cycles[i * len(HOPS):(i + 1) * len(HOPS)]
            for i, name in enumerate(NAMES)}


def test_ring_latency(once):
    curves = once(build)
    print()
    print(f"{'program':<10}" + "".join(f"{h:>9}cyc" for h in HOPS))
    for name, cycles in curves.items():
        base = cycles[0]
        rendered = "".join(f"{c / base:>11.2f}" for c in cycles)
        print(f"{name:<10}{rendered}   (relative cycles)")
    # The recurrence-bound workload degrades with hop latency...
    compress = curves["compress"]
    assert compress[-1] > compress[0] * 1.1
    # ...much more than the independent-task workload does.
    cmp_rel = curves["cmp"][-1] / curves["cmp"][0]
    compress_rel = compress[-1] / compress[0]
    assert compress_rel > cmp_rel

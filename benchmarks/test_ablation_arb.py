"""Ablation for Section 2.3: ARB capacity and the full-ARB policy.

"As the ARB is a finite resource, it may run out of space. If this
situation should occur, a simple solution is to free ARB storage by
squashing tasks. ... A less drastic alternative is to stall all
processing units but the head."

We shrink the per-bank ARB until tomcatv's long tasks overflow it, and
compare the paper's two policies.
"""

from repro.engine.job import SimJob
from repro.harness.runner import run_jobs

ENTRIES = (8, 16, 64, 256)


def job(entries_per_bank, policy):
    return SimJob(kind="multiscalar", workload="tomcatv", units=8,
                  arb_entries=entries_per_bank, arb_full_policy=policy)


def build():
    *squash, stall = run_jobs([job(entries, "squash") for entries in ENTRIES]
                              + [job(8, "stall")])
    return dict(zip(ENTRIES, squash)), stall


def test_arb_capacity(once):
    sweep, stall = once(build)
    print()
    for entries, result in sorted(sweep.items()):
        print(f"ARB {entries:4d}/bank (squash policy): "
              f"{result.cycles:7d} cycles, "
              f"{result.squashes_arb:4d} capacity squashes")
    print(f"ARB    8/bank (stall policy) : {stall.cycles:7d} cycles, "
          f"{stall.squashes_arb:4d} capacity squashes")

    # A tiny ARB must overflow; the paper's 256-entry ARB must not.
    assert sweep[8].squashes_arb > 0
    assert sweep[256].squashes_arb == 0
    # More capacity never hurts.
    assert sweep[256].cycles <= sweep[8].cycles
    # The stall policy squashes nothing and (here) beats squashing.
    assert stall.squashes_arb == 0
    assert stall.cycles <= sweep[8].cycles

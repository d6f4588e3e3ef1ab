"""Ablation for Section 3.1.1: synchronization of memory communication.

"Almost all memory order squashes that we have encountered ... occur
due to updates of global scalars ... Once (potentially) offending
accesses are recognized, accesses to the memory location can be
synchronized" — here by the compile-time restructuring the paper
mentions: performing the global update early in the task (producing the
value as soon as possible) instead of late, so the consuming load in
the successor usually finds the store already done.

The unsynchronized version loads the global early and stores it late —
the worst case — and must suffer more memory-order squashes.
"""

from repro.engine.job import SimJob
from repro.harness.runner import run_jobs

UNSYNCHRONIZED = """
int counter = 0;
int work[64];
void main() {
    int i = 0;
    parallel while (i < 64) {
        int k = i;
        i += 1;
        int c0 = counter;            // consumed early
        int acc = 0;
        for (int j = 0; j < 6 + k % 5; j += 1) { acc += (k + j) * j; }
        work[k] = acc;
        counter = c0 + 1;            // produced late -> squashes
    }
    print_int(counter);
}
"""

SYNCHRONIZED = """
int counter = 0;
int work[64];
void main() {
    int i = 0;
    parallel while (i < 64) {
        int k = i;
        i += 1;
        counter += 1;                // update early: store right away
        int acc = 0;
        for (int j = 0; j < 6 + k % 5; j += 1) { acc += (k + j) * j; }
        work[k] = acc;
    }
    print_int(counter);
}
"""


def build():
    results = run_jobs([SimJob(kind="multiscalar", source=source, units=8)
                        for source in (UNSYNCHRONIZED, SYNCHRONIZED)])
    # Inline programs carry no expected output: both count all 64 tasks.
    assert [result.output for result in results] == ["64", "64"]
    return results


def test_memory_synchronization(once):
    unsync, sync = once(build)
    print(f"\nunsynchronized: {unsync.cycles} cycles, "
          f"{unsync.squashes_memory} memory-order squashes")
    print(f"synchronized  : {sync.cycles} cycles, "
          f"{sync.squashes_memory} memory-order squashes")
    assert sync.squashes_memory < unsync.squashes_memory
    assert sync.cycles < unsync.cycles

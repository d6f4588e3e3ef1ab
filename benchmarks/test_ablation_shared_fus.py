"""Ablation for Section 2.3's alternate microarchitecture: shared FUs.

"An alternative microarchitecture might share the functional units
(such as the floating point units) between the different processing
units."

We compare private vs shared FP/complex-integer units on the FP-bound
workload (tomcatv) and an integer one (cmp). The paper's implication —
that sharing expensive units is a viable engineering trade — shows up
as a small slowdown on the FP code and none on integer code.
"""

from repro.engine.job import SimJob
from repro.harness.runner import run_jobs

ROWS = [(name, width, ooo) for name in ("tomcatv", "cmp")
        for width, ooo in ((1, False), (2, True))]


def build():
    cycles = [result.cycles for result in run_jobs([
        SimJob(kind="multiscalar", workload=name, units=8,
               issue_width=width, out_of_order=ooo, shared_fp_units=shared)
        for name, width, ooo in ROWS for shared in (False, True)])]
    return dict(zip(ROWS, zip(cycles[::2], cycles[1::2])))


def test_shared_fp_units(once):
    rows = once(build)
    print()
    for (name, width, ooo), (private, shared) in rows.items():
        mode = f"{width}-way {'ooo' if ooo else 'in-order'}"
        print(f"{name:8} {mode:16}: private {private:7d}  "
              f"shared {shared:7d}  (+{shared / private - 1:+.1%})")
    # Sharing never changes results and costs at most a mild slowdown on
    # the FP-heavy code; the integer workload is untouched.
    for (name, width, ooo), (private, shared) in rows.items():
        assert shared >= private * 0.999, (name, width, ooo)
        if name == "cmp":
            assert shared <= private * 1.05
    fp_key = ("tomcatv", 2, True)
    assert rows[fp_key][1] >= rows[fp_key][0]

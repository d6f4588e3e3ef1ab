"""Machine configuration for the timing simulators.

Defaults reproduce Section 5.1 of the paper exactly:

* Table 1 functional-unit latencies;
* 5-stage units (IF/ID/EX/MEM/WB) configurable in-order/out-of-order and
  1-way/2-way issue; 1 or 2 simple-integer FUs (one per issue way), 1
  complex-integer FU, 1 FP FU, 1 branch FU, 1 memory FU;
* a unidirectional ring with one cycle of latency per hop and width equal
  to the issue width;
* a single 4-word split-transaction memory bus: 10 cycles for the first
  4 words, 1 cycle per additional 4 words;
* 32 KB direct-mapped instruction cache per unit, 64-byte blocks, 1-cycle
  hit returning 4 words, 10+3-cycle miss penalty plus bus contention;
* twice as many interleaved data banks as units, each 8 KB direct-mapped
  with 64-byte blocks and a 256-entry ARB; data-cache hits take 2 cycles
  on a multiscalar processor and 1 cycle on the scalar baseline;
* a sequencer with a 1024-entry task-descriptor cache, a PAs control-flow
  predictor (64-entry first level of 6 two-bit outcomes; 4096-entry
  pattern tables of 3 bits) with 4 targets per prediction, and a 64-entry
  return-address stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Table 1 of the paper: functional-unit latencies in cycles.
TABLE1_LATENCIES: dict[str, int] = {
    "int_alu": 1,     # integer add/sub and shift/logic
    "int_mul": 4,
    "int_div": 12,
    "sp_add": 2,      # single-precision add/sub (and moves/compares)
    "sp_mul": 4,
    "sp_div": 12,
    "dp_add": 2,
    "dp_mul": 5,
    "dp_div": 18,
    "mem_store": 1,   # FU occupancy; cache timing is modelled separately
    "mem_load": 2,
    "branch": 1,
}


@dataclass(frozen=True)
class UnitConfig:
    """Configuration of one processing unit's pipeline."""

    issue_width: int = 1            # 1-way or 2-way
    out_of_order: bool = False      # in-order or out-of-order issue
    window_size: int = 16           # OOO issue-window entries
    fetch_queue: int = 8            # decoded-instruction buffer depth
    latencies: dict[str, int] = field(
        default_factory=lambda: dict(TABLE1_LATENCIES))

    def fu_counts(self) -> dict[str, int]:
        """Functional-unit inventory (Section 5.1)."""
        return {
            "SIMPLE_INT": self.issue_width,  # 1 or 2 simple integer FUs
            "COMPLEX_INT": 1,
            "FP": 1,
            "BRANCH": 1,
            "MEM": 1,
        }


@dataclass(frozen=True)
class MemoryConfig:
    """Caches, banks, and the memory bus."""

    icache_size: int = 32 * 1024
    icache_block: int = 64
    icache_hit: int = 1             # returns 4 words per hit
    dcache_bank_size: int = 8 * 1024
    dcache_block: int = 64
    dcache_hit_multiscalar: int = 2
    dcache_hit_scalar: int = 1
    scalar_dcache_size: int = 64 * 1024   # scalar: single cache, same total
    bus_first: int = 10             # cycles for the first 4 words
    bus_per_extra: int = 1          # per additional 4 words
    miss_extra: int = 3             # the "+3" of the 10+3 miss penalty
    arb_entries_per_bank: int = 256
    banks_per_unit: int = 2         # twice as many banks as units


@dataclass(frozen=True)
class PredictorConfig:
    """The sequencer's PAs control-flow predictor (Section 5.1)."""

    history_entries: int = 64       # first-level table entries
    history_depth: int = 6          # outcomes remembered per entry
    pattern_entries: int = 4096     # second-level pattern-table entries
    num_targets: int = 4            # targets per prediction (2-bit ids)
    ras_entries: int = 64           # return-address stack
    descriptor_cache: int = 1024    # task-descriptor cache entries


@dataclass(frozen=True)
class MachineConfig:
    """Top-level configuration of a scalar or multiscalar machine."""

    num_units: int = 4              # processing units (1 = scalar shape)
    unit: UnitConfig = field(default_factory=UnitConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    ring_hop_latency: int = 1       # cycles per ring hop
    squash_overhead: int = 1        # cycles to clean up a squashed unit
    arb_full_policy: str = "squash"  # "squash" or "stall" (Section 2.3)
    predictor_static: bool = False  # always-first-target prediction
    #: Section 2.3 alternate microarchitecture: one FP unit and one
    #: complex-integer unit shared by ALL processing units.
    shared_fp_units: bool = False
    #: Simulator (not machine) knob: use pre-decoded semantics closures
    #: and quiescence-aware cycle skipping. Results are cycle-exact
    #: either way; False forces the reference per-cycle path (the
    #: ``--no-fast-path`` escape hatch, used by the differential tests).
    fast_path: bool = True
    #: Simulator knob, scalar core only: compile hot straight-line uop
    #: regions into generated per-cycle executors (repro.jit) that deopt
    #: back to the interpreter at every irregular boundary. Results are
    #: cycle-exact either way; requires ``fast_path`` (the JIT builds on
    #: the pre-decoded closures) and only engages for an in-order 1-wide
    #: unit (the paper's default shape). ``--no-jit`` is the escape
    #: hatch. The multiscalar machine is interpreter-only and ignores it.
    jit: bool = True

    @property
    def num_banks(self) -> int:
        return self.num_units * self.memory.banks_per_unit

    def with_units(self, n: int) -> "MachineConfig":
        return replace(self, num_units=n)

    def with_issue(self, width: int, out_of_order: bool) -> "MachineConfig":
        return replace(self, unit=replace(
            self.unit, issue_width=width, out_of_order=out_of_order))


def scalar_config(issue_width: int = 1,
                  out_of_order: bool = False,
                  fast_path: bool = True,
                  jit: bool = True) -> MachineConfig:
    """The paper's scalar baseline: one aggressive processing unit."""
    return MachineConfig(num_units=1, fast_path=fast_path,
                         jit=jit).with_issue(issue_width, out_of_order)


def multiscalar_config(num_units: int = 4, issue_width: int = 1,
                       out_of_order: bool = False,
                       fast_path: bool = True,
                       jit: bool = True) -> MachineConfig:
    """A multiscalar processor with the paper's Section-5.1 parameters."""
    return MachineConfig(num_units=num_units, fast_path=fast_path,
                         jit=jit).with_issue(issue_width, out_of_order)

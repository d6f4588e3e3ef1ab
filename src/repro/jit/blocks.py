"""Flat per-word decode tables and trace-region records for the JIT.

The interpreter chases attributes per uop per stage (``rec.uop.kind``,
``uop.instr.stop``, ``uop.alu``); the JIT instead decodes the whole
text once into parallel flat lists indexed by word number, so the
compiled trace bodies run on plain ``list[int]`` indexing. The tables
also carry the two static partitions of the text:

* **trace regions** (:func:`repro.isa.uop.trace_regions`) — the spans
  the JIT compiles, one generated function each;
* **basic blocks** (:func:`repro.isa.uop.basic_blocks`) — finer grain,
  used only for the per-block entry counters that
  ``UnitJIT.stats_dict()`` reports to the tests.

Tables are built per (program uop list, latency table) and cached on
the consumer. Multiscalar tag bits are not decoded: the JIT serves the
scalar core, which ignores them. The uop list's *identity*
is the staleness key: annotation passes that mutate instructions must
call ``Program.invalidate_uops()``, which rebuilds the list and thus
invalidates any tables built against the old one (checked by
``TraceTables.fresh_for``).
"""

from __future__ import annotations

from repro.isa.opcodes import Kind, Op
from repro.isa.uop import basic_blocks, trace_regions

#: Stable small-int encodings of the enums the executor compares
#: against, derived from the enums at import so a reordering upstream
#: cannot silently desynchronize the tables.
KIND_ID = {kind: index for index, kind in enumerate(Kind)}

K_ALU = KIND_ID[Kind.ALU]
K_LOAD = KIND_ID[Kind.LOAD]
K_STORE = KIND_ID[Kind.STORE]
K_BRANCH = KIND_ID[Kind.BRANCH]
K_JUMP = KIND_ID[Kind.JUMP]
K_CALL = KIND_ID[Kind.CALL]
K_JUMP_REG = KIND_ID[Kind.JUMP_REG]
K_RELEASE = KIND_ID[Kind.RELEASE]

#: Executor exit events (why a compiled trace returned control).
EV_LIMIT = 0     # reached the cycle limit / a checkpoint or watchdog bound
EV_TRACE = 1     # dispatch reached a word this body did not compile
EV_HALT = 2      # the next word to dispatch is a syscall or a halt

EXIT_NAMES = ("limit", "trace", "halt")


class TraceTables:
    """Flat decode of one program text."""

    __slots__ = (
        "uops", "text_base", "nwords",
        "kind", "fui", "lat", "deps", "dst1", "imm", "target",
        "alu", "branch", "ea_base", "store_reg",
        "is_jal", "instrs",
        "regions", "region_of", "blocks", "block_of",
        "block_entries", "region_calls", "region_cycles", "region_uops",
        "region_exits",
    )

    def __init__(self, uops: list, text_base: int,
                 latencies: dict) -> None:
        self.uops = uops
        self.text_base = text_base
        n = self.nwords = len(uops)
        self.kind = [KIND_ID[u.kind] for u in uops]
        self.fui = [u.fui for u in uops]
        self.lat = [latencies[u.latency_key] for u in uops]
        self.deps = [u.deps for u in uops]
        self.dst1 = [u.dst if u.dst is not None else 0 for u in uops]
        self.imm = [u.imm for u in uops]
        self.target = [u.target for u in uops]
        self.alu = [u.alu for u in uops]
        self.branch = [u.branch for u in uops]
        self.ea_base = [u.ea_base for u in uops]
        self.store_reg = [u.store_reg for u in uops]
        self.is_jal = [u.kind is Kind.CALL and u.op is Op.JAL
                       for u in uops]
        self.instrs = [u.instr for u in uops]

        self.regions = trace_regions(uops)
        self.region_of = [0] * n
        for rid, (start, end) in enumerate(self.regions):
            for w in range(start, end):
                self.region_of[w] = rid
        self.blocks = basic_blocks(uops, text_base)
        self.block_of = [0] * n
        for bid, (start, end) in enumerate(self.blocks):
            for w in range(start, end):
                self.block_of[w] = bid

        self.block_entries = [0] * len(self.blocks)
        nregions = len(self.regions)
        self.region_calls = [0] * nregions
        self.region_cycles = [0] * nregions
        self.region_uops = [0] * nregions
        self.region_exits = [[0] * len(EXIT_NAMES)
                             for _ in range(nregions)]

    def fresh_for(self, program) -> bool:
        """True while the program's uop list is the one decoded here."""
        return program.uops() is self.uops

    # ------------------------------------------------------------ stats

    def stats_dict(self, top: int = 10) -> dict:
        """JSON-ready JIT statistics (hottest blocks/regions first)."""
        tb = self.text_base

        def span(pair):
            start, end = pair
            return {"start": hex(tb + 4 * start), "words": end - start}

        blocks = sorted(
            ((count, bid) for bid, count in enumerate(self.block_entries)
             if count), reverse=True)
        regions = sorted(
            ((self.region_cycles[rid], rid)
             for rid in range(len(self.regions))
             if self.region_calls[rid]), reverse=True)
        return {
            "regions_compiled": sum(1 for c in self.region_calls if c),
            "region_calls": sum(self.region_calls),
            "jit_cycles": sum(self.region_cycles),
            "jit_uops": sum(self.region_uops),
            "exits": {
                name: sum(exits[code] for exits in self.region_exits)
                for code, name in enumerate(EXIT_NAMES)},
            "hot_blocks": [
                {**span(self.blocks[bid]), "entries": count}
                for count, bid in blocks[:top]],
            "hot_regions": [
                {**span(self.regions[rid]),
                 "calls": self.region_calls[rid],
                 "cycles": self.region_cycles[rid],
                 "uops": self.region_uops[rid],
                 "exits": {name: self.region_exits[rid][code]
                           for code, name in enumerate(EXIT_NAMES)
                           if self.region_exits[rid][code]}}
                for _cycles, rid in regions[:top]],
        }


def tables_for(program, latencies: dict) -> TraceTables:
    """Build the flat tables for ``program`` (one-shot, caller caches)."""
    return TraceTables(program.uops(), program.text_base, latencies)

"""Trace-JIT engine: window eligibility, the compiled-body cache, and
per-region statistics.

One :class:`UnitJIT` serves one :class:`~repro.core.scalar.
ScalarProcessor` — the multiscalar machine is interpreter-only
(docs/INTERNALS.md §12 has the measurement). ``try_run`` is the single
entry point: it decides whether the unit's *live* state is JIT-eligible
(every ROB record decodes to a window word), picks the compiled body
variant for the window's feature set, runs it, and attributes the
executed cycles to the trace region being streamed.

Eligibility is deliberately re-checked on every entry rather than
cached: fault injection can swap ``semantics.evaluate_alu`` mid-run,
and annotation passes can replace the program's uop list (checked via
``TraceTables.fresh_for`` by ``ScalarProcessor.run``).
"""

from __future__ import annotations

from repro.isa import semantics
from repro.jit import codegen
from repro.jit.blocks import (
    EV_HALT,
    EV_TRACE,
    K_ALU,
    K_BRANCH,
    K_CALL,
    K_JUMP,
    K_JUMP_REG,
    K_LOAD,
    K_RELEASE,
    K_STORE,
    tables_for,
)

#: Minimum window span (in cycles) worth entering a compiled body for.
MIN_WINDOW = 2

#: Planted guard-miss mode (difftest.inject_jit_guard_miss): None, or
#: "taken-branch" (the resolve guard lets taken branches resolve as
#: no-ops). Read at engine construction; engines are built per run.
_INJECT: str | None = None


def set_injection(mode: str | None) -> None:
    global _INJECT
    if mode not in (None, "taken-branch"):
        raise ValueError(f"unknown JIT guard-miss mode {mode!r}")
    _INJECT = mode


def current_injection() -> str | None:
    return _INJECT


#: Kinds that stream through a compiled window: their commit is a
#: plain register write/store and all their control flow is handled
#: in-frame (taken-branch flushes, jump redirects, jr/jalr fetch
#: stalls); a release is a no-op on the scalar core. Only syscalls and
#: halts deopt.
_WINDOW_KINDS = frozenset((K_ALU, K_LOAD, K_STORE, K_BRANCH, K_JUMP,
                           K_CALL, K_JUMP_REG, K_RELEASE))


class UnitJIT:
    """Compiled-trace execution for the scalar core's unit."""

    def __init__(self, program, config) -> None:
        self.program = program
        self.inject = _INJECT
        tables = self.tables = tables_for(program, config.unit.latencies)
        kind = tables.kind
        #: Per word: -1 if it may sit in a window's ROB and be
        #: dispatched by it, else the exit code to deopt by.
        self._xdok = [-1 if k in _WINDOW_KINDS else EV_HALT for k in kind]
        feat = self._feat = [0] * tables.nwords
        for w, k in enumerate(kind):
            if k == K_LOAD or k == K_STORE:
                feat[w] = codegen.F_MEM
            elif k in (K_BRANCH, K_JUMP, K_CALL, K_JUMP_REG):
                feat[w] = codegen.F_BRANCH
        self._region_feat = [0] * len(tables.regions)
        for rid, (start, end) in enumerate(tables.regions):
            rf = 0
            for w in range(start, end):
                rf |= feat[w]
            self._region_feat[rid] = rf
        #: Per-word counts buffer for one window, indexed by the
        #: StallReason int value; folded and re-zeroed by the caller.
        self.counts = [0] * (len(codegen._RS_ENUM))
        self._bodies: dict[int, object] = {}
        self.entries = 0
        self.declines = 0

    # -------------------------------------------------------------- body

    def _body(self, feat: int):
        fn = self._bodies.get(feat)
        if fn is None:
            # Per-body dispatch table: words whose features this body
            # did not compile (e.g. a jump lands in a region with
            # memory ops under a no-F_MEM body) deopt as EV_TRACE, so
            # the window exits cleanly and re-enters under a richer
            # variant keyed off the landing word's region.
            cover = feat & (codegen.F_MEM | codegen.F_BRANCH)
            xv = self._xdok
            if cover != codegen.F_MEM | codegen.F_BRANCH:
                feats = self._feat
                xv = list(xv)
                for w in range(len(xv)):
                    if xv[w] < 0 and feats[w] & ~cover:
                        xv[w] = EV_TRACE
            fn = self._bodies[feat] = codegen.compile_body(
                self.tables, xv, feat,
                inject_taken=self.inject == "taken-branch")
        return fn

    # ------------------------------------------------------------- entry

    def fresh(self) -> bool:
        """True while the program's uop list is the one compiled here."""
        return self.tables.fresh_for(self.program)

    def try_run(self, pipeline, ctx, cycle: int, budget: int):
        """Run compiled cycles for one unit; ``None`` declines the window.

        On success returns ``(next_cycle, exit_code, last_issue_cycle,
        busy_cycles)`` with ``next_cycle`` the first *unexecuted* cycle.
        Per-reason stall counts for the executed span accumulate into
        ``self.counts`` and must be folded and zeroed by the caller.
        """
        if budget - cycle < MIN_WINDOW:
            return None
        if not pipeline._fast:
            return None
        if semantics.evaluate_alu is not semantics._GENUINE_EVALUATE_ALU:
            # Fault injection swapped the ALU seam: the bound closures
            # (and thus the JIT) must not be trusted.
            return None
        tables = self.tables
        tb = tables.text_base
        n = tables.nwords
        xdok = self._xdok
        feats = self._feat
        feat = 0
        for rec in pipeline.rob:
            w = (rec.pc - tb) >> 2
            if w < 0 or w >= n or xdok[w] >= 0:
                self.declines += 1
                return None
            feat |= feats[w]
        fb = pipeline.fetch_buffer
        for _uop, dpc in fb:
            feat |= feats[(dpc - tb) >> 2]
        # Seed the body variant with the features of the region the
        # dispatch stream is in; a word past it that needs more deopts
        # as EV_TRACE (see _body).
        if fb:
            w0 = (fb[0][1] - tb) >> 2
        elif pipeline.fetch_pending_pc is not None:
            w0 = (pipeline.fetch_pending_pc - tb) >> 2
        elif pipeline.pc is not None:
            w0 = (pipeline.pc - tb) >> 2
        else:
            w0 = -1
        if 0 <= w0 < n:
            rid = tables.region_of[w0]
            feat |= self._region_feat[rid]
        elif pipeline.rob:
            rid = tables.region_of[(pipeline.rob[0].pc - tb) >> 2]
        else:
            return None  # inert pipeline: nothing to compile against
        if pipeline.trace is not None:
            feat |= codegen.F_TRACED
        fn = self._body(feat)
        result = fn(pipeline, ctx, cycle, budget, self.counts)
        next_cycle = result[0]
        if next_cycle == cycle:
            # A pre-cycle guard fired immediately: nothing executed,
            # nothing written; let the interpreter take this cycle.
            self.declines += 1
            return None
        self.entries += 1
        tables.region_calls[rid] += 1
        tables.region_cycles[rid] += next_cycle - cycle
        tables.region_uops[rid] += result[3]
        tables.region_exits[rid][result[1]] += 1
        return result

    # ------------------------------------------------------------- stats

    def stats_dict(self, top: int = 10) -> dict:
        """JSON-ready statistics for benches, the CLI, and CI artifacts."""
        data = self.tables.stats_dict(top=top)
        data["entries"] = self.entries
        data["declines"] = self.declines
        data["bodies_compiled"] = sorted(self._bodies)
        if self.inject is not None:
            data["injected_guard_miss"] = self.inject
        return data


def engine_for(program, config) -> UnitJIT | None:
    """Build a JIT engine if the scalar core's shape supports one.

    The compiled bodies transcribe the width-1 in-order issue path (the
    paper's default unit shape); any other shape — and any run with the
    fast path or the JIT disabled — gets the pure interpreter.
    """
    if not (config.jit and config.fast_path):
        return None
    if config.unit.issue_width != 1 or config.unit.out_of_order:
        return None
    return UnitJIT(program, config)

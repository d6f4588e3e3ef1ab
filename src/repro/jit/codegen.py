"""Source generation for the compiled trace executors.

A generated executor — a **unit window** (:func:`build_source`) —
advances ONE unit for many cycles inside a single Python frame, against
the unit's real state objects (the same ROB list, ``_InFlight``
records, FU port lists, and caches the interpreter uses). It is a
specialized, flattened transcription of ``UnitPipeline.step()`` — same
phase order (commit, resolve, issue, dispatch, fetch, stall
classification, activity), same side effects, driven by the flat
per-word tables of :mod:`repro.jit.blocks` instead of per-uop attribute
chains. Windows serve the scalar core only: a multiscalar unit is
interrupted by ring forwards, stops and squashes too often for a
window to pay (docs/INTERNALS.md §12 has the numbers), so that machine
is interpreter-only and every multiscalar tag bit is ignored here, as
the scalar core ignores it.

Correctness rests on two structural invariants rather than per-effect
guards:

* **All-or-nothing cycles.** The deopt guard (the next word the unit
  would dispatch, checked against the body's dispatch table) is
  evaluated *before* any of a cycle's effects, so a guarded exit
  returns with the flagged cycle completely unexecuted and the
  interpreter simply runs that exact cycle — there is no partial-cycle
  state to repair.
* **Only plain commits in compiled state.** Compiled phases only ever
  run over ROBs whose every record decodes to a window word (no
  syscalls or halts), and the dispatch table admits only such words.
  Compiled control flow is therefore *regular*: branch resolution is
  either a no-op or the plain mispredict flush, jumps redirect fetch,
  and jr/jalr stall it — all transcribed here — while syscall/halt
  runs interpreted.

Executors are specialized per feature set of the live window (memory
ops present, control flow present) and on whether an event bus is
attached — a handful of compiled bodies per engine, cached by key. A
body's dispatch table maps any word whose features it did not compile
to an ``EV_TRACE`` deopt, so a window that branches into a region
needing richer arms exits cleanly and re-enters under the right
variant.
"""

from __future__ import annotations

from repro.isa.executor import next_pc as _arch_next_pc
from repro.isa.memory_image import u32 as _u32
from repro.jit.blocks import (
    K_ALU,
    K_BRANCH,
    K_CALL,
    K_JUMP,
    K_JUMP_REG,
    K_LOAD,
    K_STORE,
)
from repro.observability.events import Category as _Cat
from repro.pipeline.context import StallReason
from repro.pipeline.unit import _InFlight

#: Body-feature bits. F_MEM / F_BRANCH prune the issue arms and the
#: memory / control-flow machinery for windows that provably contain
#: no memory ops / no control flow; F_TRACED compiles in the
#: stall-transition event emission.
F_MEM = 1
F_BRANCH = 2
F_TRACED = 4

_CAT_PIPE = int(_Cat.PIPE)

#: StallReason members and names indexed by their IntEnum value (the
#: executor tracks the current stall id as a small int).
_RS_ENUM = (None,) + tuple(StallReason)
_RS_NAME = (None,) + tuple(reason.name for reason in StallReason)

_R_NONE = int(StallReason.NONE)
_R_INTRA = int(StallReason.INTRA_TASK)
_R_WAIT = int(StallReason.WAIT_RETIRE)
_R_FETCH = int(StallReason.FETCH)

#: Shared sources dict for uops with no register producers: their bound
#: closures never index it (LUI/LI/LA ignore the argument), and gathered
#: source dicts are never mutated after issue, so sharing is safe.
_EMPTY_SRCS: dict = {}


class _Lines:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.depth = 0

    def w(self, text: str = "") -> None:
        self.parts.append("    " * self.depth + text if text else "")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1

    def source(self) -> str:
        return "\n".join(self.parts) + "\n"


def _emit_tables(L: _Lines) -> None:
    """Bind every flat table as a closure cell of the factory.

    LOAD_DEREF beats LOAD_GLOBAL and attribute chains in the per-cycle
    loop.
    """
    w = L.w
    w("KIND = T.kind; LAT = T.lat; FUI = T.fui")
    w("SRCS = T.srcs; DSTS = T.dsts; DST1 = T.dst1")
    w("IMM = T.imm; TGT = T.target; ALUF = T.alu; BRF = T.branch")
    w("EA = T.ea_base; SREG = T.store_reg; INSTR = T.instrs")
    w("UOPS = T.uops; ISREL = T.is_release; ISJAL = T.is_jal")
    w("BLOCK_OF = T.block_of; BENT = T.block_entries")
    w("TB = T.text_base; NW = T.nwords")
    w("IFNEW = _InFlight.__new__")


def _emit_phases(L: _Lines, mem: bool, br: bool, traced: bool,
                 inject_taken: bool) -> None:
    """Emit one unit-cycle of phases (commit through activity).

    The emitted block reads and writes ONLY local names — the caller
    binds them from a pipeline before the block runs, and stores the
    mutated scalars back after it. A non-issue cycle's stall reason is
    charged into the ``counts`` buffer, which the run loop folds:

    in/out scalars   pc fpu fpp pstores unissued didx lsid cur_bid
                     busy last_issue committed_t dispatched_t fetched_t
                     loads_t stores_t
    out scalars      issued rid act (plus scratch)
    aliased state    rob fb lw unres fbv stats counts regs
    bound callables  fetch_group mem_load mem_store
    constants        window fetchq stopc cycle trace tid
    """
    w = L.w

    # ------------------------------------------------------------ commit
    w("# Commit (unguarded: the entry scan and the dispatch table")
    w("# admit only words whose commit is regular).")
    w("committed = 0")
    w("while rob:")
    L.indent()
    w("r0 = rob[0]")
    w("if not r0.issued or cycle < r0.done_cycle or not r0.resolved:")
    L.indent()
    w("break")
    L.dedent()
    w("rob.pop(0)")
    w("committed += 1")
    w("w0 = (r0.pc - TB) >> 2")
    w("ds = DSTS[w0]")
    w("if ds:")
    L.indent()
    w("res = r0.result")
    w("if res is not None:")
    L.indent()
    w("d1 = DST1[w0]")
    w("if d1:")
    L.indent()
    w("regs[d1] = res")
    L.dedent()
    L.dedent()
    w("for d in ds:")
    L.indent()
    w("if lw.get(d) is r0:")
    L.indent()
    w("del lw[d]")
    L.dedent()
    L.dedent()
    L.dedent()
    if mem:
        w(f"if KIND[w0] == {K_STORE}:")
        L.indent()
        w("mem_store(INSTR[w0], r0.ea, r0.store_value, cycle)")
        w("pstores -= 1")
        w("stores_t += 1")
        L.dedent()
    L.dedent()
    w("committed_t += committed")

    # ----------------------------------------------------------- resolve
    if br:
        w("# Resolve ready control (exact _resolve_branches +")
        w("# _apply_resolution with tag bits ignored: a not-taken")
        w("# branch is a no-op, a taken branch is the mispredict flush,")
        w("# and jr/jalr always flush-and-redirect to the target).")
        w("resolved = 0")
        w("if unres:")
        L.indent()
        w("while True:")
        L.indent()
        w("cand = None")
        w("for r in unres:")
        L.indent()
        w("if r.issued and cycle >= r.done_cycle:")
        L.indent()
        w("cand = r")
        w("break")
        L.dedent()
        L.dedent()
        w("if cand is None:")
        L.indent()
        w("break")
        L.dedent()
        w("unres.remove(cand)")
        w("cand.resolved = True")
        w("resolved += 1")
        w("cut = -1")
        w(f"if KIND[(cand.pc - TB) >> 2] == {K_BRANCH}:")
        L.indent()
        if inject_taken:
            # Planted guard miss (difftest.inject_jit_guard_miss): taken
            # branches resolve as no-ops, silently running the wrong path.
            w("if 0:")
        else:
            w("if cand.taken:")
        L.indent()
        w("stats.taken_branch_flushes += 1")
        w("cut = cand.idx")
        L.dedent()
        L.dedent()
        w("else:  # jr / jalr")
        L.indent()
        w("cut = cand.idx")
        L.dedent()
        w("if cut >= 0:")
        L.indent()
        w("keep = [r for r in rob if r.idx <= cut]")
        w("dropped = len(rob) - len(keep)")
        w("if dropped:")
        L.indent()
        w("stats.flushed += dropped")
        w("rob[:] = keep  # in place: body-local aliases must survive")
        w("unres[:] = [r for r in unres if r.idx <= cut]")
        if mem:
            w("pstores = 0")
        w("unissued = 0")
        w("lw.clear()")
        w("for r in keep:")
        L.indent()
        w("wk = (r.pc - TB) >> 2")
        if mem:
            w(f"if KIND[wk] == {K_STORE}:")
            L.indent()
            w("pstores += 1")
            L.dedent()
        w("if not r.issued:")
        L.indent()
        w("unissued += 1")
        L.dedent()
        w("for d in DSTS[wk]:")
        L.indent()
        w("lw[d] = r")
        L.dedent()
        L.dedent()
        L.dedent()
        w("fb.clear()")
        w("fpu = None")
        w("fpp = None")
        w("pc = cand.next_pc")
        L.dedent()
        L.dedent()
        L.dedent()
    else:
        w("resolved = 0")

    # ------------------------------------------------------------- issue
    w("# Issue (in-order, width 1): exact _try_issue transcription.")
    w("issued = 0")
    w("if unissued:")
    L.indent()
    w("rec = rob[-unissued]")
    w("if cycle >= rec.issuable_at:")
    L.indent()
    w("prod = rec.producers")
    w("ok = True")
    w("if prod:")
    L.indent()
    w("srcs = {}")
    w("for reg, pr in prod.items():")
    L.indent()
    w("if pr is None:")
    L.indent()
    w("srcs[reg] = regs[reg]")
    L.dedent()
    w("elif pr.issued and cycle >= pr.done_cycle:")
    L.indent()
    w("srcs[reg] = pr.result")
    L.dedent()
    w("else:")
    L.indent()
    w("ok = False")
    w("break")
    L.dedent()
    L.dedent()
    L.dedent()
    w("else:")
    L.indent()
    w("srcs = EMPTY")
    L.dedent()
    w("if ok:")
    L.indent()
    w("wq = (rec.pc - TB) >> 2")
    w("k = KIND[wq]")
    w("fail = False")
    if mem:
        # Load-ordering constraints (exact _older_unresolved_branch /
        # _older_uncommitted_store transcription).
        w(f"if k == {K_LOAD}:")
        L.indent()
        w("ri = rec.idx")
        w("for b in unres:")
        L.indent()
        w("if b.idx < ri:")
        L.indent()
        w("fail = True")
        w("break")
        L.dedent()
        L.dedent()
        w("if not fail and pstores:")
        L.indent()
        w("for o in rob:")
        L.indent()
        w("if o.idx >= ri:")
        L.indent()
        w("break")
        L.dedent()
        w(f"if KIND[(o.pc - TB) >> 2] == {K_STORE}:")
        L.indent()
        w("fail = True")
        w("break")
        L.dedent()
        L.dedent()
        L.dedent()
        L.dedent()
    w("if not fail:")
    L.indent()
    w("slots = fbv[FUI[wq]]")
    w("if slots[0] > cycle:")
    L.indent()
    w("fail = True  # single FU instance per class (Table 1)")
    L.dedent()
    w("else:")
    L.indent()
    w("done = cycle + LAT[wq]")
    w(f"if k == {K_ALU}:")
    L.indent()
    w("fn = ALUF[wq]")
    w("if fn is not None:")
    L.indent()
    w("rec.result = fn(srcs)")
    L.dedent()
    L.dedent()
    if mem:
        w(f"elif k == {K_LOAD}:")
        L.indent()
        w("rec.ea = ea = u32(srcs[EA[wq]] + IMM[wq])")
        w("v, done = mem_load(INSTR[wq], ea, cycle + 1)")
        w("rec.result = v")
        w("loads_t += 1")
        L.dedent()
        w(f"elif k == {K_STORE}:")
        L.indent()
        w("rec.ea = ea = u32(srcs[EA[wq]] + IMM[wq])")
        w("rec.store_value = srcs[SREG[wq]]")
        L.dedent()
    if br:
        w(f"elif k == {K_BRANCH}:")
        L.indent()
        w("t = BRF[wq](srcs)")
        w("rec.taken = t")
        w("rec.next_pc = TGT[wq] if t else rec.pc + 4")
        L.dedent()
    # Jump/call/jr issue is emitted in every body; one compiled
    # without F_BRANCH never holds such a record.
    w(f"elif k == {K_JUMP} or k == {K_CALL} or k == {K_JUMP_REG}:")
    L.indent()
    w("rec.next_pc = arch_next_pc(INSTR[wq], srcs, rec.pc)")
    w(f"if k == {K_CALL}:")
    L.indent()
    w("rec.result = u32(rec.pc + 4)")
    L.dedent()
    L.dedent()
    w("# SYSCALL / HALT / RELEASE carry no EX-stage result.")
    w("if not fail:")
    L.indent()
    w("slots[0] = cycle + 1")
    w("rec.issued = True")
    w("rec.done_cycle = done")
    w("issued = 1")
    w("unissued -= 1")
    w("busy += 1")
    w("last_issue = cycle")
    L.dedent()
    L.dedent()
    L.dedent()
    L.dedent()
    L.dedent()
    L.dedent()

    # ---------------------------------------------------------- dispatch
    w("# Dispatch (width 1): the head word passed the guard.")
    w("dispatched = 0")
    w("if fb and len(rob) < window:")
    L.indent()
    w("uop, dpc = fb.popleft()")
    w("wd = (dpc - TB) >> 2")
    w("# Inlined _InFlight construction (one record per dispatched")
    w("# instruction): __new__ plus direct slot stores skips the")
    w("# __init__ call frame. Every slot is written — snapshot and")
    w("# interpreter code read them all after a demotion.")
    w("rec = IFNEW(_InFlight)")
    w("rec.uop = uop")
    w("rec.pc = dpc")
    w("rec.idx = didx")
    w("rec.issuable_at = cycle + 1")
    w("rec.blocker = None")
    w("rec.issued = False")
    w("rec.done_cycle = 0")
    w("rec.result = None")
    w("rec.ea = 0")
    w("rec.store_value = None")
    w("rec.taken = False")
    w("rec.resolved = True")
    w("rec.stalled_fetch = False")
    w("rec.next_pc = dpc + 4")
    w("didx += 1")
    w("st = SRCS[wd]")
    w("prod = {}")
    w("rec.producers = prod")
    w("if st and not ISREL[wd]:")
    L.indent()
    w("for reg in st:")
    L.indent()
    w("prod[reg] = lw.get(reg)")
    L.dedent()
    L.dedent()
    w("for dst in DSTS[wd]:")
    L.indent()
    w("lw[dst] = rec")
    L.dedent()
    if mem:
        w(f"if KIND[wd] == {K_STORE}:")
        L.indent()
        w("pstores += 1")
        L.dedent()
    w("rob.append(rec)")
    w("dispatched = 1")
    w("unissued += 1")
    if br:
        w("# Decode-time fetch redirection (exact _dispatch_control")
        w("# with stop = NONE: tag bits are ignored).")
        w("kd = KIND[wd]")
        w(f"if kd == {K_BRANCH}:")
        L.indent()
        w("rec.resolved = False")
        w("unres.append(rec)")
        L.dedent()
        w(f"elif kd == {K_JUMP}:")
        L.indent()
        w("pc = TGT[wd]")
        w("fb.clear()")
        w("fpu = None")
        w("fpp = None")
        L.dedent()
        w(f"elif kd == {K_CALL}:")
        L.indent()
        w("if ISJAL[wd]:")
        L.indent()
        w("pc = TGT[wd]")
        w("fb.clear()")
        w("fpu = None")
        w("fpp = None")
        L.dedent()
        w("else:  # jalr: resolve-time redirect, fetch stalls")
        L.indent()
        w("rec.resolved = False")
        w("rec.stalled_fetch = True")
        w("unres.append(rec)")
        w("pc = None")
        w("fb.clear()")
        w("fpu = None")
        w("fpp = None")
        L.dedent()
        L.dedent()
        w(f"elif kd == {K_JUMP_REG}:")
        L.indent()
        w("rec.resolved = False")
        w("rec.stalled_fetch = True")
        w("unres.append(rec)")
        w("pc = None")
        w("fb.clear()")
        w("fpu = None")
        w("fpp = None")
        L.dedent()
    w("bid = BLOCK_OF[wd]")
    w("if bid != cur_bid:")
    L.indent()
    w("BENT[bid] += 1")
    w("cur_bid = bid")
    L.dedent()
    w("dispatched_t += 1")
    L.dedent()

    # ------------------------------------------------------------- fetch
    w("# Fetch: deliver a due group and/or start the next request.")
    w("fpu_b = fpu")
    w("if fpu is not None:")
    L.indent()
    w("if cycle >= fpu:")
    L.indent()
    w("start_pc = fpp")
    w("fpu = None")
    w("fpp = None")
    w("if start_pc is not None and start_pc == pc:")
    L.indent()
    w("cnt = ((start_pc & ~15) + 16 - start_pc) >> 2")
    w("ws = (start_pc - TB) >> 2")
    w("we = ws + cnt")
    w("if we > NW:")
    L.indent()
    w("we = NW")
    L.dedent()
    w("npc = start_pc")
    w("got = 0")
    w("if ws < we:")
    L.indent()
    w("for fu in UOPS[ws:we]:")
    L.indent()
    w("fb.append((fu, npc))")
    w("npc += 4")
    L.dedent()
    w("got = we - ws")
    L.dedent()
    w("fetched_t += got")
    w("pc = npc if got == cnt else None")
    L.dedent()
    w("if pc is not None and len(fb) < fetchq:")
    L.indent()
    w("fpp = pc")
    w("fpu = fetch_group(pc & ~15, cycle)")
    L.dedent()
    L.dedent()
    L.dedent()
    w("elif pc is not None and len(fb) < fetchq:")
    L.indent()
    w("fpp = pc")
    w("fpu = fetch_group(pc & ~15, cycle)")
    L.dedent()

    # ------------------------------------- stall classification and tail
    w("# Stall classification and transition (exact _classify_stall).")
    w("if issued:")
    L.indent()
    w(f"rid = {_R_NONE}")
    L.dedent()
    w("elif unissued or rob:")
    L.indent()
    w(f"rid = {_R_INTRA}  # a syscall head cannot occur in-window")
    L.dedent()
    w("elif stopc or (pc is None and fpu is None and not fb):")
    L.indent()
    w(f"rid = {_R_WAIT}")
    L.dedent()
    w("else:")
    L.indent()
    w(f"rid = {_R_FETCH}")
    L.dedent()
    w("if rid != lsid:")
    L.indent()
    if traced:
        w(f"if trace is not None and trace.mask & {_CAT_PIPE}:")
        L.indent()
        w(f"trace.emit({_CAT_PIPE}, RSN[rid], cycle, tid)")
        L.dedent()
    w("lsid = rid")
    L.dedent()
    w("if not issued:")
    L.indent()
    w("counts[rid] += 1")
    L.dedent()
    w("act = bool(issued or resolved or committed or dispatched) "
      "or fpu != fpu_b")


def build_source(feat: int, inject_taken: bool = False) -> str:
    """Emit the ``_make(...)`` factory source for one unit-window body.

    The executor advances one unit for many cycles in one flat loop,
    with an in-frame quiescence skip, returning
    ``(next_cycle, exit_code, last_issue_cycle, busy_cycles)``.
    """
    mem = bool(feat & F_MEM)
    br = bool(feat & F_BRANCH)
    traced = bool(feat & F_TRACED)
    L = _Lines()
    w = L.w

    w("def _make(T, XV, RSE, RSN, EMPTY, u32, arch_next_pc, _InFlight):")
    L.indent()
    _emit_tables(L)
    w("def run(p, ctx, cycle, budget, counts):")
    L.indent()
    w("rob = p.rob")
    w("fb = p.fetch_buffer")
    w("lw = p.last_writer")
    w("unres = p.unresolved")
    w("fbv = p.fus._free_by_val")
    w("stats = p.stats")
    if traced:
        w("trace = p.trace")
        w("tid = p.trace_tid")
    w("pc = p.pc")
    w("fpu = p.fetch_pending_until")
    w("fpp = p.fetch_pending_pc")
    w("pstores = p.pending_stores")
    w("unissued = p._unissued")
    w("didx = p._dispatch_idx")
    w("lsid = int(p._last_stall)")
    w("window = p._window")
    w("fetchq = p._fetchq")
    w("stopc = p.stop_committed")
    w("fetch_group = ctx.fetch_group")
    if mem:
        w("mem_load = ctx.mem_load")
        w("mem_store = ctx.mem_store")
    w("regs = ctx.regs")
    w("cur_bid = -1")
    w("busy = 0")
    w("last_issue = -1")
    w("committed_t = 0; dispatched_t = 0; fetched_t = 0")
    w("loads_t = 0; stores_t = 0")
    w("code = 0  # EV_LIMIT unless a guard exits first")
    w("act = True")
    w("while cycle < budget:")
    L.indent()

    # ----------------------------------------------- pre-cycle guard
    # The guard runs before any of the cycle's effects, so a deopt
    # returns with `cycle` unexecuted and the interpreter replays it.
    w("# Guard: the next word to dispatch must be admitted by this")
    w("# body's dispatch table; syscalls/halts and words needing")
    w("# uncompiled arms deopt by exit kind.")
    w("if fb:")
    L.indent()
    w("x = XV[(fb[0][1] - TB) >> 2]")
    w("if x >= 0:")
    L.indent()
    w("code = x")
    w("break")
    L.dedent()
    L.dedent()

    _emit_phases(L, mem, br, traced, inject_taken)

    w("nxt = cycle + 1")
    w("if not act:")
    L.indent()
    w("# In-frame quiescence skip: identical to the run loop's")
    w("# wake_cycle skip (budget is the run loop's limit).")
    w("p._activity = False")
    w("p.fetch_pending_until = fpu")
    w("p.pending_stores = pstores")
    w("wake = p.wake_cycle(cycle)")
    w("if wake > nxt:")
    L.indent()
    w("if wake > budget:")
    L.indent()
    w("wake = budget")
    L.dedent()
    w("if wake > nxt:")
    L.indent()
    w("counts[lsid] += wake - nxt")
    w("nxt = wake")
    L.dedent()
    L.dedent()
    L.dedent()
    w("cycle = nxt")
    L.dedent()  # end while

    # --------------------------------------------------------- writeback
    w("p.pc = pc")
    w("p.fetch_pending_until = fpu")
    w("p.fetch_pending_pc = fpp")
    w("p.pending_stores = pstores")
    w("p._unissued = unissued")
    w("p._dispatch_idx = didx")
    w("p._last_stall = RSE[lsid]")
    w("p._activity = act")
    w("stats.committed += committed_t")
    w("stats.dispatched += dispatched_t")
    w("stats.fetched += fetched_t")
    w("stats.issued += busy")
    w("stats.loads += loads_t")
    w("stats.stores += stores_t")
    w("return cycle, code, last_issue, busy")
    L.dedent()
    w("return run")
    L.dedent()
    return L.source()


def compile_body(tables, xdok: list, feat: int,
                 inject_taken: bool = False):
    """Compile one unit-window variant and bind it over ``tables``."""
    src = build_source(feat, inject_taken)
    namespace: dict = {}
    exec(compile(src, f"<jit:scalar:trace:feat{feat}>", "exec"),
         namespace)
    return namespace["_make"](tables, xdok, _RS_ENUM, _RS_NAME,
                              _EMPTY_SRCS, _u32, _arch_next_pc, _InFlight)

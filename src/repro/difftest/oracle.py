"""The multi-backend differential oracle.

For one generated program the oracle runs:

* :class:`FunctionalCPU` on the scalar binary — the reference
  semantics;
* :class:`FunctionalCPU` on the annotated binary — cross-checked
  against the scalar reference (the annotation pass must preserve
  program semantics);
* :class:`ScalarProcessor` and :class:`MultiscalarProcessor` instances
  across a configuration grid.

Each timing backend is diffed against the functional run *of the same
binary*: final program output, the final register file (scalar only —
a multiscalar machine legitimately drops dead registers that are
outside every create mask), the final committed-memory delta, and the
retired dynamic instruction count. Multiscalar runs additionally carry
machine invariants, checked on the finished machine and folded from
the ``task`` events of an attached
:class:`~repro.observability.EventBus`:

* cycle accounting is exhaustive (``distribution.total() == units *
  cycles``);
* the ARB is empty once the machine halts — no speculative store
  survives retirement;
* every assigned task is retired or squashed, exactly once, and tasks
  retire in sequence order;
* ring mask consistency: a task that retired through a stop point has
  forwarded every register in its create mask, and no in-flight ring
  message names a task the sequencer never created.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.difftest.generator import GeneratedProgram
from repro.difftest.injection import use_backend
from repro.engine.job import SimJob
from repro.isa import FunctionalCPU, Program
from repro.isa.memory_image import PAGE_SIZE, SparseMemory
from repro.observability import Category, EventBus

DEFAULT_MAX_INSTRUCTIONS = 400_000
DEFAULT_MAX_CYCLES = 4_000_000


class ProgramInvalid(Exception):
    """The generated program cannot serve as an oracle input (it fails
    to compile or the *reference* run itself errors out). The fuzzer
    skips such programs; the shrinker treats them as uninteresting."""


def full_grid(units=(1, 2, 4, 8), widths=(1, 2),
              orders=(False, True),
              fast_paths=(True,)) -> list[dict]:
    """Every multiscalar configuration of the paper's evaluation grid.

    A timing backend is a dict of :class:`SimJob` machine fields
    (``kind`` and any of ``units``, ``issue_width``, ``out_of_order``,
    ``fast_path``, ``jit`` or a machine axis); :func:`check_program`
    binds it to each program as a job."""
    return [{"kind": "multiscalar", "units": u, "issue_width": w,
             "out_of_order": o, "fast_path": fp}
            for u in units for w in widths for o in orders
            for fp in fast_paths]


#: Default per-program grid: the scalar baseline plus three multiscalar
#: shapes covering few/many units and in-order/out-of-order issue. The
#: campaign rotates through :func:`full_grid` on top of this.
DEFAULT_GRID = (
    {"kind": "scalar"},
    {"kind": "multiscalar", "units": 2},
    {"kind": "multiscalar", "units": 4},
    {"kind": "multiscalar", "units": 8, "issue_width": 2,
     "out_of_order": True},
)


def backend_label(backend: dict) -> str:
    """A backend's name in reports: its job's label after the program
    name (``scalar:1w-io-nojit``, ``ms:4u-1w-io-ref``)."""
    return SimJob(**backend, source="").label().partition(":")[2]


@dataclass(frozen=True)
class Divergence:
    """One observed difference between a backend and its reference."""

    backend: str
    aspect: str                   # output / registers / memory / ...
    expected: str
    actual: str

    def __str__(self) -> str:
        return (f"[{self.backend}] {self.aspect}: "
                f"expected {self.expected}, got {self.actual}")


@dataclass
class DiffReport:
    program: GeneratedProgram
    backends_run: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = [f"program: {self.program.describe()}",
                 f"backends: {', '.join(self.backends_run)}"]
        if self.ok:
            lines.append("no divergences")
        else:
            lines.extend(str(d) for d in self.divergences)
        return "\n".join(lines)


# ======================================================= program loading

def _bind(generated: GeneratedProgram, backend: dict,
          max_cycles: int = DEFAULT_MAX_CYCLES) -> SimJob:
    """``backend`` as the job that runs ``generated`` on it."""
    entries = generated.task_entries() if generated.language == "asm" \
        else ()
    return SimJob(**backend, source=generated.source(),
                  language=generated.language, entries=tuple(entries),
                  max_cycles=max_cycles)


def compile_backends(generated: GeneratedProgram) -> tuple[Program, Program]:
    """(scalar binary, annotated multiscalar binary) for one program."""
    try:
        return tuple(_bind(generated, {"kind": kind}).program()[0]
                     for kind in ("scalar", "multiscalar"))
    except Exception as exc:
        raise ProgramInvalid(f"compile failed: {exc}") from exc


# ============================================================== outcomes

@dataclass
class Outcome:
    """Architectural result of one run, reduced to comparable form."""

    output: str = ""
    regs: tuple = ()
    memory: tuple = ()            # sorted (addr, byte) committed delta
    instructions: int = 0
    #: Timing backends only. Never diffed against the functional
    #: reference (which has no clock); diffed across backends that
    #: model the *same machine* under different simulator knobs
    #: (fast-path vs reference, jit vs interpreter), which must agree
    #: cycle-for-cycle.
    cycles: int = 0
    error: str = ""
    invariant_failures: tuple = ()


def memory_delta(initial: SparseMemory,
                 final: SparseMemory) -> tuple[tuple[int, int], ...]:
    """Bytes where ``final`` differs from ``initial``, sorted by address."""
    delta = []
    pages = set(initial._pages) | set(final._pages)
    blank = bytes(PAGE_SIZE)
    for index in sorted(pages):
        before = initial._pages.get(index) or blank
        after = final._pages.get(index) or blank
        if bytes(before) == bytes(after):
            continue
        base = index * PAGE_SIZE
        for offset, (old, new) in enumerate(zip(before, after)):
            if old != new:
                delta.append((base + offset, new))
    return tuple(delta)


def run_functional(program: Program,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   ) -> Outcome:
    with use_backend("functional"):
        cpu = FunctionalCPU(program)
        try:
            cpu.run(max_instructions=max_instructions)
        except Exception as exc:
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(
            output=cpu.output,
            regs=tuple(cpu.state.regs),
            memory=memory_delta(program.initial_memory(), cpu.state.memory),
            instructions=cpu.instruction_count)


def _lifecycle_failures(events, ring_senders=()) -> list[str]:
    """Fold a ``task``-category event stream into the lifecycle
    invariants it breaks (none for a healthy run): every assigned task
    retired or squashed exactly once, retirement in sequence order, no
    retire that left create-mask registers unforwarded, and no ring
    message (by ``ring_senders`` seq) from a task never assigned."""
    assigned: set[int] = set()
    retired: list[int] = []
    squashed: set[int] = set()
    failures = []
    for event in events:
        seq = event.args["seq"]
        if event.name == "assign":
            assigned.add(seq)
        elif event.name == "squash":
            squashed.add(seq)
        elif event.name == "retire":
            retired.append(seq)
            if "unforwarded" in event.args:
                failures.append(
                    f"task seq {seq} retired without forwarding "
                    f"create-mask registers {event.args['unforwarded']}")
    accounted = set(retired) | squashed
    if accounted != assigned:
        lost = sorted(assigned - accounted)
        phantom = sorted(accounted - assigned)
        failures.append(
            f"task accounting leak: lost={lost} phantom={phantom}")
    if len(retired) != len(set(retired)):
        failures.append("a task retired more than once")
    if retired != sorted(retired):
        failures.append(f"tasks retired out of sequence order: {retired}")
    if set(retired) & squashed:
        both = sorted(set(retired) & squashed)
        failures.append(f"tasks both retired and squashed: {both}")
    ghosts = [seq for seq in ring_senders if seq not in assigned]
    if ghosts:
        failures.append(
            f"ring carries messages from never-assigned tasks: {ghosts}")
    return failures


def _check_invariants(processor, result, events) -> tuple:
    failures = []
    dist_total = result.distribution.total()
    expected_total = processor.num_units * result.cycles
    if dist_total != expected_total:
        failures.append(
            f"cycle accounting not exhaustive: distribution covers "
            f"{dist_total} unit-cycles, machine ran {expected_total}")
    if not processor.arb.is_empty():
        failures.append(
            f"ARB not empty after halt: {processor.arb.entry_count()} "
            f"speculative entries survived retirement")
    senders = [m.sender_seq for link in processor.ring._links for m in link]
    return tuple(failures + _lifecycle_failures(events, senders))


def run_backend(job: SimJob, program: Program) -> Outcome:
    """Run ``program`` on ``job``'s timing machine; a multiscalar run
    also checks the machine invariants."""
    with use_backend(job.kind):
        processor = job.processor(program)
        multi = job.kind == "multiscalar"
        bus = EventBus(Category.TASK).attach(processor) if multi else None
        try:
            result = processor.run(max_cycles=job.max_cycles)
        except Exception as exc:
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(
            output=result.output,
            regs=tuple(processor.arch_regs if multi else processor.regs),
            memory=memory_delta(program.initial_memory(), processor.memory),
            instructions=result.instructions,
            cycles=result.cycles,
            invariant_failures=_check_invariants(processor, result, bus)
            if multi else ())


# ============================================================ comparison

def _compare(backend: str, reference: Outcome, observed: Outcome,
             check_regs: bool) -> list[Divergence]:
    if observed.error:
        return [Divergence(backend, "error", "clean run", observed.error)]
    divergences = []
    if observed.output != reference.output:
        divergences.append(Divergence(
            backend, "output", repr(reference.output),
            repr(observed.output)))
    if check_regs and observed.regs != reference.regs:
        diffs = [f"r{i}={obs!r}(want {ref!r})"
                 for i, (ref, obs) in enumerate(zip(reference.regs,
                                                    observed.regs))
                 if ref != obs][:8]
        divergences.append(Divergence(
            backend, "registers", "functional register file",
            ", ".join(diffs)))
    if observed.memory != reference.memory:
        want = dict(reference.memory)
        got = dict(observed.memory)
        wrong = [f"[{addr:#x}]={got.get(addr, '∅')}"
                 f"(want {want.get(addr, '∅')})"
                 for addr in sorted(set(want) | set(got))
                 if want.get(addr) != got.get(addr)][:8]
        divergences.append(Divergence(
            backend, "memory", "functional memory image",
            ", ".join(wrong)))
    if observed.instructions != reference.instructions:
        divergences.append(Divergence(
            backend, "instructions", str(reference.instructions),
            str(observed.instructions)))
    for failure in observed.invariant_failures:
        divergences.append(Divergence(backend, "invariant", "holds",
                                      failure))
    return divergences


def check_program(generated: GeneratedProgram,
                  grid: tuple[dict, ...] = DEFAULT_GRID,
                  max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                  max_cycles: int = DEFAULT_MAX_CYCLES) -> DiffReport:
    """Run one generated program across the grid and diff everything."""
    scalar_bin, multi_bin = compile_backends(generated)
    ref_scalar = run_functional(scalar_bin, max_instructions)
    if ref_scalar.error:
        raise ProgramInvalid(f"reference run failed: {ref_scalar.error}")
    ref_multi = run_functional(multi_bin, max_instructions)
    if ref_multi.error:
        raise ProgramInvalid(
            f"annotated reference run failed: {ref_multi.error}")
    report = DiffReport(program=generated)
    # The annotation pass must preserve observable semantics. (Register
    # files and memory may differ in dead state — release insertion
    # shifts code addresses, hence $ra values and stack words.)
    report.backends_run.append("functional:annotated")
    if ref_multi.output != ref_scalar.output:
        report.divergences.append(Divergence(
            "functional:annotated", "output", repr(ref_scalar.output),
            repr(ref_multi.output)))
    # Backends that model the same machine under different simulator
    # knobs (fast-path vs reference, jit vs interpreter) must agree on
    # the cycle count too — the functional reference has no clock, so
    # this is the only check that can catch a timing-only JIT bug.
    machine_cycles: dict[SimJob, tuple[str, int]] = {}
    for backend in grid:
        job = _bind(generated, backend, max_cycles)
        label = backend_label(backend)
        report.backends_run.append(label)
        scalar = job.kind == "scalar"
        outcome = run_backend(job, scalar_bin if scalar else multi_bin)
        report.divergences.extend(_compare(
            label, ref_scalar if scalar else ref_multi, outcome,
            check_regs=scalar))
        if outcome.error:
            continue
        machine = replace(job, fast_path=True, jit=True)
        seen = machine_cycles.get(machine)
        if seen is None:
            machine_cycles[machine] = (label, outcome.cycles)
        elif seen[1] != outcome.cycles:
            report.divergences.append(Divergence(
                label, "cycles",
                f"{seen[1]} (as {seen[0]})", str(outcome.cycles)))
    return report

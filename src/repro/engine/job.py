"""The engine's job model: one simulation request, content-addressed.

A :class:`SimJob` names everything that determines a simulation's
result — the program (a registered workload or an inline source), the
backend kind, and the machine configuration axes. :meth:`SimJob.key`
hashes all of it together with a fingerprint of the simulator's own
source code, so a cached result self-invalidates the moment either the
program or the simulator changes.

Executing a job yields a *payload*: a small JSON-serializable dict
(``{"type": ..., "result": ...}``) that round-trips through the
persistent store and reconstructs the original result object via
:func:`result_from_payload`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from dataclasses import replace as _dc_replace

from repro.compiler.knobs import CompilerKnobs
from repro.config import MachineConfig, multiscalar_config, scalar_config
from repro.core.results import MultiscalarResult, ScalarResult

#: Bump when the job-key recipe or payload layout changes shape.
JOB_SCHEMA_VERSION = 2

DEFAULT_MAX_CYCLES = 20_000_000


class SimulationMismatchError(RuntimeError):
    """A simulated run produced output that differs from the workload's
    expected output. Raised unconditionally (unlike a bare ``assert``,
    it survives ``python -O``); the engine reports it as a *job
    failure*, never as a worker crash."""


#: Per-process memo for :func:`code_fingerprint`, seeded from (and
#: published to) the environment so pool workers inherit the parent's
#: fingerprint instead of re-hashing the whole package per process.
_FINGERPRINT_ENV = "REPRO_CODE_FINGERPRINT"
_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file, so results cached by one
    version of the simulator are invisible to every other version."""
    global _fingerprint
    if _fingerprint is None:
        inherited = os.environ.get(_FINGERPRINT_ENV)
        if inherited:
            _fingerprint = inherited
        else:
            import repro

            root = Path(repro.__file__).parent
            digest = hashlib.sha256()
            for path in sorted(root.rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
            _fingerprint = digest.hexdigest()[:16]
            os.environ[_FINGERPRINT_ENV] = _fingerprint
    return _fingerprint


#: The machine axes a job sets beyond units, issue width and issue
#: order: the one place a machine axis is declared. ``SimJob`` field ->
#: (dotted ``MachineConfig`` path, allowed values, scale). No allowed
#: values means any ``int >= 1``, and an int row's config value is the
#: job's times ``scale``. ``SimJob``'s checks, :meth:`SimJob.key` and
#: :meth:`SimJob.machine_config` loop over it; each field's default is
#: the paper's Section-5.1 machine.
MACHINE_AXES: dict[str, tuple[str, tuple, int]] = {
    "ring_hop": ("ring_hop_latency", (), 1),
    "arb_entries": ("memory.arb_entries_per_bank", (), 1),
    "dcache_bank_kb": ("memory.dcache_bank_size", (), 1024),
    "pred_history": ("predictor.history_entries", (), 1),
    "pred_pattern": ("predictor.pattern_entries", (), 1),
    "arb_full_policy": ("arb_full_policy", ("squash", "stall"), 1),
    "predictor_static": ("predictor_static", (False, True), 1),
    "shared_fp_units": ("shared_fp_units", (False, True), 1),
}


#: The compiler knobs a job sets (annotated binaries only), as
#: ``SimJob`` fields named like :class:`CompilerKnobs`' own.
COMPILER_KNOBS = ("task_size", "loop_cut", "create_mask")


def _admits(values: tuple, value) -> bool:
    """Whether ``value`` is one of an axis's allowed ``values`` (a
    ``bool`` is never an int here, nor ``1`` a ``True``)."""
    if not values:
        return type(value) is int and value >= 1
    return value in values and type(value) in map(type, values)


def _with(obj, path: str, value):
    """Frozen dataclass ``obj`` with its dotted attribute ``path`` set."""
    head, _, rest = path.partition(".")
    if rest:
        value = _with(getattr(obj, head), rest, value)
    return _dc_replace(obj, **{head: value})


@dataclass(frozen=True)
class SimJob:
    """One simulation request.

    ``kind`` is ``"scalar"`` (timing baseline), ``"multiscalar"``
    (timing, ``units`` processing units), or ``"count"`` (functional
    dynamic-instruction count). The program is either a registered
    workload (``workload`` set) or an inline source (``source`` +
    ``language`` + ``entries``).
    """

    kind: str
    workload: str | None = None
    source: str | None = None
    language: str = "minic"            # inline programs: "minic" | "asm"
    entries: tuple[str, ...] = ()      # inline programs: task entries
    annotated: bool = False            # count jobs: which binary
    units: int = 1
    issue_width: int = 1
    out_of_order: bool = False
    max_cycles: int = DEFAULT_MAX_CYCLES
    #: Simulator knob, not a machine axis: False forces the reference
    #: per-cycle path. Results are cycle-exact either way, but the key
    #: still separates the two so ``--no-fast-path`` runs never serve
    #: (or pollute) fast-path cache entries.
    fast_path: bool = True
    #: Simulator knob: False disables the scalar core's trace-JIT
    #: (``--no-jit``). Cycle-exact either way, but keyed separately
    #: for the same reason as ``fast_path`` — on every kind, though a
    #: multiscalar machine is interpreter-only and ignores it.
    jit: bool = True
    # -------- machine axes (MACHINE_AXES), at the paper's Section-5.1
    #: Cycles per ring hop.
    ring_hop: int = 1
    #: ARB entries per data-cache bank.
    arb_entries: int = 256
    #: Predictor first-level (history) table entries.
    pred_history: int = 64
    #: Predictor second-level (pattern) table entries.
    pred_pattern: int = 4096
    #: Data-cache bank size in KB.
    dcache_bank_kb: int = 8
    #: What a full ARB does (Section 2.3): "squash" or "stall".
    arb_full_policy: str = "squash"
    #: Always predict a task's first target instead of PAs.
    predictor_static: bool = False
    #: One FP and one complex-integer unit shared by all units.
    shared_fp_units: bool = False
    # -------- compiler knobs (annotated binaries only)
    #: Static-instruction task-size cap, 0 = unlimited.
    task_size: int = 0
    #: Loop-cutting strategy: "marked" | "all" | "none".
    loop_cut: str = "marked"
    #: Create-mask policy: "pruned" | "maydef".
    create_mask: str = "pruned"

    def __post_init__(self) -> None:
        if self.kind not in ("scalar", "multiscalar", "count"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if (self.workload is None) == (self.source is None):
            raise ValueError("exactly one of workload/source required")
        if self.language not in ("minic", "asm"):
            raise ValueError(f"language must be 'minic' or 'asm', "
                             f"not {self.language!r}")
        # A machine that cannot exist must not reach a worker: zero
        # units spin to the livelock deadline, a zero budget times out
        # at once, and Table 1 defines 1- and 2-way units only.
        if self.units < 1:
            raise ValueError(f"units must be at least 1, not {self.units}")
        if self.issue_width not in (1, 2):
            raise ValueError(
                f"issue_width must be 1 or 2, not {self.issue_width}")
        if self.max_cycles < 1:
            raise ValueError(
                f"max_cycles must be at least 1, not {self.max_cycles}")
        for name, (_, values, _) in MACHINE_AXES.items():
            value = getattr(self, name)
            if not _admits(values, value):
                allowed = " or ".join(map(repr, values))
                raise ValueError(f"{name} must be {allowed or 'an int >= 1'}"
                                 f", not {value!r}")
            # A dataclass field's class attribute is its default.
            if self.kind != "multiscalar" and value != getattr(SimJob, name):
                raise ValueError(
                    f"{name} is a machine axis: multiscalar jobs only")
        # Raises ValueError on a bad knob combination.
        if not self._annotated() and self.compiler_knobs() is not None:
            raise ValueError(
                "compiler knobs only apply to annotated binaries")

    def compiler_knobs(self) -> CompilerKnobs | None:
        """The job's knob setting, or ``None`` at the defaults (so the
        per-workload compile cache shares one entry with callers that
        never pass knobs)."""
        knobs = CompilerKnobs(**{name: getattr(self, name)
                                 for name in COMPILER_KNOBS})
        return None if knobs.is_default else knobs

    # ---------------------------------------------------------- identity

    def _program_identity(self) -> dict:
        if self.workload is not None:
            spec = _workload_spec(self.workload)
            return {
                "workload": self.workload,
                "source_sha": hashlib.sha256(
                    spec.source.encode()).hexdigest(),
                "entries": list(spec.extra_entries),
            }
        return {
            "language": self.language,
            "source_sha": hashlib.sha256(self.source.encode()).hexdigest(),
            "entries": list(self.entries),
        }

    def key(self) -> str:
        """Content-addressed cache key (hex)."""
        material = {
            "schema": JOB_SCHEMA_VERSION,
            "code": code_fingerprint(),
            "kind": self.kind,
            "program": self._program_identity(),
            "annotated": self._annotated(),
            "units": self.units,
            "issue_width": self.issue_width,
            "out_of_order": self.out_of_order,
            "max_cycles": self.max_cycles,
            "fast_path": self.fast_path,
            "jit": self.jit,
            "hardware": {name: getattr(self, name) for name in MACHINE_AXES},
            "knobs": {name: getattr(self, name) for name in COMPILER_KNOBS},
        }
        blob = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def describe(self) -> dict:
        """Human-readable job description stored next to each result."""
        data = self.spec()
        if self.source is not None and len(data["source"]) > 200:
            data["source"] = data["source"][:200] + "..."
        return data

    def spec(self) -> dict:
        """Full, lossless JSON form (unlike :meth:`describe`, which
        truncates inline sources); inverse of :meth:`from_spec`. This
        is the wire format ``repro.server`` clients submit."""
        return vars(self) | {"entries": list(self.entries)}

    @classmethod
    def from_spec(cls, spec: dict) -> "SimJob":
        """Rebuild a job from :meth:`spec` output (unknown fields are
        rejected, so a malformed submission fails loudly)."""
        fields = dict(spec)
        fields["entries"] = tuple(fields.get("entries", ()))
        return cls(**fields)

    def label(self) -> str:
        """Short name for logs, errors and server records: program,
        kind and machine shape, then every machine axis and compiler
        knob that differs from the paper's default (a paper-default
        job's label has no such suffix). The shape ends in ``-ref``
        without the fast path, or in ``-nojit`` for a scalar job with
        the fast path but no trace-JIT (the knob selects nothing on
        the multiscalar machine, so it earns no suffix there)."""
        name = self.workload or f"<inline {self.language}>"
        order = "ooo" if self.out_of_order else "io"
        knob = "" if self.fast_path else "-ref"
        if self.kind == "scalar":
            if self.fast_path and not self.jit:
                knob = "-nojit"
            label = f"{name}:scalar:{self.issue_width}w-{order}{knob}"
        elif self.kind == "multiscalar":
            label = (f"{name}:ms:{self.units}u-{self.issue_width}w-"
                     f"{order}{knob}")
        else:
            label = f"{name}:count:{'multi' if self.annotated else 'scalar'}"
        changed = [f"{axis}={getattr(self, axis)}"
                   for axis in (*MACHINE_AXES, *COMPILER_KNOBS)
                   if getattr(self, axis) != getattr(SimJob, axis)]
        return f"{label}:{','.join(changed)}" if changed else label

    def _annotated(self) -> bool:
        return self.kind == "multiscalar" or self.annotated

    # --------------------------------------------------------- execution

    def program(self):
        """``(program, expected output or None)``: the binary this job
        runs, compiled or assembled and, for a multiscalar or annotated
        count job, annotated under the job's compiler knobs. The first
        half of the program/processor seam; a caller that runs one
        binary on several machines builds it once and hands it to each
        machine's :meth:`processor`."""
        knobs = self.compiler_knobs()
        if self.workload is not None:
            spec = _workload_spec(self.workload)
            program = spec.multiscalar_program(knobs=knobs) \
                if self._annotated() else spec.scalar_program()
            return program, spec.expected_output
        if self.language == "asm":
            from repro.compiler.annotate import annotate_program
            from repro.isa.assembler import assemble

            program = assemble(self.source)
            if self._annotated():
                program = annotate_program(
                    program, task_entries=list(self.entries), knobs=knobs)
        else:
            from repro.minic.driver import compile_and_annotate, compile_scalar

            if self._annotated():
                program = compile_and_annotate(
                    self.source, extra_entries=list(self.entries),
                    knobs=knobs)
            else:
                program = compile_scalar(self.source)
        return program, None

    def processor(self, program):
        """A fresh, unrun timing machine of this job's kind, shape and
        machine axes, loaded with ``program``: the second half of the
        program/processor seam, and the one place in the package that
        builds a processor. Only a scalar job loads the scalar core
        (and with it the trace-JIT); a count job has no machine."""
        if self.kind == "scalar":
            from repro.core.scalar import ScalarProcessor

            return ScalarProcessor(program, scalar_config(
                self.issue_width, self.out_of_order,
                fast_path=self.fast_path, jit=self.jit))
        if self.kind == "multiscalar":
            from repro.core.processor import MultiscalarProcessor

            return MultiscalarProcessor(program, self.machine_config())
        raise ValueError("a count job runs no timing machine")

    def machine_config(self) -> MachineConfig:
        """The multiscalar :class:`~repro.config.MachineConfig` this job
        simulates: the paper's Section-5.1 machine with the job's
        machine axes applied."""
        cfg = multiscalar_config(self.units, self.issue_width,
                                 self.out_of_order,
                                 fast_path=self.fast_path, jit=self.jit)
        for name, (path, _, scale) in MACHINE_AXES.items():
            value = getattr(self, name)
            cfg = _with(cfg, path, value * scale if scale != 1 else value)
        return cfg

    def _verify(self, output: str, expected: str | None) -> None:
        if expected is not None and output != expected:
            raise SimulationMismatchError(
                f"{self.label()}: simulated output {output!r} does not "
                f"match expected {expected!r}")


# ------------------------------------------------------------ constructors

def scalar_job(name: str, issue_width: int = 1, out_of_order: bool = False,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               fast_path: bool = True, jit: bool = True) -> SimJob:
    """A scalar-baseline timing job for the named workload."""
    return SimJob(kind="scalar", workload=name, issue_width=issue_width,
                  out_of_order=out_of_order, max_cycles=max_cycles,
                  fast_path=fast_path, jit=jit)


def multiscalar_job(name: str, units: int, issue_width: int = 1,
                    out_of_order: bool = False,
                    max_cycles: int = DEFAULT_MAX_CYCLES,
                    fast_path: bool = True, jit: bool = True) -> SimJob:
    """A multiscalar timing job for the named workload, on the paper's
    machine with the default compiler knobs (a job that sets a machine
    axis or a knob builds :class:`SimJob` itself)."""
    return SimJob(kind="multiscalar", workload=name, units=units,
                  issue_width=issue_width, out_of_order=out_of_order,
                  max_cycles=max_cycles, fast_path=fast_path, jit=jit)


def count_job(name: str, annotated: bool) -> SimJob:
    """A functional dynamic-instruction-count job (no timing)."""
    return SimJob(kind="count", workload=name, annotated=annotated)


def _workload_spec(name: str):
    from repro.workloads import WORKLOADS

    return WORKLOADS[name]


# --------------------------------------------------------------- execution

def import_execution_modules() -> None:
    """Import everything :func:`execute` touches, in this process, now.

    The import graph is lazy so that a run served from the store never
    loads the toolchain or the simulator. The price: ``WorkerPool``
    forks one child *per job* and children inherit the parent's
    ``sys.modules``, so a parent that forks before loading the
    simulator makes every child import it again. Whoever is about to
    fork workers that will run :func:`execute` calls this first
    (docs/INTERNALS.md, "import layering"); :func:`execute` itself
    imports only what its job runs — a multiscalar job never loads
    ``repro.jit``, which serves the scalar core alone.
    """
    import repro.compiler.annotate
    import repro.core.processor
    import repro.core.scalar
    import repro.isa.executor
    import repro.jit.engine
    import repro.minic.driver
    import repro.observability.metrics
    import repro.workloads


def execute(job: SimJob) -> dict:
    """Run one job to completion, returning its JSON-able payload.

    A job is deterministic, so a retry after a killed worker simply
    runs it again from cycle 0 and yields the same bytes — as the
    paper's machine squashes a task and re-executes it from its start.
    """
    from repro.isa.executor import FunctionalCPU
    from repro.observability.metrics import collect_metrics

    program, expected = job.program()
    if job.kind == "count":
        cpu = FunctionalCPU(program)
        cpu.run()
        job._verify(cpu.output, expected)
        return {"type": "count", "count": cpu.instruction_count}
    processor = job.processor(program)
    result = processor.run(max_cycles=job.max_cycles)
    job._verify(result.output, expected)
    return {"type": job.kind, "result": result.to_dict(),
            "metrics": collect_metrics(processor).to_dict()}


def result_from_payload(payload: dict):
    """Reconstruct the native result object from a stored payload."""
    if payload["type"] == "scalar":
        return ScalarResult.from_dict(payload["result"])
    if payload["type"] == "multiscalar":
        return MultiscalarResult.from_dict(payload["result"])
    if payload["type"] == "count":
        return int(payload["count"])
    raise ValueError(f"unknown payload type {payload['type']!r}")


def metrics_from_payload(payload: dict):
    """Reconstruct the run's MetricsRegistry, or ``None`` for payloads
    that predate metrics (old cache entries) or carry none (count
    jobs)."""
    data = payload.get("metrics")
    if data is None:
        return None
    from repro.observability.metrics import MetricsRegistry

    return MetricsRegistry.from_dict(data)

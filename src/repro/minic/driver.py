"""Compilation drivers: MinC source to runnable binaries.

``compile_scalar`` produces the baseline binary (no task annotations);
``compile_and_annotate`` runs the full multiscalar pipeline — compile,
assemble, and annotate with the ``parallel`` loops as task entries.
Extra task entry labels can be supplied for manual partitioning hints
(the paper's espresso and sc required exactly such hints).
"""

from __future__ import annotations

from repro.compiler.annotate import annotate_program
from repro.compiler.knobs import CompilerKnobs
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.minic.codegen import CompiledUnit, compile_minic


def compile_scalar(source: str, name: str = "<minc>") -> Program:
    """Compile MinC to an unannotated (scalar) binary."""
    unit = compile_minic(source, name)
    return assemble(unit.asm, name)


def compile_and_annotate(source: str, name: str = "<minc>",
                         extra_entries: list[str] | None = None,
                         knobs: CompilerKnobs | None = None) -> Program:
    """Compile MinC to an annotated multiscalar binary.

    Task entries are the headers of ``parallel`` loops plus any
    ``extra_entries`` labels (which must exist in the generated
    assembly; use :func:`repro.minic.compile_minic` to inspect it).
    ``knobs`` tunes the partitioning heuristics
    (:class:`~repro.compiler.CompilerKnobs`; ``None`` = defaults).
    """
    return annotate_unit(compile_minic(source, name), name, extra_entries,
                         knobs)


def annotate_unit(unit: CompiledUnit, name: str = "<minc>",
                  extra_entries: list[str] | None = None,
                  knobs: CompilerKnobs | None = None) -> Program:
    """The back half of :func:`compile_and_annotate`: assemble an
    already-compiled unit and annotate it. Callers that re-partition
    one source under many knob settings compile the front end once and
    call this per setting (the unit is only read)."""
    program = assemble(unit.asm, name)
    entries = list(unit.task_labels) + list(extra_entries or [])
    return annotate_program(program, task_entries=entries, knobs=knobs)

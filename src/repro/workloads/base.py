"""Common machinery for workload definitions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

# The toolchain is imported by the compile functions at the bottom, on
# first use: a workload's source text is all a cache-key hash needs.
if TYPE_CHECKING:
    from repro.compiler.knobs import CompilerKnobs
    from repro.isa.program import Program
    from repro.minic.codegen import CompiledUnit


def lcg(seed: int):
    """Deterministic 31-bit linear congruential generator."""
    state = seed & 0x7FFFFFFF
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def lcg_ints(seed: int, count: int, modulus: int) -> list[int]:
    gen = lcg(seed)
    return [next(gen) % modulus for _ in range(count)]


def render_int_array(name: str, values: list[int]) -> str:
    """Render a MinC global int array with initializers."""
    body = ", ".join(str(v) for v in values)
    return f"int {name}[{len(values)}] = {{{body}}};"


def render_float_array(name: str, values: list[float]) -> str:
    body = ", ".join(repr(round(v, 6)) for v in values)
    return f"float {name}[{len(values)}] = {{{body}}};"


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark kernel: source, partitioning, expected output."""

    name: str
    paper_benchmark: str
    description: str
    source: str
    expected_output: str
    extra_entries: tuple[str, ...] = ()
    #: What the paper says about this benchmark's multiscalar behaviour
    #: (drives the expectations recorded in EXPERIMENTS.md).
    paper_notes: str = ""

    def scalar_program(self) -> Program:
        return _compile_scalar_cached(self.source, self.name)

    def multiscalar_program(self,
                            knobs: CompilerKnobs | None = None) -> Program:
        """The annotated binary, optionally re-partitioned under a
        non-default :class:`~repro.compiler.CompilerKnobs` setting
        (the design-space search compiles one binary per knob point)."""
        return _compile_multiscalar_cached(self.source, self.name,
                                           self.extra_entries, knobs)


@lru_cache(maxsize=64)
def _front_end(source: str, name: str) -> CompiledUnit:
    """MinC -> assembly text + task labels, once per workload per
    process: every knob setting re-partitions the same text, and
    lexing/parsing it again was most of each compile."""
    from repro.minic.codegen import compile_minic

    return compile_minic(source, name)


@lru_cache(maxsize=64)
def _compile_scalar_cached(source: str, name: str) -> Program:
    from repro.isa.assembler import assemble

    return assemble(_front_end(source, name).asm, name)


@lru_cache(maxsize=128)
def _compile_multiscalar_cached(source: str, name: str,
                                extra_entries: tuple[str, ...],
                                knobs: CompilerKnobs | None) -> Program:
    from repro.minic.driver import annotate_unit

    return annotate_unit(_front_end(source, name), name,
                         extra_entries=list(extra_entries), knobs=knobs)

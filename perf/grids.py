"""``scalar-grid`` and ``ms-grid``: the simulator core, in process.

What a developer iterating on the machine waits for: every kernel on
the production configuration, ``run()`` timed. Programs are built
through the toolchain's public steps (``compile_minic`` -> ``assemble``
-> ``annotate_program`` -> ``Program.uops``), one span each, so set-up
cost is attributed per toolchain layer in the traced run.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import random
from pathlib import Path

from repro.compiler import annotate_program
from repro.config import multiscalar_config, scalar_config
from repro.core.processor import MultiscalarProcessor
from repro.core.scalar import ScalarProcessor
from repro.harness.paper_data import PAPER_TABLE3
from repro.isa import assemble
from repro.minic import compile_minic
from repro.observability import EventBus, collect_metrics
from repro.workloads import WORKLOADS

from perf.common import QUICK_KERNELS, Checks, Measured, Sizing, median
from perf.metrics import PACKAGES, SHARES
from perf.trace import Tracer, trace_overhead

MS_UNITS = 8


def build_program(name: str, annotated: bool, tracer: Tracer):
    """One kernel through the toolchain, a span per layer."""
    spec = WORKLOADS[name]
    with tracer.span("minic.compile", kernel=name):
        unit = compile_minic(spec.source, name)
    with tracer.span("isa.assemble", kernel=name):
        program = assemble(unit.asm, name)
    if annotated:
        entries = list(unit.task_labels) + list(spec.extra_entries)
        with tracer.span("compiler.annotate", kernel=name):
            program = annotate_program(program, task_entries=entries)
    with tracer.span("isa.predecode", kernel=name):
        program.uops()
    return program


def build_processor(program, units: int, **knobs):
    """The production machine: 1-way in-order; ``units == 1`` is the
    scalar baseline, anything else the multiscalar processor."""
    if units == 1:
        return ScalarProcessor(program, scalar_config(**knobs))
    return MultiscalarProcessor(program, multiscalar_config(units, **knobs))


def relative_error(sim: float, paper: float) -> float:
    return abs(sim - paper) / paper


class Grid:
    """Both grid workloads; ``units`` 1 is ``scalar-grid``."""

    def __init__(self, name: str, units: int) -> None:
        self.name = name
        self.units = units
        self.programs: dict = {}
        self.ready: dict = {}

    # ---------------------------------------------------------------- setup

    def setup(self, area: Path, size: Sizing, tracer: Tracer) -> None:
        for kernel in size.kernels:
            self.programs[kernel] = build_program(kernel, self.units > 1,
                                                  tracer)
            with tracer.span("core.build", kernel=kernel):
                self.ready[kernel] = build_processor(self.programs[kernel],
                                                     self.units)

    def teardown(self, checks: Checks) -> None:
        self.programs.clear()
        self.ready.clear()

    # --------------------------------------------------------------- passes

    def run_pass(self, order, checks: Checks, tracer: Tracer,
                 units: int | None = None, processors: dict | None = None,
                 **knobs) -> dict[str, tuple[float, object, object]]:
        """Run every kernel of ``order`` once; kernel -> (wall seconds,
        result, processor). Each output is checked against the kernel's
        expected output."""
        units = self.units if units is None else units
        done = {}
        gc.collect()
        for kernel in order:
            processor = (processors or {}).get(kernel) or build_processor(
                self.programs[kernel], units, **knobs)
            with tracer.timed("core.run", kernel=kernel, units=units) as watch:
                result = processor.run()
            tracer.count("core.cycles", result.cycles)
            checks.ok(result.output == WORKLOADS[kernel].expected_output,
                      f"{kernel}@{units}u: output {result.output!r} != "
                      f"expected {WORKLOADS[kernel].expected_output!r}")
            done[kernel] = (watch.seconds, result, processor)
        return done

    def _order(self, size: Sizing, seed: int, index: int) -> list[str]:
        order = list(size.kernels)
        random.Random(f"{seed}:{self.name}:{index}").shuffle(order)
        return order

    # ----------------------------------------------------------- end to end

    def measure(self, size: Sizing, seed: int,
                checks: Checks) -> dict[str, Measured]:
        tracer = Tracer(self.name, enabled=False)
        passes = size.scalar_passes if self.units == 1 else size.ms_passes
        pass_walls, kernel_walls, pass_medians = [], [], []
        cycles: dict[str, int] = {}
        last = {}
        for index in range(passes):
            done = self.run_pass(self._order(size, seed, index), checks,
                                 tracer,
                                 processors=self.ready if index == 0 else None)
            pass_walls.append(sum(wall for wall, _, _ in done.values()))
            kernel_walls.extend(wall for wall, _, _ in done.values())
            pass_medians.append(
                median(wall for wall, _, _ in done.values()) * 1e3)
            for kernel, (_, result, _) in done.items():
                checks.ok(cycles.setdefault(kernel, result.cycles)
                          == result.cycles,
                          f"{kernel}: cycle count changed between passes")
            last = done
        total_cycles = sum(cycles.values())
        mid = median(pass_walls)
        return {
            "sim_cycles_per_s": Measured(
                total_cycles / mid, [total_cycles / w for w in pass_walls]),
            "jobs_per_s": Measured(
                len(cycles) / mid, [len(cycles) / w for w in pass_walls]),
            "op_p50_ms": Measured(median(kernel_walls) * 1e3, pass_medians),
            "paper_err": Measured(self._paper_err(size, last)),
        }

    def _paper_err(self, size: Sizing, done: dict) -> float:
        """Scalar IPC (units 1) or 8-unit task-prediction accuracy
        against Table 3's 1-way columns, in the table's kernel order."""
        errors = []
        for kernel in size.kernels:
            result = done[kernel][1]
            paper = PAPER_TABLE3[kernel]
            if self.units == 1:
                errors.append(relative_error(result.ipc, paper.scalar_ipc_1w))
            else:
                errors.append(relative_error(
                    100.0 * result.prediction_accuracy, paper.pred_8u_1w))
        return sum(errors) / len(errors)

    # --------------------------------------------------------------- layers

    def layers(self, size: Sizing, seed: int, checks: Checks,
               tracer: Tracer) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, metric in (("minic.compile", "minic.compile_ms"),
                             ("isa.assemble", "isa.assemble_ms"),
                             ("compiler.annotate", "compiler.annotate_ms"),
                             ("isa.predecode", "isa.predecode_ms")):
            out[metric] = tracer.self_s(span) * 1e3
        order = self._order(size, seed, 0)
        done = self.run_pass(order, checks, tracer, processors=self.ready)
        cost = _us_per_cycle(done)
        nojit = _us_per_cycle(self.run_pass(order, checks, tracer, jit=False))
        if self.units == 1:
            out["core.scalar.us_per_cycle"] = cost
            out["core.scalar_nojit.us_per_cycle"] = nojit
            out["jit.scalar_speedup"] = nojit / cost
            out["compiler.instr_overhead_pct"] = _instr_overhead(size, checks,
                                                                 tracer)
        else:
            out["core.ms8.us_per_cycle"] = cost
            out["core.ms8_nojit.us_per_cycle"] = nojit
            out["jit.ms8_speedup"] = nojit / cost
            for kernel, (wall, result, _) in done.items():
                out[f"core.ms8.{kernel}.us_per_cycle"] = \
                    wall * 1e6 / result.cycles
            out.update(_modelled_machine(done))
            out["core.ms8_over_ms4_cost"] = self._unit_cost_ratio(
                size, done, checks, tracer)
            out["core.fastpath_speedup_ms4"] = self._fastpath_speedup(
                size, checks, tracer)
            out["observability.attach_overhead"] = self._attach_overhead(
                size, tracer)
            out.update(self._host_shares(size))
        out[f"perf.trace_overhead.{self.name}"] = self._trace_overhead(
            size, checks)
        return out

    def _pair(self, size: Sizing) -> list[str]:
        """tomcatv and cmp (the kernels ROADMAP 2a quotes), or what a
        smoke run has."""
        pair = [k for k in ("tomcatv", "cmp") if k in size.kernels]
        return pair or list(size.kernels[:2])

    def _unit_cost_ratio(self, size, done, checks, tracer) -> float:
        pair = self._pair(size)
        at4 = self.run_pass(pair, checks, tracer, units=4)
        at8 = {kernel: done[kernel] for kernel in pair}
        return _us_per_cycle(at8) / _us_per_cycle(at4)

    def _fastpath_speedup(self, size, checks, tracer) -> float:
        fast = self.run_pass(QUICK_KERNELS, checks, tracer, units=4,
                             jit=False)
        reference = self.run_pass(QUICK_KERNELS, checks, tracer, units=4,
                                  fast_path=False, jit=False)
        return sum(w for w, _, _ in reference.values()) / \
            sum(w for w, _, _ in fast.values())

    def _attach_overhead(self, size: Sizing, tracer: Tracer) -> float:
        """Masked bus attached / no bus, best of N, alternating which
        side runs first (``repro bench``'s gate, fewer repeats)."""
        kernel = "wc"
        best = {False: float("inf"), True: float("inf")}
        for repeat in range(2 * size.probe_repeats):
            for masked in ((False, True) if repeat % 2 == 0
                           else (True, False)):
                processor = build_processor(self.programs[kernel], 4,
                                            jit=False)
                if masked:
                    EventBus(0).attach(processor)
                gc.collect()
                with tracer.timed("core.run", kernel=kernel, units=4,
                                  masked_bus=masked) as watch:
                    processor.run()
                best[masked] = min(best[masked], watch.seconds)
        return best[True] / best[False] - 1.0

    def _host_shares(self, size: Sizing) -> dict[str, float]:
        """One cProfile pass, ``tottime`` bucketed by repro package."""
        profiler = cProfile.Profile()
        processors = [build_processor(self.programs[kernel], self.units)
                      for kernel in self._pair(size)]
        profiler.enable()
        for processor in processors:
            processor.run()
        profiler.disable()
        totals = dict.fromkeys(PACKAGES, 0.0)
        everything = 0.0
        for (filename, _, _), (_, _, tottime, _, _) in \
                pstats.Stats(profiler).stats.items():
            everything += tottime
            parts = Path(filename).parts
            if "repro" in parts:
                index = len(parts) - 1 - parts[::-1].index("repro")
                package = parts[index + 1] if index + 1 < len(parts) else ""
                if package in totals:
                    totals[package] += tottime
        return {f"hostshare.{package}": seconds / everything
                for package, seconds in totals.items()}

    def _trace_overhead(self, size: Sizing, checks: Checks) -> float:
        """The span-dense section here is the toolchain set-up plus the
        quick kernels' runs; traced / untraced, alternating."""
        def section(traced: bool) -> None:
            probe = Tracer("probe", enabled=traced)
            for kernel in size.kernels:
                build_program(kernel, self.units > 1, probe)
            self.run_pass(QUICK_KERNELS, checks, probe)

        return trace_overhead(size.probe_repeats, section)


def _us_per_cycle(done: dict) -> float:
    return sum(w for w, _, _ in done.values()) * 1e6 / \
        sum(r.cycles for _, r, _ in done.values())


def _instr_overhead(size: Sizing, checks: Checks, tracer: Tracer) -> float:
    from repro.engine import count_job, execute

    counts = {False: 0, True: 0}
    for kernel in size.kernels:
        for annotated in (False, True):
            with tracer.span("engine.execute", kernel=kernel, kind="count"):
                counts[annotated] += execute(
                    count_job(kernel, annotated))["count"]
    return 100.0 * (counts[True] / counts[False] - 1.0)


def _modelled_machine(done: dict) -> dict[str, float]:
    """Exact counts of the modelled machine over one pass, read from
    the public result and ``collect_metrics`` payload."""
    total: dict[str, int] = {}
    peak = 0
    for _, result, processor in done.values():
        registry = collect_metrics(processor).to_dict()
        for name, value in registry["counters"].items():
            total[name] = total.get(name, 0) + value
        peak = max(peak, registry["gauges"].get("arb.peak_entries", 0))
    cycles = sum(r.cycles for _, r, _ in done.values())
    retired = total["sim.retired_instructions"]
    squashed = total["sim.squashed_instructions"]
    unit_cycles = sum(total[f"cycles.{share}"] for share in SHARES)
    out = {
        "core.sim_cycles_total": cycles,
        "core.ipc_8u": retired / cycles,
        "core.pred_accuracy_8u":
            100.0 * total["predict.correct"] / total["predict.validated"],
        "core.task_squash_ratio": total["task.squashed"]
            / (total["task.squashed"] + total["task.retired"]),
        "core.squashed_instr_ratio": squashed / (squashed + retired),
        "arb.violations": total["arb.violations"],
        "arb.full_events": total["arb.full_events"],
        "arb.peak_entries": peak,
        "arb.forward_ratio": total["arb.forwards"] / total["arb.loads"],
        "ring.sends": total["ring.sends"],
        "ring.bandwidth_delay_cycles": total["ring.bandwidth_delay_cycles"],
        "ring.dropped_stale": total["ring.dropped_stale"],
        "memory.dcache_miss_rate":
            total["dcache.misses"] / total["dcache.accesses"],
        "memory.dcache_bank_wait_cycles": total["dcache.bank_wait_cycles"],
        "memory.icache_miss_rate":
            total["icache.misses"] / total["icache.accesses"],
        "memory.bus_wait_cycles": total["bus.wait_cycles"],
        "pipeline.issued_per_cycle": total["pipe.issued"] / cycles,
        "pipeline.flushed_ratio": total["pipe.flushed"] / total["pipe.fetched"],
    }
    for share in SHARES:
        out[f"core.cycles.{share}_share"] = \
            total[f"cycles.{share}"] / unit_cycles
    return out

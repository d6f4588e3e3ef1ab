"""Command-line interface for the multiscalar reproduction.

Subcommands:

* ``run FILE``       — run a program (``.mc`` MinC or ``.s``/``.asm``
  assembly) on the scalar baseline or a multiscalar machine;
* ``compile FILE``   — compile MinC to assembly text;
* ``disasm FILE``    — print the annotated listing and task descriptors;
* ``workloads``      — list or run the paper's benchmark stand-ins;
* ``tables N``       — regenerate a table of the paper's evaluation;
* ``fuzz``           — differential fuzzing: run seeded random programs
  on every backend and diff the results (exit 1 on divergence);
* ``sweep``          — run a workload × configuration grid through the
  sharded job engine with persistent result caching;
* ``explore``        — design-space autopilot: a seeded search over
  hardware axes and compiler knobs that renders per-workload Pareto
  frontiers (cycles vs hardware cost) and writes deterministic
  Markdown/JSON reports;
* ``chaos``          — fault-injection harness: SIGKILL workers,
  corrupt cache files, and plant a livelock, then require
  bit-identical results (exit 1 on any surprise);
* ``trace``          — run one workload or program with the structured
  event bus attached and export a Chrome trace-event JSON file
  (Perfetto/``chrome://tracing``) plus a terminal cycle-attribution
  flamegraph;
* ``cache``          — inspect or purge the persistent result store
  (``--stats`` prints entry count, bytes, and hit/miss tallies);
* ``serve``          — run the simulation-as-a-service HTTP server: a
  persistent leased worker daemon behind a JSON job API, sharing the
  content-addressed result store with standalone runs (``sweep`` and
  ``fuzz`` accept ``--server URL`` to run as thin clients of it).

Examples::

    python -m repro run program.mc --units 8 --timeline
    python -m repro run kernel.s --entries loop --issue 2 --ooo
    python -m repro workloads --run cmp --units 4
    python -m repro tables 2
    python -m repro fuzz --seed 7 --budget 200 --jobs 4
    python -m repro sweep --workloads wc,cmp --units 1,4 --jobs 4
    python -m repro explore gcc --budget 30 --seed 7 --out reports/
    python -m repro explore all --budget 40 --jobs 4
    python -m repro chaos --self-test
    python -m repro trace wc --units 8 --out trace.json
    python -m repro trace wc --categories task,ring,arb --window 0:5000
    python -m repro cache --purge
    python -m repro cache --stats
    python -m repro serve --port 8642 --jobs 4
    python -m repro sweep --server http://127.0.0.1:8642 --workloads wc
    python -m repro fuzz --server http://127.0.0.1:8642 --budget 50
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Nothing else at module scope: each ``cmd_*`` imports what it runs, so
# ``--help``, ``cache`` and a sweep or search answered from the store
# never load the toolchain or the simulator (docs/INTERNALS.md,
# "import layering").


class _CommandError(Exception):
    """What ``main`` prints as one line, ``repro CMD: error: ...``, and
    exits with ``code``: 2 for input the command cannot use (a program
    file that cannot be read, assembled, compiled or annotated; an
    unknown workload), 1 for a run that ended in a typed simulation
    failure or a paper-grid job that failed."""

    def __init__(self, message, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _checked(build):
    """``build()``, with a missing or unreadable file and every typed
    toolchain error re-raised as :class:`_CommandError`."""
    from repro.compiler.annotate import AnnotationError
    from repro.compiler.regions import RegionError
    from repro.isa.assembler import AssemblerError
    from repro.minic.codegen import CodegenError
    from repro.minic.lexer import LexError
    from repro.minic.parser import ParseError

    try:
        return build()
    except (OSError, UnicodeDecodeError, AssemblerError, LexError,
            ParseError, CodegenError, AnnotationError,
            RegionError) as error:
        raise _CommandError(error) from None


def _simulate(run, *args, **kwargs):
    """``run(*args, **kwargs)``, with a typed simulation failure
    (exhausted budget, livelock) re-raised as a :class:`_CommandError`
    that exits 1."""
    from repro.resilience.failures import SimulationFailure

    try:
        return run(*args, **kwargs)
    except SimulationFailure as error:
        raise _CommandError(error, code=1) from None


def _known_workloads(names) -> tuple[str, ...]:
    """``names`` as a tuple, or a :class:`_CommandError` listing those
    that are not bundled workloads."""
    from repro.workloads import WORKLOADS

    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise _CommandError(f"unknown workloads {unknown}")
    return tuple(names)


def _load_program(path: str, multiscalar: bool,
                  entries: list[str], auto_loops: bool):
    """Compile/assemble ``path`` (.mc/.minc or assembly) into a
    Program, annotated for multiscalar execution when requested."""
    from repro.compiler.annotate import annotate_program
    from repro.isa.assembler import assemble
    from repro.minic.driver import compile_and_annotate, compile_scalar

    def build():
        text = Path(path).read_text()
        if path.endswith(".mc") or path.endswith(".minc"):
            if multiscalar:
                return compile_and_annotate(
                    text, path, extra_entries=entries,
                    auto_loops=auto_loops)
            return compile_scalar(text, path)
        program = assemble(text, path)
        if multiscalar:
            return annotate_program(program, task_entries=entries,
                                    auto_loops=auto_loops)
        return program

    return _checked(build)


def cmd_run(args: argparse.Namespace) -> int:
    """Entry point for ``repro run``: simulate one program on
    the scalar baseline or a multiscalar machine."""
    from repro.config import multiscalar_config, scalar_config
    from repro.core.processor import MultiscalarProcessor
    from repro.core.scalar import ScalarProcessor
    from repro.observability import Category, EventBus, render_timeline

    multiscalar = args.units > 1 or args.multiscalar
    if args.timeline and not multiscalar:
        raise _CommandError("--timeline needs a multiscalar machine "
                            "(--units above 1, or --multiscalar)")
    program = _load_program(args.file, multiscalar, args.entries,
                            args.auto_loops)
    fast_path = not args.no_fast_path
    jit = not args.no_jit
    if multiscalar:
        config = multiscalar_config(args.units, args.issue, args.ooo,
                                    fast_path=fast_path, jit=jit)
        processor = MultiscalarProcessor(program, config)
        bus = EventBus(Category.TASK).attach(processor) \
            if args.timeline else None
        result = _simulate(processor.run, max_cycles=args.max_cycles)
        print(result.output, end="")
        if result.output and not result.output.endswith("\n"):
            print()
        print(f"-- {result.cycles} cycles, {result.instructions} "
              f"instructions retired (IPC {result.ipc:.2f})",
              file=sys.stderr)
        print(f"-- tasks: {result.tasks_retired} retired, "
              f"{result.tasks_squashed} squashed "
              f"(mispredict {result.squashes_mispredict}, "
              f"memory {result.squashes_memory}, "
              f"ARB {result.squashes_arb}); "
              f"prediction {result.prediction_accuracy:.1%}",
              file=sys.stderr)
        if args.stats:
            for key, value in result.distribution.as_dict().items():
                print(f"--   {key}: {value}", file=sys.stderr)
        if bus is not None:
            chart, summary = render_timeline(bus, processor.num_units)
            print(chart, file=sys.stderr)
            print("-- " + summary, file=sys.stderr)
    else:
        config = scalar_config(args.issue, args.ooo, fast_path=fast_path,
                               jit=jit)
        result = _simulate(ScalarProcessor(program, config).run,
                           max_cycles=args.max_cycles)
        print(result.output, end="")
        if result.output and not result.output.endswith("\n"):
            print()
        print(f"-- {result.cycles} cycles, {result.instructions} "
              f"instructions (IPC {result.ipc:.2f})", file=sys.stderr)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Entry point for ``repro compile``: MinC to assembly text."""
    from repro.minic.codegen import compile_minic

    unit = _checked(
        lambda: compile_minic(Path(args.file).read_text(), args.file))
    output = unit.asm
    if unit.task_labels:
        output += "\n# parallel task entries: " \
            + ", ".join(unit.task_labels) + "\n"
    if args.output:
        Path(args.output).write_text(output)
    else:
        print(output, end="")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    """Entry point for ``repro disasm``: print the annotated
    listing and task descriptors of a program."""
    program = _load_program(args.file, args.multiscalar, args.entries,
                            args.auto_loops)
    print(program.listing())
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    """Entry point for ``repro workloads``: list the paper's
    benchmark stand-ins, or run one against its scalar baseline."""
    from repro.workloads import WORKLOADS

    if not args.run:
        for name, spec in WORKLOADS.items():
            print(f"{name:10} {spec.paper_benchmark:28} "
                  f"{spec.description}")
        return 0
    from repro.harness.runner import paper_sweep

    summary = _tabulated(paper_sweep, _known_workloads([args.run]),
                         units=(args.units,), widths=(1,))
    cell = summary.cells[0]
    print(f"{args.run}: scalar {summary.scalar_cycles[args.run, 1, False]} "
          f"cycles, {args.units}-unit multiscalar {cell.cycles} cycles "
          f"(speedup {cell.speedup:.2f}x, "
          f"prediction {cell.prediction_accuracy:.1f}%)")
    return 0


def _apply_cache_flags(args: argparse.Namespace):
    """The store a harness command reads and writes, or ``None``:
    ``--cache-dir`` moves it, ``--purge-cache`` empties it first, and
    ``--no-cache`` or ``REPRO_NO_DISK_CACHE`` turn it off."""
    import os

    from repro.engine.store import ResultStore, persistent_cache_enabled

    if getattr(args, "cache_dir", None):
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    if getattr(args, "purge_cache", False):
        removed = ResultStore().purge()
        print(f"cache: purged {removed} stored results", file=sys.stderr)
    if getattr(args, "no_cache", False) or not persistent_cache_enabled():
        return None
    return ResultStore()


def _tabulated(read, *args, **kwargs):
    """``read(*args, **kwargs)`` over a paper grid or a fuzz campaign,
    with a failed job (wrong output, timeout, dead worker, a program
    that could not be checked) re-raised as a :class:`_CommandError`
    that exits 1."""
    try:
        return read(*args, **kwargs)
    except RuntimeError as error:
        raise _CommandError(error, code=1) from None


def cmd_tables(args: argparse.Namespace) -> int:
    """Entry point for ``repro tables``: regenerate one of the
    paper's evaluation tables (1-4)."""
    from repro.harness import (
        format_table1,
        format_table2,
        format_table3,
        table2_rows,
        table3_rows,
        table4_rows,
    )

    _known_workloads(args.names or ())
    store = _apply_cache_flags(args)
    if args.number == 1:
        print(format_table1())
    elif args.number == 2:
        print(format_table2(_tabulated(table2_rows, args.names, store)))
    else:
        rows = table3_rows if args.number == 3 else table4_rows
        print(format_table3(_tabulated(rows, args.names, store),
                            out_of_order=args.number == 4))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Entry point for ``repro report``: run the whole
    evaluation and write the paper-vs-measured report."""
    from repro.harness.report import generate_report

    text = _tabulated(generate_report, _apply_cache_flags(args),
                      quick=args.quick)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Entry point for ``repro fuzz``: differential fuzzing of
    every backend; exits non-zero on a divergence."""
    from contextlib import nullcontext

    from repro.difftest import (
        FuzzCampaign,
        inject_jit_guard_miss,
        inject_opcode_bug,
    )
    from repro.difftest.generator import generator_for
    from repro.isa.opcodes import Op

    jit_guard_miss = args.self_test == "jit-taken-branch"
    try:
        for language in args.languages:
            generator_for(language)
        campaign = FuzzCampaign(
            seed=args.seed, budget=args.budget,
            languages=tuple(args.languages),
            units=tuple(args.units), widths=tuple(args.widths),
            orders=(False, True) if args.ooo == "both"
            else (args.ooo == "ooo",),
            fast_paths=(True, False) if args.no_fast_path else (True,),
            # A JIT guard-miss self-test needs the scalar core's no-jit
            # twin in the grid: the same-machine interpreter is the
            # reference the buggy compiled code diverges from.
            jits=(True, False) if args.no_jit or jit_guard_miss
            else (True,),
            max_shrink_checks=args.max_shrink_checks,
            jobs=args.jobs,
            server=args.server,
            progress=lambda message: print(f"fuzz: {message}",
                                           file=sys.stderr))
        if args.self_test and args.server:
            # The injected bug lives in this process; server workers
            # would run the un-sabotaged simulator and "miss" it.
            raise ValueError("--self-test cannot run against --server")
        if args.self_test and not jit_guard_miss \
                and args.self_test.upper() not in Op.__members__:
            raise ValueError(
                f"unknown opcode {args.self_test!r} for --self-test "
                "(or: jit-taken-branch)")
    except ValueError as error:
        raise _CommandError(error) from None
    # With --self-test, plant a bug — a semantics bug in the
    # multiscalar backend, or a guard miss in the scalar core's compiled
    # bodies — and demand the campaign catches it: a check that the
    # oracle itself still has teeth.
    injector = nullcontext()
    if jit_guard_miss:
        injector = inject_jit_guard_miss("taken-branch")
    elif args.self_test:
        injector = inject_opcode_bug(Op[args.self_test.upper()])
    try:
        with injector:
            result = _tabulated(campaign.run)
    except ConnectionError as error:
        print(f"repro fuzz: server error: {error}", file=sys.stderr)
        return 2
    print(result.render())
    if args.self_test:
        if result.ok:
            print("fuzz: self-test FAILED -- injected "
                  f"{args.self_test} bug went undetected", file=sys.stderr)
            return 1
        print(f"fuzz: self-test ok -- injected {args.self_test} bug "
              "was caught and shrunk", file=sys.stderr)
        return 0
    if result.interrupted:
        print("fuzz: interrupted; partial results above", file=sys.stderr)
        return 130
    return 0 if result.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Entry point for ``repro sweep``: run a workload x config
    grid through the job engine with persistent caching."""
    from repro.engine.sweep import (
        SweepRequest,
        render_timelines,
        run_sweep,
        run_sweep_via_server,
    )
    from repro.harness.paper_data import ROW_ORDER

    store = _apply_cache_flags(args)
    workloads = _known_workloads(args.workloads or ROW_ORDER)
    request = SweepRequest(
        workloads=workloads,
        units=tuple(args.units),
        widths=tuple(args.widths),
        orders=(False, True) if args.ooo == "both"
        else (args.ooo == "ooo",),
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        use_cache=not args.no_cache,
        self_test=args.self_test,
        max_cycles=args.max_cycles,
        fast_path=not args.no_fast_path,
        jit=not args.no_jit,
    )
    progress = (lambda message: print(f"sweep: {message}",
                                      file=sys.stderr))
    try:
        if args.server:
            summary = run_sweep_via_server(request, args.server,
                                           progress=progress)
        else:
            summary = run_sweep(request, store, progress=progress)
    except ConnectionError as error:
        print(f"repro sweep: server error: {error}", file=sys.stderr)
        return 2
    print(summary.render())
    if args.metrics:
        if summary.metrics is not None:
            print()
            print("aggregated metrics (all grid cells, cached + fresh):")
            print(summary.metrics.render())
        if summary.cells_without_metrics:
            print(f"note: {summary.cells_without_metrics} of "
                  f"{summary.total_jobs} payloads carried no metrics "
                  "(pre-metrics cache entries); the aggregate above "
                  "under-counts them. Re-run with --purge-cache (or "
                  "--no-cache) to regenerate.")
    if summary.interrupted:
        print("sweep: interrupted; completed results were persisted",
              file=sys.stderr)
        return 130
    if args.timeline:
        print(_simulate(render_timelines, request))
    if args.self_test:
        if summary.worker_deaths < 1 or not summary.ok:
            print("sweep: self-test FAILED -- the killed worker's job "
                  "was not recovered by retry", file=sys.stderr)
            return 1
        print(f"sweep: self-test ok -- {summary.worker_deaths} worker "
              "death(s) recovered by retry, grid complete",
              file=sys.stderr)
    if args.require_hit_rate is not None \
            and summary.hit_rate < args.require_hit_rate:
        print(f"sweep: persistent-cache hit rate "
              f"{100.0 * summary.hit_rate:.1f}% is below the required "
              f"{100.0 * args.require_hit_rate:.1f}%", file=sys.stderr)
        return 1
    return 0 if summary.ok else 1


def _explore_self_test(args: argparse.Namespace) -> int:
    """``repro explore --self-test``: run a tiny search twice against a
    private store; require byte-identical reports and a fully-cached
    second run."""
    import json as _json
    import tempfile

    from repro.engine import ResultStore
    from repro.explore import (
        ExploreRequest,
        LocalEvaluator,
        build_report,
        run_explore,
        validate_report,
    )

    with tempfile.TemporaryDirectory() as tmp:
        request = ExploreRequest(workloads=("cmp",), budget=6,
                                 seed=args.seed,
                                 max_cycles=args.max_cycles)
        store = ResultStore(tmp)
        blobs, fresh = [], []
        for _ in range(2):
            evaluator = LocalEvaluator(store, jobs=1,
                                       max_cycles=request.max_cycles)
            summary = run_explore(request, evaluator)
            report = build_report(summary)
            validate_report(report)
            blobs.append(_json.dumps(report, sort_keys=True))
            fresh.append(summary.fresh_runs)
    if blobs[0] != blobs[1]:
        print("explore: self-test FAILED -- two identical runs produced "
              "different reports", file=sys.stderr)
        return 1
    if fresh[1] != 0:
        print(f"explore: self-test FAILED -- warm re-run simulated "
              f"{fresh[1]} fresh jobs (expected 0)", file=sys.stderr)
        return 1
    print(f"explore: self-test ok -- deterministic report, warm re-run "
          f"fully cached ({fresh[0]} cold simulations)", file=sys.stderr)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Entry point for ``repro explore``: the design-space autopilot."""
    from repro.explore import (
        ExploreRequest,
        LocalEvaluator,
        ServerEvaluator,
        build_report,
        render_terminal,
        run_explore,
        validate_report,
        write_report,
    )
    from repro.workloads import WORKLOADS

    store = _apply_cache_flags(args)
    if args.self_test:
        return _explore_self_test(args)
    if args.target == "all":
        workloads = tuple(sorted(WORKLOADS))
    else:
        workloads = _known_workloads(args.target.split(","))
    request = ExploreRequest(
        workloads=workloads, budget=args.budget, seed=args.seed,
        max_cycles=args.max_cycles, jobs=args.jobs,
        use_cache=not args.no_cache)
    progress = (lambda message: print(f"explore: {message}",
                                      file=sys.stderr))
    if args.server:
        store = None
        evaluator = ServerEvaluator(args.server, timeout=args.timeout,
                                    max_cycles=args.max_cycles,
                                    progress=progress)
    else:
        evaluator = LocalEvaluator(store, jobs=args.jobs,
                                   timeout=args.timeout,
                                   retries=args.retries,
                                   max_cycles=args.max_cycles,
                                   progress=progress)
    try:
        summary = run_explore(request, evaluator, progress=progress)
    except ConnectionError as error:
        print(f"repro explore: server error: {error}", file=sys.stderr)
        return 2
    if store is not None:
        store.flush_counters()
    report = build_report(summary)
    validate_report(report)
    print(render_terminal(report))
    print(f"explore: {summary.fresh_runs} fresh simulations, "
          f"{summary.cache_hits} cache hits "
          f"(hit rate {100.0 * summary.hit_rate:.1f}%)", file=sys.stderr)
    if args.out:
        json_path, md_path = write_report(report, args.out)
        print(f"explore: wrote {json_path} and {md_path}",
              file=sys.stderr)
    if args.require_hit_rate is not None \
            and summary.hit_rate < args.require_hit_rate:
        print(f"explore: cache hit rate "
              f"{100.0 * summary.hit_rate:.1f}% is below the required "
              f"{100.0 * args.require_hit_rate:.1f}%", file=sys.stderr)
        return 1
    return 0 if summary.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Entry point for ``repro chaos``: sabotage a sweep (killed
    workers, corrupt state) and require bit-identical results."""
    from repro.resilience.chaos import (
        ChaosRequest,
        run_chaos,
        self_test_request,
    )

    if args.self_test:
        request = self_test_request()
    else:
        request = ChaosRequest(workloads=_known_workloads(args.workloads),
                               units=tuple(args.units), jobs=args.jobs)
    report = run_chaos(
        request,
        progress=lambda message: print(f"chaos: {message}",
                                       file=sys.stderr))
    print(report.render())
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Entry point for ``repro trace``: run one workload or program
    with the structured event bus attached, write a Chrome trace-event
    JSON file, and print a cycle-attribution flamegraph."""
    from repro.observability import (
        EventBus,
        chrome_trace,
        collect_metrics,
        render_flamegraph,
        validate_chrome_trace,
        write_chrome_trace,
    )

    multiscalar = args.units > 1 or args.multiscalar
    from repro.config import multiscalar_config, scalar_config
    from repro.core.processor import MultiscalarProcessor
    from repro.core.scalar import ScalarProcessor
    from repro.workloads import WORKLOADS

    if args.target in WORKLOADS:
        spec = WORKLOADS[args.target]
        program = spec.multiscalar_program() if multiscalar \
            else spec.scalar_program()
        label = f"{args.target}:" \
            + (f"ms{args.units}" if multiscalar else "scalar")
    elif not Path(args.target).exists():
        raise _CommandError(
            f"{args.target!r} is neither a workload "
            f"({', '.join(sorted(WORKLOADS))}) nor a program file")
    else:
        program = _load_program(args.target, multiscalar, args.entries,
                                args.auto_loops)
        label = Path(args.target).name
    fast_path = not args.no_fast_path
    jit = not args.no_jit
    if multiscalar:
        processor = MultiscalarProcessor(
            program, multiscalar_config(args.units, args.issue, args.ooo,
                                        fast_path=fast_path, jit=jit))
    else:
        processor = ScalarProcessor(
            program, scalar_config(args.issue, args.ooo,
                                   fast_path=fast_path, jit=jit))
    bus = EventBus(args.categories, window=args.window).attach(processor)
    result = _simulate(processor.run, max_cycles=args.max_cycles)
    trace = chrome_trace(bus, num_units=args.units if multiscalar else 1,
                         total_cycles=result.cycles, label=label)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems[:10]:
            print(f"repro trace: invalid trace: {problem}",
                  file=sys.stderr)
        return 1
    write_chrome_trace(args.out, trace)
    print(f"trace: {len(bus.events)} events ({bus.dropped} filtered) "
          f"over {result.cycles} cycles -> {args.out}", file=sys.stderr)
    print("trace: load it in https://ui.perfetto.dev or chrome://tracing",
          file=sys.stderr)
    if multiscalar:
        print(render_flamegraph(result))
    else:
        print(f"{result.cycles} cycles, IPC {result.ipc:.2f}")
    if args.metrics:
        print(collect_metrics(processor).render())
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Entry point for ``repro cache``: inspect or purge the
    persistent result store."""
    from repro.engine import ResultStore

    _apply_cache_flags(args)
    store = ResultStore()
    if args.purge:
        removed = store.purge()
        print(f"cache: purged {removed} stored results "
              f"from {store.root}")
        return 0
    if args.stats:
        stats = store.stats()
        reads = stats["hits"] + stats["misses"]
        rate = stats["hits"] / reads if reads else 0.0
        print(f"cache: {stats['entries']} entries, "
              f"{stats['bytes']:,} bytes under {store.root}")
        print(f"cache: lifetime {stats['hits']} hits / "
              f"{stats['misses']} misses "
              f"(hit rate {100.0 * rate:.1f}%), "
              f"{stats['writes']} writes")
        return 0
    print(f"cache: {len(store)} stored results under {store.root}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Entry point for ``repro serve``: run the simulation job
    server — an asyncio HTTP API over the leased worker daemon — until
    interrupted (Ctrl-C drains the queue and exits 130)."""
    from repro.server import ReproServer

    store = _apply_cache_flags(args)
    server = ReproServer(
        workers=args.jobs, lease_ttl=args.lease_ttl,
        timeout=args.timeout, retries=args.retries,
        max_queue=args.max_queue, quota=args.quota,
        chaos=args.chaos, store=store)

    def ready(port: int) -> None:
        where = "no persistent store" if store is None \
            else f"store {store.root}"
        print(f"serve: listening on http://{args.host}:{port} -- "
              f"{args.jobs} workers, lease ttl {args.lease_ttl:.0f}s, "
              f"{where}", file=sys.stderr)

    # A server launched as a shell background job inherits SIGINT
    # ignored (POSIX job control); restore it so `kill -INT` still
    # triggers the drain-and-exit-130 path.
    import signal

    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        server.run(host=args.host, port=args.port, ready=ready)
    except KeyboardInterrupt:
        drained = server.shutdown()
        print(f"serve: interrupted; drained {len(drained)} unfinished "
              "job(s), workers stopped", file=sys.stderr)
        return 130
    server.shutdown()
    return 0


def _positive(text: str) -> int:
    """argparse type for counts and cycle budgets: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, not {value}")
    return value


def _seconds(text: str) -> float:
    """argparse type for wall-clock budgets: a number of seconds > 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be more than 0 seconds, not {text}")
    return value


def _categories(text: str):
    """argparse type for ``trace --categories``: a
    :class:`~repro.observability.Category` mask, rejected with the list
    of valid names."""
    from repro.observability import Category

    try:
        return Category.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _window(text: str) -> tuple[int, int]:
    """argparse type for ``trace --window``: ``START:END`` cycle bounds,
    either side optional, END after START."""
    try:
        start, end = text.split(":")
        window = (int(start or 0), int(end or 1 << 62))
        if window[0] < window[1]:
            return window
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "must be START:END cycle bounds with END after START "
        "(either side may be empty)")


def _positive_list(text: str) -> list[int]:
    return [_positive(item) for item in text.split(",")]


def _issue_widths(text: str) -> list[int]:
    widths = [int(item) for item in text.split(",")]
    if not set(widths) <= {1, 2}:
        raise argparse.ArgumentTypeError(
            f"issue widths are 1 or 2, not {text}")
    return widths


class _Parser(argparse.ArgumentParser):
    """argparse whose rejections are one line, ``repro CMD: error:
    ...`` and exit 2, like every other error the CLI prints (``-h``
    still shows the usage); subcommand parsers inherit the class, and
    an argument no parser knows is rejected by the chosen
    subcommand's."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def add_subparsers(self, **kwargs):
        self._commands = super().add_subparsers(**kwargs)
        return self._commands

    def parse_args(self, args=None, namespace=None):
        # argparse reports leftovers through the top-level parser
        # ("repro: error:"); the chosen subcommand's parser names it.
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self._commands.choices[namespace.command].error(
                f"unrecognized arguments: {' '.join(extras)}")
        return namespace


def build_parser() -> argparse.ArgumentParser:
    """Build the full ``repro`` argparse tree (all subcommands)."""
    parser = _Parser(
        prog="repro",
        description="Multiscalar Processors (ISCA 1995) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_flags(p, with_units=True):
        if with_units:
            p.add_argument("--units", type=_positive, default=1,
                           help="processing units (>1 implies multiscalar)")
        p.add_argument("--issue", type=int, default=1, choices=(1, 2))
        p.add_argument("--ooo", action="store_true",
                       help="out-of-order issue")
        p.add_argument("--multiscalar", action="store_true",
                       help="force multiscalar annotation even at 1 unit")
        p.add_argument("--entries", type=lambda s: s.split(","),
                       default=[], help="extra task-entry labels")
        p.add_argument("--auto-loops", action="store_true",
                       help="make every loop header a task entry")
        p.add_argument("--no-fast-path", action="store_true",
                       help="force the reference per-cycle simulator "
                            "(results are identical, just slower)")
        p.add_argument("--no-jit", action="store_true",
                       help="disable the scalar core's trace-JIT and run "
                            "the fast-path interpreter (results are "
                            "identical; a multiscalar machine never "
                            "uses the JIT)")

    run = sub.add_parser("run", help="run a .mc or .s program")
    run.add_argument("file")
    add_machine_flags(run)
    run.add_argument("--timeline", action="store_true",
                     help="print the per-unit task timeline "
                          "(multiscalar machines only)")
    run.add_argument("--stats", action="store_true",
                     help="print the cycle-distribution taxonomy")
    run.add_argument("--max-cycles", type=_positive, default=20_000_000)
    run.set_defaults(fn=cmd_run)

    comp = sub.add_parser("compile", help="compile MinC to assembly")
    comp.add_argument("file")
    comp.add_argument("-o", "--output")
    comp.set_defaults(fn=cmd_compile)

    dis = sub.add_parser("disasm", help="print an annotated listing")
    dis.add_argument("file")
    add_machine_flags(dis, with_units=False)
    dis.set_defaults(fn=cmd_disasm)

    wl = sub.add_parser("workloads", help="list or run benchmark kernels")
    wl.add_argument("--run", help="workload name to run")
    wl.add_argument("--units", type=_positive, default=8)
    wl.set_defaults(fn=cmd_workloads)

    def add_cache_flags(p):
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result store "
                            "(force fresh simulations)")
        p.add_argument("--purge-cache", action="store_true",
                       help="purge the persistent result store first")
        p.add_argument("--cache-dir", default=None,
                       help="result-store directory "
                            "(default .repro-cache or $REPRO_CACHE_DIR)")

    tables = sub.add_parser("tables", help="regenerate a paper table")
    tables.add_argument("number", type=int, choices=(1, 2, 3, 4))
    tables.add_argument("--names", type=lambda s: s.split(","),
                        default=None, help="restrict to these workloads")
    add_cache_flags(tables)
    tables.set_defaults(fn=cmd_tables)

    report = sub.add_parser(
        "report", help="run the whole evaluation, write a report")
    report.add_argument("-o", "--output", default=None)
    report.add_argument("--quick", action="store_true",
                        help="three representative workloads only")
    add_cache_flags(report)
    report.set_defaults(fn=cmd_report)

    sweep = sub.add_parser(
        "sweep", help="run a workload x config grid through the sharded "
                      "job engine with persistent caching")
    sweep.add_argument("--workloads", type=lambda s: s.split(","),
                       default=None,
                       help="comma-separated workloads (default: all)")
    sweep.add_argument("--units", type=_positive_list,
                       default=[4, 8],
                       help="multiscalar unit counts (default 4,8)")
    sweep.add_argument("--widths", type=_issue_widths,
                       default=[1], help="issue widths (default 1)")
    sweep.add_argument("--ooo", choices=("io", "ooo", "both"),
                       default="io", help="issue orders to sweep")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial in-process)")
    sweep.add_argument("--timeout", type=_seconds, default=600.0,
                       help="per-job wall-clock budget in seconds")
    sweep.add_argument("--retries", type=int, default=2,
                       help="retry budget per job for crashes/timeouts")
    sweep.add_argument("--max-cycles", type=_positive,
                       default=20_000_000)
    sweep.add_argument("--timeline", action="store_true",
                       help="render per-unit task timelines afterwards")
    sweep.add_argument("--require-hit-rate", type=float, default=None,
                       metavar="FRACTION",
                       help="exit 1 unless the persistent-cache hit rate "
                            "is at least this fraction (e.g. 0.9)")
    sweep.add_argument("--self-test", action="store_true",
                       help="SIGKILL a worker mid-job and require the "
                            "grid to complete via retry")
    sweep.add_argument("--metrics", action="store_true",
                       help="print the metrics registry aggregated "
                            "across every grid cell (cached and fresh)")
    sweep.add_argument("--no-fast-path", action="store_true",
                       help="run the reference per-cycle simulator "
                            "(cached separately from fast-path results)")
    sweep.add_argument("--no-jit", action="store_true",
                       help="disable the scalar core's trace-JIT (cached "
                            "separately from jit results)")
    sweep.add_argument("--server", default=None, metavar="URL",
                       help="run as a thin client of a `repro serve` "
                            "instance instead of a local worker pool "
                            "(e.g. http://127.0.0.1:8642)")
    add_cache_flags(sweep)
    sweep.set_defaults(fn=cmd_sweep)

    explore = sub.add_parser(
        "explore", help="design-space autopilot: search hardware axes + "
                        "compiler knobs, report Pareto frontiers")
    explore.add_argument("target", nargs="?", default="all",
                         help="comma-separated workloads, or 'all'")
    explore.add_argument("--budget", type=_positive, default=40,
                         help="design points evaluated per workload "
                              "(default 40)")
    explore.add_argument("--seed", type=int, default=0,
                         help="search RNG seed; same seed + budget = "
                              "byte-identical report")
    explore.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = serial in-process)")
    explore.add_argument("--timeout", type=_seconds, default=600.0,
                         help="per-job wall-clock budget in seconds")
    explore.add_argument("--retries", type=int, default=2,
                         help="retry budget per job for crashes/timeouts")
    explore.add_argument("--max-cycles", type=_positive,
                         default=20_000_000)
    explore.add_argument("--out", default=None, metavar="DIR",
                         help="write explore.json + explore.md reports "
                              "under this directory")
    explore.add_argument("--require-hit-rate", type=float, default=None,
                         metavar="FRACTION",
                         help="exit 1 unless the cache hit rate is at "
                              "least this fraction (e.g. 0.9)")
    explore.add_argument("--self-test", action="store_true",
                         help="run a tiny search twice against a private "
                              "store; require byte-identical reports and "
                              "a fully-cached second run")
    explore.add_argument("--server", default=None, metavar="URL",
                         help="evaluate points as a thin client of a "
                              "`repro serve` instance instead of a local "
                              "worker pool")
    add_cache_flags(explore)
    explore.set_defaults(fn=cmd_explore)

    chaos = sub.add_parser(
        "chaos", help="fault-injection harness: kill workers, corrupt "
                      "the result cache, plant a livelock, and require "
                      "bit-identical results")
    chaos.add_argument("--self-test", action="store_true",
                       help="one-workload quick configuration")
    chaos.add_argument("--workloads", type=lambda s: s.split(","),
                       default=["wc", "cmp"],
                       help="workloads to sweep under sabotage")
    chaos.add_argument("--units", type=_positive_list,
                       default=[2],
                       help="multiscalar unit counts (default 2)")
    chaos.add_argument("--jobs", type=int, default=2,
                       help="worker processes for the sabotaged sweep")
    chaos.set_defaults(fn=cmd_chaos)

    trace = sub.add_parser(
        "trace", help="run one workload/program with structured event "
                      "tracing; export a Perfetto/Chrome trace and a "
                      "cycle-attribution flamegraph")
    trace.add_argument("target",
                       help="a workload name (see `repro workloads`) or "
                            "a .mc/.s program file")
    trace.add_argument("--units", type=_positive, default=4,
                       help="processing units (>1 implies multiscalar; "
                            "default 4)")
    add_machine_flags(trace, with_units=False)
    trace.add_argument("--categories", type=_categories, default="all",
                       help="comma-separated event categories to record "
                            "(task,pipe,ring,arb,mem,seq,predict; "
                            "default all)")
    trace.add_argument("--window", type=_window, default=None,
                       metavar="START:END",
                       help="record only events with START <= cycle < "
                            "END (either bound may be empty)")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event JSON output path "
                            "(default trace.json)")
    trace.add_argument("--metrics", action="store_true",
                       help="print the full metrics registry afterwards")
    trace.add_argument("--max-cycles", type=_positive, default=20_000_000)
    trace.set_defaults(fn=cmd_trace)

    cache = sub.add_parser(
        "cache", help="inspect or purge the persistent result store")
    cache.add_argument("--purge", action="store_true",
                       help="delete every stored result")
    cache.add_argument("--stats", action="store_true",
                       help="print entry count, bytes on disk, and the "
                            "lifetime hit/miss/write tallies")
    cache.add_argument("--cache-dir", default=None,
                       help="result-store directory")
    cache.set_defaults(fn=cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the simulation job server: an HTTP API over "
                      "a persistent leased worker daemon sharing the "
                      "result store")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (default 8642; 0 = ephemeral)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="persistent worker processes (default 2)")
    serve.add_argument("--lease-ttl", type=_seconds, default=30.0,
                       help="seconds before an unheartbeated lease "
                            "expires and its job is re-queued")
    serve.add_argument("--timeout", type=_seconds, default=600.0,
                       help="per-attempt wall-clock budget in seconds")
    serve.add_argument("--retries", type=int, default=2,
                       help="re-queue budget per job for worker deaths "
                            "and timeouts")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="pending-queue depth before submissions "
                            "get 429 + Retry-After")
    serve.add_argument("--quota", type=int, default=None,
                       help="max in-flight jobs per client id "
                            "(default unlimited)")
    serve.add_argument("--chaos", action="store_true",
                       help="accept fault-injection fields on "
                            "submissions (worker-kill drills)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the persistent result store "
                            "(results held in memory only)")
    serve.add_argument("--cache-dir", default=None,
                       help="result-store directory "
                            "(default .repro-cache or $REPRO_CACHE_DIR)")
    serve.set_defaults(fn=cmd_serve)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing across all backends")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (same seed, same programs)")
    fuzz.add_argument("--budget", type=_positive, default=100,
                      help="number of generated programs to run")
    fuzz.add_argument("--languages", type=lambda s: s.split(","),
                      default=["asm", "minic"],
                      help="program generators to use (asm,minic)")
    fuzz.add_argument("--units", type=_positive_list,
                      default=[1, 2, 4, 8],
                      help="multiscalar unit counts to cover")
    fuzz.add_argument("--widths", type=_issue_widths,
                      default=[1, 2], help="issue widths to cover")
    fuzz.add_argument("--ooo", choices=("io", "ooo", "both"),
                      default="both", help="issue orders to cover")
    fuzz.add_argument("--jobs", type=int, default=1,
                      help="shard program checks across this many "
                           "worker processes")
    fuzz.add_argument("--no-fast-path", action="store_true",
                      help="also rotate reference (per-cycle) simulator "
                           "configs into the oracle grid")
    fuzz.add_argument("--no-jit", action="store_true",
                      help="also run the scalar core's no-jit (fast-path "
                           "interpreter) twin in the oracle grid")
    fuzz.add_argument("--max-shrink-checks", type=int, default=400,
                      help="delta-debugging budget per divergence")
    fuzz.add_argument("--self-test", metavar="OP", default=None,
                      help="inject a semantics bug for this opcode into "
                           "the multiscalar backend (e.g. --self-test "
                           "xor), or a guard miss into the scalar "
                           "core's JIT (--self-test jit-taken-branch), "
                           "and require the campaign to catch it")
    fuzz.add_argument("--server", default=None, metavar="URL",
                      help="ship program checks to a `repro serve` "
                           "instance instead of forking a local pool")
    fuzz.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and dispatch to the
    selected subcommand; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CommandError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return error.code
    except KeyboardInterrupt:
        # Commands with worker pools drain them internally; anything
        # that still reaches here just ends quietly, no traceback.
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())

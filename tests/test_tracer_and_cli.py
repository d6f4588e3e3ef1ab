"""Tests for the task timeline and the command-line interface."""

import pytest

from repro.cli import main
from repro.config import multiscalar_config
from repro.core import MultiscalarProcessor
from repro.minic import compile_and_annotate
from repro.observability import Category, EventBus, render_timeline

SOURCE = """
int out[16];
void main() {
    int i = 0;
    parallel while (i < 16) {
        int k = i;
        i += 1;
        out[k] = k * 2;
    }
    int t = 0;
    for (int k = 0; k < 16; k += 1) { t += out[k]; }
    print_int(t);
}
"""


@pytest.fixture
def traced_run():
    program = compile_and_annotate(SOURCE)
    processor = MultiscalarProcessor(program, multiscalar_config(4))
    bus = EventBus(Category.TASK).attach(processor)
    result = processor.run()
    return bus, result


def test_tracer_counts_match_processor(traced_run):
    bus, result = traced_run
    _, summary = render_timeline(bus, 4)
    assert summary.startswith(f"{result.tasks_retired} tasks retired, "
                              f"{result.tasks_squashed} squashed;")
    assert result.output == "240"


def test_tracer_events_are_ordered(traced_run):
    bus, result = traced_run
    tasks = {}      # seq -> {event name: cycle}
    for event in bus:
        tasks.setdefault(event.args["seq"], {})[event.name] = event.ts
    retired = [task for task in tasks.values() if "retire" in task]
    assert len(retired) == result.tasks_retired
    for task in retired:
        assert task["assign"] <= task["retire"]
        if "stop" in task:
            assert task["assign"] <= task["stop"] <= task["retire"]


def test_tracer_render_has_unit_rows(traced_run):
    bus, result = traced_run
    chart, _ = render_timeline(bus, 4, width=60)
    assert "unit  0" in chart and "unit  3" in chart
    assert "=" in chart
    assert "cycles/column" in chart


def test_tracer_summary(traced_run):
    bus, _ = traced_run
    _, summary = render_timeline(bus, 4)
    assert "retired" in summary and "squashed" in summary


def test_empty_tracer_render():
    assert render_timeline(EventBus(Category.TASK), 4)[0] \
        == "(no tasks traced)"


# ------------------------------------------------------------------ CLI

@pytest.fixture
def minc_file(tmp_path):
    path = tmp_path / "demo.mc"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text("""
main:   li $s0, 0
        li $t0, 0
loop:   addi $t0, $t0, 1
        add $s0, $s0, $t0
        blt $t0, 10, loop
        move $a0, $s0
        li $v0, 1
        syscall
        halt
    """)
    return str(path)


def test_cli_run_scalar(minc_file, capsys):
    assert main(["run", minc_file]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "240"
    assert "cycles" in out.err


def test_cli_run_multiscalar_with_timeline(minc_file, capsys):
    assert main(["run", minc_file, "--units", "4", "--timeline",
                 "--stats"]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "240"
    assert "tasks:" in out.err
    assert "unit  0" in out.err
    assert "useful" in out.err


def test_cli_run_asm_with_entries(asm_file, capsys):
    assert main(["run", asm_file, "--units", "4", "--entries",
                 "loop"]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "55"


def test_cli_run_ooo_two_way(minc_file, capsys):
    assert main(["run", minc_file, "--issue", "2", "--ooo"]) == 0
    assert capsys.readouterr().out.strip() == "240"


@pytest.mark.parametrize("command, source, message", [
    (["run"], None, "No such file"),
    (["compile"], None, "No such file"),
    (["disasm"], None, "No such file"),
    (["run"], ("prose.s", "# A title\n\nHello, world.\n"), "unknown mnemonic"),
    (["run"], ("lex.mc", "void main() { int x = 1 @ 2; }"),
     "unexpected character"),
    (["compile"], ("parse.mc", "int main( {"), "expected"),
    (["run"], ("codegen.mc", "void main() { int x = y; }"),
     "undefined variable"),
    (["run", "--units", "4", "--entries", "nowhere"],
     ("entries.s", "main: li $t0, 1\n halt\n"),
     "unknown task-entry label 'nowhere'"),
    (["trace"], None, "neither a workload"),
    (["trace", "--window", "5:2"], None, "with END after START"),
    (["trace", "--categories", "task,bogus"], None,
     "unknown event category 'bogus' (valid: task, pipe, ring, arb, mem, "
     "seq, predict, all)"),
], ids=("run-missing", "compile-missing", "disasm-missing", "assembler",
        "minc-lex", "minc-parse", "minc-codegen", "annotation",
        "trace-missing", "trace-empty-window", "trace-unknown-category"))
def test_cli_bad_program_is_one_line_and_exit_2(command, source, message,
                                                tmp_path, capsys):
    name, text = source or ("nosuch.s", None)
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    try:
        status = main([command[0], str(path), *command[1:]])
    except SystemExit as rejected:  # rejected by the argument parser
        status = rejected.code
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {command[0]}: error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, code, message", [
    (["tables", "3", "--names", "nosuch"], 2,
     "unknown workloads ['nosuch']"),
    (["workloads", "--run", "nosuch"], 2, "unknown workloads ['nosuch']"),
    (["run", "loop.s", "--max-cycles", "10"], 1, "exceeded 10 cycles"),
    (["run", "loop.s", "--units", "4", "--max-cycles", "10"], 1,
     "exceeded 10 cycles"),
    (["trace", "wc", "--max-cycles", "10"], 1, "exceeded 10 cycles"),
    (["run", "loop.s", "--max-cycles", "0"], 2,
     "argument --max-cycles: must be at least 1, not 0"),
    (["trace", "wc", "--max-cycles", "0"], 2,
     "argument --max-cycles: must be at least 1, not 0"),
    (["chaos", "--checkpoint-every", "0"], 2,
     "argument --checkpoint-every: must be at least 1, not 0"),
    (["chaos", "--checkpoint-every", "-5"], 2,
     "argument --checkpoint-every: must be at least 1, not -5"),
    (["serve", "--checkpoint-every", "0"], 2,
     "argument --checkpoint-every: must be at least 1, not 0"),
    (["serve", "--lease-ttl", "0"], 2,
     "argument --lease-ttl: must be more than 0 seconds, not 0"),
    (["serve", "--timeout", "-1"], 2,
     "argument --timeout: must be more than 0 seconds, not -1"),
    (["explore", "gcc", "--timeout", "-1"], 2,
     "argument --timeout: must be more than 0 seconds, not -1"),
    (["explore", "gcc", "--budget", "0"], 2,
     "argument --budget: must be at least 1, not 0"),
    (["run", "loop.s", "--timeline"], 2,
     "--timeline needs a multiscalar machine"),
    (["fuzz", "--budget", "0"], 2,
     "argument --budget: must be at least 1, not 0"),
    (["fuzz", "--languages", "asm,cobol"], 2,
     "unknown fuzz language 'cobol'"),
    (["fuzz", "--self-test", "nosuchop"], 2,
     "unknown opcode 'nosuchop' for --self-test"),
    (["fuzz", "--self-test", "xor", "--server", "http://127.0.0.1:1"], 2,
     "--self-test cannot run against --server"),
], ids=("tables-unknown-workload", "workloads-unknown-workload",
        "run-budget-scalar", "run-budget-ms4", "trace-budget",
        "run-max-cycles-0", "trace-max-cycles-0", "chaos-checkpoint-0",
        "chaos-checkpoint-negative", "serve-checkpoint-0",
        "serve-lease-ttl-0", "serve-timeout-negative",
        "explore-timeout-negative", "explore-budget-0",
        "run-timeline-scalar", "fuzz-budget-0", "fuzz-unknown-language",
        "fuzz-unknown-opcode", "fuzz-self-test-server"))
def test_cli_rejection_is_one_line(argv, code, message, tmp_path, capsys,
                                   monkeypatch):
    # Unusable input exits 2 and a typed simulation failure exits 1,
    # each as one `repro CMD: error:` line, from the parser or the
    # command alike.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop.s").write_text("main: j main\n")
    try:
        status = main(argv)
    except SystemExit as exit:
        status = exit.code
    err = capsys.readouterr().err
    assert status == code
    assert err.startswith(f"repro {argv[0]}: error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_fuzz_unreachable_server_is_one_line(capsys):
    # The server transport raises ConnectionError for a server that is
    # not there; `fuzz` reports it like `sweep` and `explore` do.
    status = main(["fuzz", "--server", "http://127.0.0.1:1",
                   "--budget", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("repro fuzz: server error: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_sweep_timeline_budget_is_one_error_line(tmp_path, capsys,
                                                     monkeypatch):
    # The timeline re-run honours --max-cycles; running out of it ends
    # the sweep with one typed error line, never a traceback.
    monkeypatch.chdir(tmp_path)
    status = main(["sweep", "--workloads", "wc", "--units", "4",
                   "--max-cycles", "100", "--timeline", "--no-cache"])
    err = capsys.readouterr().err
    assert status == 1
    assert err.endswith("\n") and err.splitlines()[-1].startswith(
        "repro sweep: error: exceeded 100 cycles")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["tables", "3", "--names", "wc"],
    ["report", "--quick"],
    ["workloads", "--run", "wc", "--units", "4"],
], ids=("tables", "report", "workloads-run"))
def test_cli_failed_cell_is_one_error_line(argv, tmp_path, capsys,
                                           monkeypatch):
    # A paper-grid job whose output is wrong ends the command with one
    # `repro CMD: error:` line naming the job and exit 1: a table never
    # prints with a hole, and never ends in a traceback.
    import dataclasses

    from repro.workloads import WORKLOADS

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(WORKLOADS, "wc", dataclasses.replace(
        WORKLOADS["wc"], expected_output="nope"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: error: wc:")
    assert "does not match expected 'nope'" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_compile(minc_file, capsys, tmp_path):
    assert main(["compile", minc_file]) == 0
    out = capsys.readouterr().out
    assert ".entry main" in out
    assert "parallel task entries" in out
    target = tmp_path / "out.s"
    assert main(["compile", minc_file, "-o", str(target)]) == 0
    assert ".entry main" in target.read_text()


def test_cli_disasm(minc_file, capsys):
    assert main(["disasm", minc_file, "--multiscalar"]) == 0
    out = capsys.readouterr().out
    assert "# task" in out
    assert "!fwd" in out


def test_cli_workloads_list(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "tomcatv" in out and "eqntott" in out


def test_cli_workloads_run(capsys):
    assert main(["workloads", "--run", "wc", "--units", "4"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_cli_table1(capsys):
    assert main(["tables", "1"]) == 0
    assert "Functional Unit Latencies" in capsys.readouterr().out


def test_cli_table3_subset(capsys, table_store):
    assert main(["tables", "3", "--names", "gcc",
                 "--cache-dir", str(table_store.root)]) == 0
    out = capsys.readouterr().out
    assert "gcc" in out and "In-Order" in out


def test_cli_table2_prints_only_the_named_rows(capsys):
    assert main(["tables", "2", "--names", "wc"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title.startswith("Table 2") and header.startswith("Program")
    assert len(rows) == 1 and rows[0].startswith("wc ")


def test_cli_report_quick(capsys, tmp_path, table_store):
    target = tmp_path / "report.md"
    assert main(["report", "--quick", "-o", str(target),
                 "--cache-dir", str(table_store.root)]) == 0
    text = target.read_text()
    assert "Multiscalar reproduction report" in text
    assert "Table 3" in text and "Table 4" in text
    assert "gcc" in text and "wc" in text

"""Tests for the task tracer and the command-line interface."""

import pytest

from repro.cli import main
from repro.config import multiscalar_config
from repro.core import MultiscalarProcessor
from repro.core.tracer import TaskTracer
from repro.minic import compile_and_annotate

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
    tracer = TaskTracer().attach(processor)
    result = processor.run()
    return tracer, result


def test_tracer_counts_match_processor(traced_run):
    tracer, result = traced_run
    assert len(tracer.retired()) == result.tasks_retired
    assert len(tracer.squashed()) == result.tasks_squashed
    assert result.output == "240"


def test_tracer_events_are_ordered(traced_run):
    tracer, result = traced_run
    for event in tracer.retired():
        assert event.assigned <= event.ended
        if event.stopped is not None:
            assert event.assigned <= event.stopped <= event.ended


def test_tracer_render_has_unit_rows(traced_run):
    tracer, result = traced_run
    art = tracer.render(width=60)
    assert "unit  0" in art and "unit  3" in art
    assert "=" in art
    assert "cycles/column" in art


def test_tracer_summary(traced_run):
    tracer, _ = traced_run
    summary = tracer.summary()
    assert "retired" in summary and "squashed" in summary


def test_empty_tracer_render():
    assert TaskTracer().render() == "(no tasks traced)"


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
], ids=("run-missing", "compile-missing", "disasm-missing", "assembler",
        "minc-lex", "minc-parse", "minc-codegen", "annotation",
        "trace-missing"))
def test_cli_bad_program_is_one_line_and_exit_2(command, source, message,
                                                tmp_path, capsys):
    name, text = source or ("nosuch.s", None)
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {command[0]}: error: ") and message in err
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


def test_cli_table3_subset(capsys):
    assert main(["tables", "3", "--names", "gcc"]) == 0
    out = capsys.readouterr().out
    assert "gcc" in out and "In-Order" in out


def test_cli_report_quick(capsys, tmp_path):
    target = tmp_path / "report.md"
    assert main(["report", "--quick", "-o", str(target)]) == 0
    text = target.read_text()
    assert "Multiscalar reproduction report" in text
    assert "Table 3" in text and "Table 4" in text
    assert "gcc" in text and "wc" in text

"""The program/processor seam as an executable invariant.

Every simulation in the package names its machine as a
:class:`~repro.engine.job.SimJob` and builds it through
``SimJob.processor``, so a machine axis added to the job reaches every
caller at once (docs/INTERNALS.md, "the program/processor seam"). The
AST of ``src/repro`` is scanned for the calls that build a machine.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent

#: Calls that build a timing machine or its configuration.
BUILDERS = {"ScalarProcessor", "MultiscalarProcessor", "scalar_config",
            "multiscalar_config"}

#: The seam itself, and the frozen tracing-cost probe that
#: ``perf/run.py`` and the tier-1 call-count gate pin as it is.
ALLOWED = {"engine/job.py", "harness/bench.py"}


def _name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _default_configs(tree: ast.AST) -> set[int]:
    """ids of the calls that are a core's ``config or ...()`` default."""
    return {id(node.values[-1]) for node in ast.walk(tree)
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
            and isinstance(node.values[-1], ast.Call)}


def _builder_calls() -> list[str]:
    sites = []
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        if relative in ALLOWED:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defaults = _default_configs(tree) \
            if relative.startswith("core/") else set()
        sites.extend(f"{relative}:{node.lineno} {_name(node)}("
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and _name(node) in BUILDERS
                     and id(node) not in defaults)
    return sites


def test_only_the_job_model_builds_a_machine():
    assert _builder_calls() == []


def test_the_scan_sees_the_seam():
    # Not vacuous: the seam's own module holds the calls the scan hunts.
    tree = ast.parse((ROOT / "engine" / "job.py").read_text())
    found = {_name(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    assert BUILDERS <= found

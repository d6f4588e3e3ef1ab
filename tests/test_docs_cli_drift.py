"""Docs must not drift from the CLI they describe.

Every ``--flag`` a document names — in a ``repro`` command line or as
inline ``code`` — must exist somewhere in the real argparse tree, and
every subcommand named in a ``python -m repro <sub>`` invocation must
be registered. The scan covers README.md, EXPERIMENTS.md, and
docs/*.md, so a renamed or removed flag fails this test instead of
silently rotting in the documentation.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

REPO = Path(__file__).parent.parent
DOCS = [REPO / "README.md", REPO / "EXPERIMENTS.md"] \
    + sorted((REPO / "docs").glob("*.md"))

#: Lines about other tools whose flags we must not check against repro.
_FOREIGN = ("pytest", "pip ", "git ", "perfetto", "actions/")


def _walk(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _walk(sub)


def _known_flags() -> set[str]:
    flags: set[str] = set()
    for parser in _walk(build_parser()):
        for action in parser._actions:
            flags.update(s for s in action.option_strings
                         if s.startswith("--"))
    return flags


def _known_subcommands() -> set[str]:
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    return set()


def _doc_lines():
    for path in DOCS:
        for number, line in enumerate(
                path.read_text().splitlines(), start=1):
            lowered = line.lower()
            if any(tool in lowered for tool in _FOREIGN):
                continue
            yield path.name, number, line


@pytest.mark.parametrize("doc", [path.name for path in DOCS])
def test_documented_flags_exist(doc):
    known = _known_flags()
    problems = []
    for name, number, line in _doc_lines():
        if name != doc:
            continue
        for flag in re.findall(r"--[A-Za-z][A-Za-z0-9-]*", line):
            if flag not in known:
                problems.append(f"{name}:{number}: {flag!r} is not a "
                                f"repro CLI flag ({line.strip()!r})")
    assert problems == []


def test_flags_named_in_cli_strings_exist():
    """Help texts, notes and error messages in ``cli.py`` are
    documentation too: the ``sweep --metrics`` note once told users to
    re-run with a ``--fresh`` flag that no subcommand has."""
    known = _known_flags()
    tree = ast.parse(inspect.getsource(repro.cli))
    unknown = sorted({
        flag for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for flag in re.findall(r"--[A-Za-z][A-Za-z0-9-]*", node.value)
        if flag not in known})
    assert unknown == []


def test_documented_subcommands_exist():
    known = _known_subcommands()
    assert known            # the parser really has subcommands
    problems = []
    pattern = re.compile(r"(?:python -m repro|\brepro)\s+([a-z][a-z-]+)")
    for name, number, line in _doc_lines():
        for sub in pattern.findall(line):
            if sub not in known:
                problems.append(f"{name}:{number}: 'repro {sub}' is "
                                f"not a registered subcommand")
    assert problems == []


def test_every_subcommand_is_documented_in_readme():
    readme = (REPO / "README.md").read_text()
    for sub in _known_subcommands():
        assert re.search(rf"repro\s+{sub}\b", readme), (
            f"README.md never shows 'repro {sub}'")


def _subcommand_flags(name: str) -> set[str]:
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            flags: set[str] = set()
            for sub_action in action.choices[name]._actions:
                flags.update(s for s in sub_action.option_strings
                             if s.startswith("--"))
            return flags - {"--help"}
    return set()


def test_explore_doc_covers_every_explore_flag():
    """docs/EXPLORE.md is the `repro explore` reference: every flag the
    subcommand accepts must appear there, so adding a flag without
    documenting it fails CI."""
    doc = (REPO / "docs" / "EXPLORE.md").read_text()
    missing = sorted(flag for flag in _subcommand_flags("explore")
                     if flag not in doc)
    assert missing == [], (
        f"docs/EXPLORE.md never mentions explore flags: {missing}")


def test_explore_subcommand_registered_with_core_flags():
    flags = _subcommand_flags("explore")
    for required in ("--budget", "--seed", "--server", "--out",
                     "--self-test", "--require-hit-rate"):
        assert required in flags

"""The import graph as an executable invariant.

A run answered from the result store must load neither the toolchain
nor the simulator; a run that forks workers must have loaded all of
both *before* the first fork (children inherit ``sys.modules``, and
``WorkerPool`` forks one child per job). Every probe runs in a
subprocess so ``sys.modules`` starts clean. See docs/INTERNALS.md,
"import layering".
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: What a warm CLI invocation must never import.
HEAVY = (
    "repro.pipeline.unit",
    "repro.core.processor",
    "repro.core.scalar",
    "repro.jit.codegen",
    "repro.minic.parser",
    "repro.compiler.annotate",
    "repro.resilience.checkpoint",
    "repro.server.app",
    "multiprocessing",
)
#: What a parent must hold before it forks a worker that simulates.
EXECUTION = tuple(name for name in HEAVY
                  if name not in ("repro.server.app", "multiprocessing"))
#: The resolver's transports: the scheduler loads only on a store
#: miss, the HTTP client only with ``--server``.
TRANSPORT = ("repro.engine.scheduler", "repro.server.client")

SWEEP = ["sweep", "--workloads", "wc,cmp", "--units", "4", "--jobs", "2"]
EXPLORE = ["explore", "cmp", "--budget", "6", "--seed", "3", "--jobs", "2"]

# Runs `python -m repro ARGV` in a fresh interpreter and reports what
# it loaded. Pool workers are probed through the module-level
# entrypoint named by PROBE ("module:function"): a forked child's
# sys.modules at entry is the parent's at fork time, and whatever
# `repro.*` module appears while the job runs, the child imported
# for itself.
_DRIVER = r"""
import importlib, json, os, runpy, sys

out, probe = sys.argv[1], sys.argv[2]
sys.argv = ["repro"] + sys.argv[3:]

def loaded():
    return {m for m in sys.modules
            if m.startswith("repro.") or m == "multiprocessing"}

if probe:
    module_name, function = probe.split(":")
    module = importlib.import_module(module_name)
    real = getattr(module, function)

    def probed(payload, attempt):
        at_fork = loaded()
        value = real(payload, attempt)
        with open(os.path.join(out, f"child-{os.getpid()}.json"), "w") as f:
            json.dump({"at_fork": sorted(at_fork),
                       "imported": sorted(loaded() - at_fork)}, f)
        return value

    setattr(module, function, probed)
    before_main = loaded()
else:
    before_main = set()

try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exit:
    code = exit.code
with open(os.path.join(out, "parent.json"), "w") as f:
    json.dump({"code": code, "loaded": sorted(loaded() - before_main)}, f)
"""


def _run(tmp: Path, argv: list[str], store: Path | None = None,
         probe: str = "") -> tuple[set[str], list[dict]]:
    """(modules the parent loaded, per-child probe records)."""
    out = tmp / f"probe-{len(list(tmp.iterdir()))}"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=SRC)
    if store is not None:
        argv = argv + ["--cache-dir", str(store)]
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(out), probe, *argv],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=300)
    parent = json.loads((out / "parent.json").read_text())
    assert parent["code"] in (0, None), done.stderr[-2000:]
    children = [json.loads(path.read_text())
                for path in sorted(out.glob("child-*.json"))]
    return set(parent["loaded"]), children


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A store filled by one cold sweep and one cold search, with the
    probe records of both cold runs."""
    tmp = tmp_path_factory.mktemp("import-graph")
    store = tmp / "store"
    probe = "repro.engine.resolve:_pool_entrypoint"
    cold = {"sweep": _run(tmp, SWEEP, store, probe=probe),
            "explore": _run(tmp, EXPLORE, store, probe=probe)}
    return tmp, store, cold


def test_importing_the_cli_loads_nothing_else():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(sorted("
         "m for m in sys.modules if m.startswith('repro')))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, check=True)
    assert done.stdout.strip() == "['repro', 'repro.cli']"


def test_help_loads_no_package(tmp_path):
    loaded, _ = _run(tmp_path, ["--help"])
    assert loaded <= {"repro.cli", "repro.__main__"}


@pytest.mark.parametrize("command", ["sweep", "explore"])
def test_warm_run_loads_neither_toolchain_nor_simulator(filled, command):
    tmp, store, _ = filled
    argv = {"sweep": SWEEP, "explore": EXPLORE}[command]
    loaded, children = _run(tmp, argv + ["--require-hit-rate", "1.0"],
                            store)
    assert "repro.engine.resolve" in loaded
    unwanted = loaded & set(HEAVY + TRANSPORT)
    assert not unwanted, sorted(unwanted)
    assert children == []


@pytest.mark.parametrize("command", ["sweep", "explore"])
def test_cold_run_imports_everything_before_the_first_fork(filled, command):
    _, _, cold = filled
    loaded, children = cold[command]
    assert set(EXECUTION) <= loaded
    assert "repro.engine.scheduler" in loaded
    assert "repro.server.client" not in loaded
    assert children, "the cold run forked no worker"
    for child in children:
        assert set(EXECUTION) <= set(child["at_fork"])
        assert child["imported"] == []


def test_resolver_module_imports_only_leaves():
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from repro.engine.resolve import LocalResolver, ServerResolver\n"
         "LocalResolver(None)\n"
         "local = sorted(m for m in sys.modules if m.startswith('repro.')"
         " or m == 'multiprocessing')\n"
         "ServerResolver('http://127.0.0.1:1')\n"
         "print(json.dumps([local, sorted(m for m in sys.modules"
         " if m.startswith('repro.') or m == 'multiprocessing')]))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, check=True)
    local, server = map(set, json.loads(done.stdout))
    assert not local & set(HEAVY + TRANSPORT), sorted(local)
    assert server - local == {"repro.server", "repro.server.client"}


def test_runloop_module_imports_nothing_from_the_simulator():
    # The driver is policy over a seam: it must be loadable (and
    # testable against a fake machine) without either core, the
    # pipeline or the jit — which it never reaches for: the scalar
    # core builds its own engine.
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "import repro.core.runloop\n"
         "print(json.dumps(sorted(m for m in sys.modules"
         " if m.startswith('repro'))))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, check=True)
    assert json.loads(done.stdout) == [
        "repro", "repro._lazy", "repro.core", "repro.core.runloop"]


def test_multiscalar_machine_never_loads_the_jit():
    # The JIT belongs to the scalar core: neither importing the
    # multiscalar processor nor executing a multiscalar job may load
    # it, while a scalar job (so the probe is not vacuous) does.
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "def jit():\n"
         "    return sorted(m for m in sys.modules"
         " if m.startswith('repro.jit'))\n"
         "import repro.core.processor\n"
         "imported = jit()\n"
         "from repro.engine.job import execute, multiscalar_job, scalar_job\n"
         "payload = execute(multiscalar_job('wc', 4))\n"
         "executed = jit()\n"
         "execute(scalar_job('wc'))\n"
         "print(json.dumps([imported, executed, jit(), payload['type']]))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, check=True)
    imported, executed, after_scalar, kind = json.loads(done.stdout)
    assert kind == "multiscalar"
    assert imported == [] and executed == []
    assert "repro.jit.engine" in after_scalar


def _packages() -> list[str]:
    return ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.") if info.ispkg]


@pytest.mark.parametrize("package_name", _packages())
def test_every_exported_name_resolves(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", ()):
        assert getattr(package, name) is not None, name
        assert name in dir(package)
    with pytest.raises(AttributeError):
        package.no_such_name


def test_old_import_homes_still_work():
    from repro.core import MultiscalarProcessor, ScalarResult
    from repro.core.processor import MultiscalarResult
    from repro.core.results import MultiscalarResult as leaf_result
    from repro.core.scalar import ScalarResult as scalar_home
    from repro.difftest import shrink
    from repro.engine import WorkerPool, execute_cached
    from repro.pipeline import StallReason
    from repro.pipeline.context import StallReason as context_home
    from repro.pipeline.stall import StallReason as leaf_reason

    assert MultiscalarResult is leaf_result
    assert ScalarResult is scalar_home
    assert StallReason is context_home is leaf_reason
    assert callable(shrink) and callable(execute_cached)
    assert MultiscalarProcessor.__module__ == "repro.core.processor"
    assert WorkerPool.__module__ == "repro.engine.scheduler"

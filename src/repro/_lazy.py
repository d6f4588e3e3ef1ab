"""Lazy re-exports for package ``__init__`` modules (PEP 562).

Every ``repro`` package keeps its public names in ``__all__`` but
resolves them on first use, so importing ``repro.engine`` to reach the
result store does not also load the scheduler, and a warm CLI run never
loads the simulator at all (docs/INTERNALS.md, "import layering").
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, submodules: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the package named ``package``.

    ``submodules`` maps a submodule (relative to ``package``) to the
    public names it defines. The first access to a name imports its
    submodule and caches the value in the package namespace, so the
    hook runs once per name. Unknown names raise ``AttributeError``,
    which is what lets ``from package import submodule`` fall through
    to the regular submodule import.
    """
    home = {name: module for module, names in submodules.items()
            for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__

"""Processor cores: the scalar baseline and the multiscalar processor."""

from repro._lazy import lazy_exports

__all__ = [
    "CycleDistribution",
    "MultiscalarProcessor",
    "MultiscalarResult",
    "ScalarProcessor",
    "ScalarResult",
    "TaskInstance",
    "TaskPredictor",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "processor": ("MultiscalarProcessor", "TaskInstance"),
    "predictor": ("TaskPredictor",),
    "results": ("MultiscalarResult", "ScalarResult"),
    "scalar": ("ScalarProcessor",),
    "stats": ("CycleDistribution",),
})

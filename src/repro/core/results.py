"""Result records of the two timing cores, as a leaf module.

:class:`ScalarResult` and :class:`MultiscalarResult` are what a run
returns *and* what a stored payload deserializes to, so they live
apart from the processors: ``result_from_payload`` on a cache hit must
not import the machine. :mod:`repro.core.scalar` and
:mod:`repro.core.processor` re-export them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.stats import CycleDistribution


@dataclass
class ScalarResult:
    cycles: int
    instructions: int
    output: str
    ipc: float
    icache_misses: int
    dcache_misses: int
    stall_cycles: dict[str, int]

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScalarResult":
        data = dict(data)
        data["stall_cycles"] = {str(k): int(v)
                                for k, v in data["stall_cycles"].items()}
        return cls(**data)


@dataclass
class MultiscalarResult:
    cycles: int
    instructions: int            # retired (useful) dynamic instructions
    output: str
    ipc: float
    tasks_retired: int
    tasks_squashed: int
    squashes_mispredict: int
    squashes_memory: int
    squashes_arb: int
    prediction_accuracy: float
    distribution: CycleDistribution
    icache_misses: int
    dcache_misses: int
    arb_peak_entries: int
    ring_sends: int

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        data = asdict(self)
        data["distribution"] = self.distribution.as_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MultiscalarResult":
        data = dict(data)
        data["distribution"] = CycleDistribution.from_dict(
            data["distribution"])
        return cls(**data)

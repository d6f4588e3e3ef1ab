"""Timing models of the memory hierarchy.

All caches in this package are *timing-only*: they track tags to decide
hits and misses and account for bus and bank contention, while the data
itself always lives in the architectural :class:`~repro.isa.SparseMemory`
(and, for speculative multiscalar stores, in the ARB). This is the
standard trace-driven simplification and cannot change simulated values,
only simulated time.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BankedDataCache",
    "DirectMappedCache",
    "InstructionCache",
    "ScalarDataCache",
    "SplitTransactionBus",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "bus": ("SplitTransactionBus",),
    "cache": ("DirectMappedCache",),
    "icache": ("InstructionCache",),
    "dcache": ("BankedDataCache", "ScalarDataCache"),
})

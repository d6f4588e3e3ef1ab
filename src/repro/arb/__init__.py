"""The Address Resolution Buffer (Franklin & Sohi; paper Section 2.3)."""

from repro._lazy import lazy_exports

__all__ = ["ARBFullError", "AddressResolutionBuffer"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "arb": ("ARBFullError", "AddressResolutionBuffer"),
})

"""The processing-unit pipeline shared by all timing models.

One :class:`~repro.pipeline.unit.UnitPipeline` implements the paper's
5-stage (IF/ID/EX/MEM/WB) processing unit, configurable for in-order or
out-of-order issue at 1-way or 2-way width, with out-of-order completion
on pipelined functional units. The scalar baseline is a single pipeline
with a plain register file; each multiscalar processing unit is the same
pipeline wired to a ring-connected register file and the ARB through a
:class:`~repro.pipeline.context.PipelineContext`.
"""

from repro._lazy import lazy_exports

__all__ = ["FUPool", "PipelineContext", "StallReason", "UnitPipeline"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "functional_units": ("FUPool",),
    "context": ("PipelineContext",),
    "stall": ("StallReason",),
    "unit": ("UnitPipeline",),
})

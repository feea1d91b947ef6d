"""The built-in passes: the six flow stages plus the optional extras.

Standard order (``Pipeline.standard()``)::

    decompose -> [balance] -> t1_detect -> map_to_sfq -> phase_assign
              -> dff_insert -> [materialize_splitters] -> verify_metrics

Bracketed passes are optional; every pass can be removed, replaced or
reordered through the :class:`~repro.pipeline.pipeline.Pipeline` builder.
"""

from repro.pipeline.passes.decompose import (
    BalancePass,
    DecomposePass,
    RefactorPass,
)
from repro.pipeline.passes.dff_insert import DffInsertPass, SplitterPass
from repro.pipeline.passes.finalize import VerifyMetricsPass, verify_streaming
from repro.pipeline.passes.mapping import MapPass
from repro.pipeline.passes.phase_assign import PhaseAssignPass
from repro.pipeline.passes.t1_detect import T1DetectPass

__all__ = [
    "BalancePass",
    "DecomposePass",
    "DffInsertPass",
    "MapPass",
    "PhaseAssignPass",
    "RefactorPass",
    "SplitterPass",
    "T1DetectPass",
    "VerifyMetricsPass",
    "verify_streaming",
]

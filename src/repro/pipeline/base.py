"""The :class:`Pass` protocol every pipeline stage implements.

A pass is a named transformation over a :class:`~repro.pipeline.context.
FlowContext`: it reads the artefacts it needs, writes the ones it
produces, and returns the context (returning ``None`` is treated as
"mutated in place").  Passes must be cheap to construct, deterministic,
and picklable so :func:`~repro.pipeline.batch.run_many` can ship them to
worker processes.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.pipeline.context import FlowContext


@runtime_checkable
class Pass(Protocol):
    """Structural interface of one pipeline stage.

    A pass never mutates the network it is given.  To rewrite it, build
    or clone a new network and assign that to ``ctx.network``: the one
    given may be the caller's source, or a decomposition that other
    flows over the same source share (see
    :class:`~repro.pipeline.passes.DecomposePass`).
    """

    #: unique name used to address the pass in the pipeline builder
    #: (``.without("t1_detect")``, ``.replace("phase_assign", ...)``).
    name: str

    def run(self, ctx: FlowContext) -> Optional[FlowContext]:
        """Transform *ctx*; return it (or ``None`` if mutated in place)."""
        ...

"""Path-balancing / T1-staggering DFF insertion (flow stage 5, §II-C)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dff_insertion import insert_dffs
from repro.errors import PipelineError
from repro.pipeline.context import FlowContext


@dataclass
class DffInsertPass:
    """Insert every path-balancing and staggering DFF into the netlist.

    ``share_chains=False`` gives every fanout edge its own chain (the
    paper's per-edge counting); the default shares one chain per net.
    """

    share_chains: bool = True
    name: str = "dff_insert"

    def run(self, ctx: FlowContext) -> FlowContext:
        if ctx.netlist is None:
            raise PipelineError(
                "dff_insert needs a mapped netlist — run 'map_to_sfq' first"
            )
        ctx.insertion = insert_dffs(ctx.netlist, share_chains=self.share_chains)
        ctx.log(f"dff_insert: {ctx.insertion.total} DFFs")
        return ctx


@dataclass
class SplitterPass:
    """Materialise explicit splitter trees (optional, after insertion).

    Add it with ``pipe.with_pass(SplitterPass(), after="dff_insert")``.
    """

    name: str = "materialize_splitters"

    def run(self, ctx: FlowContext) -> FlowContext:
        from repro.sfq.splitters import materialize_splitters

        if ctx.netlist is None:
            raise PipelineError(
                "materialize_splitters needs a mapped netlist"
            )
        materialize_splitters(ctx.netlist)
        ctx.log("materialize_splitters: done")
        return ctx

"""T1 detection and substitution (flow stage 2, §II-A)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.t1_detection import detect_and_replace
from repro.errors import EquivalenceError
from repro.network.equivalence import check_equivalence
from repro.pipeline.context import FlowContext


@dataclass
class T1DetectPass:
    """Find T1-implementable gate groups and substitute T1 cells.

    When the context's ``verify`` mode is ``"cec"`` or ``"full"`` the
    substituted network is checked for combinational equivalence against
    the pre-substitution network before it replaces the working copy.
    """

    cuts_per_node: int = 8
    name: str = "t1_detect"

    def run(self, ctx: FlowContext) -> FlowContext:
        detection = detect_and_replace(
            ctx.network,
            library=ctx.library,
            cuts_per_node=self.cuts_per_node,
        )
        if ctx.verify in ("cec", "full"):
            res = check_equivalence(ctx.network, detection.network,
                                    complete=False)
            if not res.equivalent:
                raise EquivalenceError(
                    "T1 substitution changed the function",
                    res.counterexample,
                )
        ctx.detection = detection
        ctx.network = detection.network
        ctx.t1_found = detection.found
        ctx.t1_used = detection.used
        ctx.log(f"t1_detect: found {detection.found}, used {detection.used}")
        return ctx

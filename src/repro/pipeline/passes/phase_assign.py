"""Clock-phase (stage) assignment (flow stage 4, §II-B)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.phase_assignment import assign_stages_heuristic
from repro.errors import PipelineError
from repro.pipeline.context import FlowContext


@dataclass
class PhaseAssignPass:
    """Assign clock stages to every cell of the mapped netlist.

    Runs the delta-evaluated coordinate-descent sweeps on the
    :class:`~repro.core.schedule.StageSchedule` kernel and logs their
    probe counts.
    """

    sweeps: int = 4
    name: str = "phase_assign"

    def run(self, ctx: FlowContext) -> FlowContext:
        if ctx.netlist is None:
            raise PipelineError(
                "phase_assign needs a mapped netlist — run 'map_to_sfq' first"
            )
        report = assign_stages_heuristic(ctx.netlist, sweeps=self.sweeps)
        ctx.log(
            f"phase_assign: sweeps_run={report.sweeps_run} "
            f"moves_evaluated={report.moves_evaluated} "
            f"moves_applied={report.moves_applied}"
        )
        return ctx

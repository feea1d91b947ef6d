"""Clock-phase (stage) assignment (flow stage 4, §II-B)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.phase_assignment import assign_stages
from repro.errors import PipelineError
from repro.pipeline.context import FlowContext


@dataclass
class PhaseAssignPass:
    """Assign clock stages to every cell of the mapped netlist.

    ``method="heuristic"`` runs the delta-evaluated coordinate-descent
    sweeps on the :class:`~repro.core.schedule.StageSchedule` kernel;
    ``method="ilp"`` solves the exact per-edge objective on the MILP
    backend (small netlists only — see :class:`IlpPhasePass`);
    ``method="auto"`` picks exact-vs-heuristic by netlist size.
    """

    method: str = "heuristic"
    sweeps: int = 4
    balance_pos: bool = True
    free_pi_phases: bool = True
    name: str = "phase_assign"

    def run(self, ctx: FlowContext) -> FlowContext:
        if ctx.netlist is None:
            raise PipelineError(
                "phase_assign needs a mapped netlist — run 'map_to_sfq' first"
            )
        if self.method in ("heuristic", "auto"):
            info = assign_stages(
                ctx.netlist,
                method=self.method,
                sweeps=self.sweeps,
                include_po_balancing=self.balance_pos,
                free_pi_phases=self.free_pi_phases,
            )
        else:
            info = assign_stages(ctx.netlist, method=self.method)
        if info.get("degraded"):
            # surfaced in the flow report so a budget-limited exact run
            # is distinguishable from a clean one
            ctx.extras["degraded"] = True
            ctx.extras["degraded_reason"] = (
                f"phase_assign: {info.get('reason') or 'exact solver fell back'}"
            )
            ctx.log(
                f"phase_assign: degraded to {info['method']} "
                f"({info.get('reason')})"
            )
        stats = "".join(
            f" {key}={info[key]}"
            for key in ("sweeps_run", "moves_evaluated", "moves_applied")
            if key in info
        )
        ctx.log(f"phase_assign: method={info['method']}{stats}")
        return ctx


@dataclass
class IlpPhasePass(PhaseAssignPass):
    """Exact ILP phase assignment; drop-in replacement for the heuristic:

    ``Pipeline.standard(...).replace("phase_assign", IlpPhasePass())``
    """

    method: str = "ilp"

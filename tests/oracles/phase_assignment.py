"""The seed scan-and-rebuild phase heuristic — the schedule kernel's oracle."""

from typing import Optional, Sequence, Set

from repro.core.dff_insertion import t1_input_cost
from repro.core.phase_assignment import (
    HeuristicReport,
    _candidate_stages,
    _move_window,
)
from repro.core.schedule import INF, StageSchedule, asap_stages
from repro.sfq.multiphase import edge_dffs
from repro.sfq.netlist import CellKind, SFQNetlist, Signal


def _net_cost(
    driver_stage: int,
    consumer_stages: Sequence[int],
    n: int,
    po_boundary: Optional[int],
) -> float:
    """Shared-chain DFFs of one net (ordinary consumers + PO boundary)."""
    worst = 0
    for cs in consumer_stages:
        gap = cs - driver_stage
        if gap < 1:
            return INF
        worst = max(worst, edge_dffs(gap, n))
    if po_boundary is not None:
        gap = po_boundary - driver_stage
        if gap >= 1:
            worst = max(worst, edge_dffs(gap, n))
    return float(worst)


def assign_stages_rescan_reference(
    netlist: SFQNetlist,
    sweeps: int = 4,
) -> HeuristicReport:
    """The seed scan-and-rebuild heuristic.

    Re-sums every incident net/T1 term from scratch for every candidate
    (T1 terms through :func:`~repro.core.dff_insertion.t1_input_cost`,
    unmemoised) and snapshots the PO boundary once per sweep (including
    its stale-boundary mispricing — see the kernel regression tests).
    The differential tests and ``benchmarks/bench_schedule.py`` hold the
    kernel-based :func:`repro.core.phase_assignment.assign_stages_heuristic`
    to it and measure the delta-evaluation speedup in the same run.
    """
    st = netlist.structure()
    n = st.n
    stages = asap_stages(st)
    nl = netlist.cells
    report = HeuristicReport()

    def po_boundary() -> int:
        mx = max(
            (stages[i] for i in range(len(nl)) if st.clocked[i] and stages[i] is not None),
            default=0,
        )
        return mx + 1

    def local_cost(x: int, boundary: int) -> float:
        """Cost of every net/T1 term affected by cell x's stage."""
        total = 0.0
        affected_signals: Set[Signal] = set(st.signals_of_cell[x])
        affected_signals.update(st.fanin_signals[x])
        affected_t1: Set[int] = set(st.t1_consumers[x])
        if st.is_t1[x]:
            affected_t1.add(x)
        for sig in affected_signals:
            cons = st.nets.get(sig)
            if cons is None:
                continue  # signal feeds only T1 cells
            d = sig[0]
            cons_stages = [stages[c] for c in cons]
            b = boundary if sig in st.po_signals else None
            cost = _net_cost(stages[d], cons_stages, n, b)  # type: ignore[arg-type]
            if cost == INF:
                return INF
            total += cost
        for t in affected_t1:
            fins = [stages[d] for d in st.fanin_drivers[t]]
            cost = t1_input_cost(stages[t], fins, n)  # type: ignore[arg-type]
            if cost == INF:
                return INF
            total += cost
        return total

    for _sweep in range(sweeps):
        report.sweeps_run = _sweep + 1
        boundary = po_boundary()
        improved = False
        order = st.order if _sweep % 2 == 0 else list(reversed(st.order))
        for x in order:
            is_pi = netlist.cells[x].kind is CellKind.PI
            if not st.clocked[x] and not is_pi:
                continue
            lb, ub = _move_window(st, stages, x, is_pi, boundary, n)
            if ub < lb:
                continue
            cands = _candidate_stages(st, stages, x, lb, ub, is_pi, n)
            current = stages[x]
            best_stage = current
            best_cost = local_cost(x, boundary)
            for cand in sorted(cands):
                if cand == current:
                    continue
                stages[x] = cand
                report.moves_evaluated += 1
                cost = local_cost(x, boundary)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_stage = cand
            stages[x] = best_stage
            if best_stage != current:
                report.moves_applied += 1
                improved = True
        if not improved:
            break

    for cell in netlist.cells:
        if cell.clocked or cell.kind is CellKind.PI:
            cell.stage = stages[cell.index]
    report.final_cost = StageSchedule(netlist, stages=stages, structure=st).total()
    return report

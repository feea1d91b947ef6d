"""The seed scan-and-rebuild phase heuristic — the schedule kernel's oracle.

It keeps its own copies of the move window and the candidate scan, so
it runs full sweeps of the seed's rules whatever the package's phase
engine becomes.
"""

from typing import Optional, Sequence, Set, Tuple

from repro.core.dff_insertion import t1_input_cost
from repro.core.phase_assignment import HeuristicReport
from repro.core.schedule import INF, StageSchedule, asap_stages, t1_lower_bound
from repro.sfq.multiphase import edge_dffs
from repro.sfq.netlist import CellKind, NetlistStructure, SFQNetlist, Signal


#: a cell's breakpoint scan stops once it has gathered this many stages
MAX_CANDIDATES = 160


def _candidate_stages(
    st: NetlistStructure,
    stages: Sequence[Optional[int]],
    x: int,
    lb: int,
    ub: int,
    is_pi: bool,
    n: int,
) -> Set[int]:
    """Candidate stages for cell *x*: window ends, fine offsets near the
    current position (T1 staggering moves in ±1 steps), and the
    ceil-breakpoints of all incident edges."""
    cands: Set[int] = {lb, ub, stages[x]}  # type: ignore[arg-type]
    for delta in (-2, -1, 1, 2):
        for base in (stages[x], lb, ub):
            s = base + delta  # type: ignore[operator]
            if lb <= s <= ub:
                cands.add(s)
    if is_pi:
        cands.update(range(lb, ub + 1))
    for d in st.fanin_drivers[x]:
        base = stages[d]
        k = 0
        while True:
            s = base + k * n + 1  # type: ignore[operator]
            if s > ub:
                break
            if s >= lb:
                cands.add(s)
                if s + n - 1 <= ub:
                    cands.add(s + n - 1)
            k += 1
            if len(cands) > MAX_CANDIDATES:
                break
    for c in list(st.net_consumers[x]) + list(st.t1_consumers[x]):
        base = stages[c]
        k = 1
        while True:
            s = base - k * n  # type: ignore[operator]
            if s < lb:
                break
            if s <= ub:
                cands.add(s)
            k += 1
            if len(cands) > MAX_CANDIDATES:
                break
    return cands


def _move_window(
    st: NetlistStructure,
    stages: Sequence[Optional[int]],
    x: int,
    is_pi: bool,
    boundary: int,
    n: int,
) -> Tuple[int, int]:
    """Feasible [lb, ub] stage window of cell *x* given its neighbours."""
    if is_pi:
        lb = 0
    else:
        fins = [stages[d] for d in st.fanin_drivers[x]]
        if st.is_t1[x]:
            lb = t1_lower_bound(fins)  # type: ignore[arg-type]
        else:
            lb = (max(fins) + 1) if fins else 1  # type: ignore[arg-type]
    ubs = [stages[c] - 1 for c in st.net_consumers[x]]  # type: ignore[operator]
    ubs += [stages[t] - 1 for t in st.t1_consumers[x]]  # type: ignore[operator]
    ub = min(ubs) if ubs else boundary
    if is_pi:
        ub = min(ub, n - 1)
    return lb, ub


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

"""Phase assignment (§II-B of the paper): give every clocked cell a stage.

:func:`assign_stages_heuristic` is the one phase engine: coordinate
descent on the :class:`~repro.core.schedule.StageSchedule` kernel, which
prices the *true* insertion cost (shared per-net chains + the exact T1
staggering cost of eq. 4, via the same planner DFF insertion uses) with
delta-evaluated moves and a live PO boundary, starting from an ASAP
schedule.  The paper solves this step with an ILP; the tests hold the
heuristic to within 2 DFFs of an exhaustive search over the same cost
on small netlists.

Constraints:

* PIs arrive in epoch 0 (any stage 0..n−1);
* ordinary consumer:  σ(v) ≥ σ(u) + 1;
* T1 consumer:        σ(T1) ≥ max(σ(i1)+3, σ(i2)+2, σ(i3)+1)   (eq. 3)
  for its fanins sorted by stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

from repro.core.schedule import StageSchedule, t1_lower_bound
from repro.sfq.netlist import CellKind, NetlistStructure, SFQNetlist


# ---------------------------------------------------------------------------
# heuristic: coordinate descent on the schedule kernel
# ---------------------------------------------------------------------------

@dataclass
class HeuristicReport:
    """Statistics of one coordinate-descent run (for benchmarks/tests)."""

    sweeps_run: int = 0
    moves_evaluated: int = 0
    moves_applied: int = 0
    final_cost: float = 0.0


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


def assign_stages_heuristic(
    netlist: SFQNetlist,
    sweeps: int = 4,
) -> HeuristicReport:
    """ASAP + iterative per-cell improvement; sets ``cell.stage`` in place.

    Runs on the :class:`~repro.core.schedule.StageSchedule` kernel: every
    candidate stage is priced by delta evaluation against the maintained
    cost terms, and the PO boundary stays current across moves instead of
    being snapshotted once per sweep (the seed implementation's stale
    boundary could misprice moves near the schedule's deep end).

    A primary input may arrive at any phase of epoch 0 (stage 0..n−1):
    the environment can deliver each input pulse on whichever clock
    phase suits the schedule, which is what makes T1 staggering "free"
    for input-fed cells.
    """
    st = netlist.structure()
    kernel = StageSchedule(netlist, structure=st)
    n = kernel.n
    stages = kernel.stages  # shared view; mutated only via apply_move
    report = HeuristicReport()

    for _sweep in range(sweeps):
        report.sweeps_run = _sweep + 1
        improved = False
        # alternate direction each sweep
        order = st.order if _sweep % 2 == 0 else list(reversed(st.order))
        for x in order:
            is_pi = netlist.cells[x].kind is CellKind.PI
            if not st.clocked[x] and not is_pi:
                continue
            lb, ub = _move_window(st, stages, x, is_pi, kernel.boundary(), n)
            if ub < lb:
                continue
            cands = _candidate_stages(st, stages, x, lb, ub, is_pi, n)
            current = stages[x]
            best_stage = current
            best_cost = kernel.total()
            for cand in sorted(cands):
                if cand == current:
                    continue
                cost = kernel.cost_if_moved(x, cand)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_stage = cand
            if best_stage != current:
                kernel.apply_move(x, best_stage)  # type: ignore[arg-type]
                improved = True
        if not improved:
            break

    kernel.write_stages()
    report.moves_evaluated = kernel.moves_evaluated
    report.moves_applied = kernel.moves_applied
    report.final_cost = kernel.total()
    return report

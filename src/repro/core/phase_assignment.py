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
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.schedule import StageSchedule, t1_lower_bound
from repro.sfq.netlist import NetlistStructure, SFQNetlist


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


def _boundary_readers(st: NetlistStructure, movable: Sequence[bool]) -> List[int]:
    """Movable cells whose visit reads global schedule state.

    A cell with no consumer has the live boundary as its window's upper
    end, and a cell that drives or consumes a PO net prices that net
    against the boundary (and, on a boundary shift, against ``P(b)``).
    Any other movable cell sits below a clocked consumer, so none of its
    probes can shift the boundary: its visit reads only its neighbours.
    """
    readers: Set[int] = set()
    for sig in st.po_signals:
        readers.add(sig[0])
        readers.update(st.nets[sig])
    for x, (cons, t1s) in enumerate(zip(st.net_consumers, st.t1_consumers)):
        if not cons and not t1s:
            readers.add(x)
    return sorted(x for x in readers if movable[x])


def _mark_around(st: NetlistStructure, y: int, dirty: List[bool]) -> None:
    """Mark every cell whose visit reads a value a move of *y* changed.

    That is y, its fanin drivers, its net and T1 consumers, the
    co-consumers of every net y consumes and the co-fanins of every T1
    y feeds.
    """
    dirty[y] = True
    for d in st.fanin_drivers[y]:
        dirty[d] = True
    for c in st.net_consumers[y]:
        dirty[c] = True
    for t in st.t1_consumers[y]:
        dirty[t] = True
        for d in st.fanin_drivers[t]:
            dirty[d] = True
    if not st.is_t1[y]:
        for sig in st.fanin_signals[y]:
            for c in st.nets[sig]:
                dirty[c] = True


def _best_stage(kernel: StageSchedule, x: int, is_pi: bool) -> int:
    """One visit of cell *x*: the candidate stage priced cheapest.

    The kernel prices the candidates in ascending order in one call
    (:meth:`~repro.core.schedule.StageSchedule.best_stage`); only a strict
    improvement replaces the best so far, so ties keep the lower stage
    and x's own stage wins when nothing improves.  Returns x's stage
    unpriced when its window is pinned (``lb == ub``).
    """
    st = kernel.st
    stages = kernel.stages
    n = kernel.n
    current = stages[x]
    lb, ub = _move_window(st, stages, x, is_pi, kernel.boundary(), n)
    if ub <= lb:  # pinned (or no feasible window)
        return current  # type: ignore[return-value]
    cands = _candidate_stages(st, stages, x, lb, ub, is_pi, n)
    cands.discard(current)  # type: ignore[arg-type]
    return kernel.best_stage(x, sorted(cands))


def _dirty_sweeps(kernel: StageSchedule, pis: Sequence[int], sweeps: int) -> int:
    """Run up to *sweeps* dirty sweeps on *kernel*; returns the count run.

    Sweeps alternate between the topological order and its reverse and
    stop after the first sweep that applies no move.  *pis* are the
    primary-input cells.  Every applied move marks every boundary reader;
    rather than write those marks per move, a reader counts as marked
    when a move was applied since its last visit.
    """
    st = kernel.st
    stages = kernel.stages  # shared view; mutated only via apply_move
    is_pi = [False] * len(st.clocked)
    for p in pis:
        is_pi[p] = True
    movable = [c or p for c, p in zip(st.clocked, is_pi)]
    reader = [False] * len(movable)
    for c in _boundary_readers(st, movable):
        reader[c] = True
    seen = [0] * len(movable)  # moves applied before each cell's last visit
    applied = 0
    dirty = movable  # every movable cell is visited in the first sweep
    orders = (st.order, st.order[::-1])
    for sweep in range(sweeps):
        improved = False
        for x in orders[sweep % 2]:
            if not dirty[x] and not (reader[x] and seen[x] < applied):
                continue
            dirty[x] = False
            seen[x] = applied
            current = stages[x]
            best_stage = _best_stage(kernel, x, is_pi[x])
            if best_stage != current:
                kernel.apply_move(x, best_stage)
                applied += 1
                improved = True
                _mark_around(st, x, dirty)
        if not improved:
            return sweep + 1
    return sweeps


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

    **Dirty sweeps.** The first sweep visits every movable cell.  After
    that a cell is visited only when something its visit reads changed
    since its last visit: an applied move marks the cells around the
    moved one (:func:`_mark_around`) and every boundary reader
    (:func:`_boundary_readers`).  An unmarked cell would re-derive the
    same "no move", so skipping it keeps the visit order, the candidate
    order and the tie-break — and so the stage vector, ``moves_applied``
    and ``sweeps_run`` — exactly those of full sweeps.  Pinned cells
    (``lb == ub``) are skipped before any candidate is generated.
    ``moves_evaluated`` counts the probes the dirty sweeps actually
    price, fewer than full sweeps would.

    A primary input may arrive at any phase of epoch 0 (stage 0..n−1):
    the environment can deliver each input pulse on whichever clock
    phase suits the schedule, which is what makes T1 staggering "free"
    for input-fed cells.
    """
    kernel = StageSchedule(netlist)
    report = HeuristicReport()
    report.sweeps_run = _dirty_sweeps(kernel, netlist.pis, sweeps)
    kernel.write_stages()
    report.moves_evaluated = kernel.moves_evaluated
    report.moves_applied = kernel.moves_applied
    report.final_cost = kernel.total()
    return report

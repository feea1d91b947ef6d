"""Phase assignment (§II-B of the paper): give every clocked cell a stage.

Two engines over the same constraint system:

* :func:`assign_stages_ilp` — the paper's ILP, built once on the
  :class:`~repro.solvers.model.SolverModel` IR and solved on the MILP
  backend (per-edge DFF counters ``k_e`` with ``n·k_e ≥ σ_v − σ_u``,
  objective ``Σ (k_e − 1)``; the T1 constraint (eq. 3) is encoded with a
  permutation of the offsets {1, 2, 3} over the three fanins).  Exact but
  exponential in the worst case — used for small netlists and as the
  reference in tests.
* :func:`assign_stages_heuristic` — scalable coordinate descent on the
  :class:`~repro.core.schedule.StageSchedule` kernel, which prices the
  *true* insertion cost (shared per-net chains + the exact T1 staggering
  cost of eq. 4, via the same planner DFF insertion uses) with
  delta-evaluated moves and a live PO boundary, starting from an ASAP
  schedule.  This is what the flow runs on paper-scale circuits.

``assign_stages(..., method="auto")`` routes between the two by netlist
size: small netlists get the exact ILP, everything else the heuristic.

Constraints (both engines):

* PIs are fixed at stage 0;
* ordinary consumer:  σ(v) ≥ σ(u) + 1;
* T1 consumer:        σ(T1) ≥ max(σ(i1)+3, σ(i2)+2, σ(i3)+1)   (eq. 3)
  for its fanins sorted by stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.schedule import (
    INF,
    StageSchedule,
    asap_stages,
    t1_lower_bound,
    _t1_eval,
)
from repro import faults
from repro.errors import FaultInjected, SolverError, SolverLimitError
from repro.sfq.multiphase import edge_dffs
from repro.sfq.netlist import CellKind, NetlistStructure, SFQNetlist, Signal


# ---------------------------------------------------------------------------
# true-cost evaluation (matches what DFF insertion will materialise)
# ---------------------------------------------------------------------------

#: Bound on the module-level staggering-cost memo.  The scheduling kernel
#: uses its own per-instance memo (scoped to one netlist's lifetime); this
#: module-global cache only serves ad-hoc `t1_stagger_cost` calls, so it is
#: kept deliberately small for long batch runs over many netlists.
T1_COST_CACHE_SIZE = 16_384


@lru_cache(maxsize=T1_COST_CACHE_SIZE)
def _t1_cost_cached(gaps: Tuple[int, int, int], n: int, head: int) -> float:
    """Staggering cost keyed by (sorted gaps, n, clamped window head).

    ``head`` is min(t1_stage, n): when the T1 sits closer than n stages to
    stage 0 the freshness window is clipped, which changes feasibility.
    """
    return _t1_eval(gaps, n, head)


def clear_t1_cost_cache() -> None:
    """Drop the module-level staggering-cost memo (batch-runner hygiene)."""
    _t1_cost_cached.cache_clear()


def t1_stagger_cost(t1_stage: int, fanin_stages: Sequence[int], n: int) -> float:
    gaps = tuple(sorted(t1_stage - s for s in fanin_stages))
    if any(g < 1 for g in gaps):
        return INF
    return _t1_cost_cached(gaps, n, min(t1_stage, n))


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


def _candidate_stages(
    st: NetlistStructure,
    stages: Sequence[Optional[int]],
    x: int,
    lb: int,
    ub: int,
    is_pi: bool,
    n: int,
    max_candidates: int,
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
            if len(cands) > max_candidates:
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
            if len(cands) > max_candidates:
                break
    return cands


def _move_window(
    st: NetlistStructure,
    stages: Sequence[Optional[int]],
    x: int,
    is_pi: bool,
    boundary: Optional[int],
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
    ub = min(ubs) if ubs else (boundary if boundary is not None else lb)
    if is_pi:
        ub = min(ub, n - 1)
    return lb, ub


def assign_stages_heuristic(
    netlist: SFQNetlist,
    sweeps: int = 4,
    include_po_balancing: bool = True,
    max_candidates: int = 160,
    free_pi_phases: bool = True,
) -> HeuristicReport:
    """ASAP + iterative per-cell improvement; sets ``cell.stage`` in place.

    Runs on the :class:`~repro.core.schedule.StageSchedule` kernel: every
    candidate stage is priced by delta evaluation against the maintained
    cost terms, and the PO boundary stays current across moves instead of
    being snapshotted once per sweep (the seed implementation's stale
    boundary could misprice moves near the schedule's deep end).

    ``free_pi_phases`` lets a primary input arrive at any phase of epoch 0
    (stage 0..n−1) instead of pinning it to phase 0 — the environment can
    deliver each input pulse on whichever clock phase suits the schedule,
    which is what makes T1 staggering "free" for input-fed cells.
    """
    st = netlist.structure()
    kernel = StageSchedule(
        netlist, include_po_balancing=include_po_balancing, structure=st
    )
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
            if not st.clocked[x] and not (is_pi and free_pi_phases):
                continue
            boundary = kernel.boundary()
            lb, ub = _move_window(st, stages, x, is_pi, boundary, n)
            if ub < lb:
                continue
            cands = _candidate_stages(
                st, stages, x, lb, ub, is_pi, n, max_candidates
            )
            current = stages[x]
            best_stage = current
            g_inf, g_fin = kernel.state()
            inc_inf = kernel.incident_inf(x) if g_inf else 0
            # the seed's local comparison key: INF while any term incident
            # to x is infeasible, the finite cost sum otherwise
            best_cost = INF if inc_inf else g_fin
            for cand in sorted(cands):
                if cand == current:
                    continue
                c_inf, c_fin = kernel.state_if_moved(x, cand)
                cost = INF if inc_inf + (c_inf - g_inf) else c_fin
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


def assign_stages_rescan_reference(
    netlist: SFQNetlist,
    sweeps: int = 4,
    include_po_balancing: bool = True,
    max_candidates: int = 160,
    free_pi_phases: bool = True,
) -> HeuristicReport:
    """The seed scan-and-rebuild heuristic, kept verbatim as an oracle.

    Re-sums every incident net/T1 term from scratch for every candidate
    and snapshots the PO boundary once per sweep (including its stale-
    boundary mispricing — see the kernel regression tests).  Used by the
    differential tests and :mod:`benchmarks.bench_schedule` to measure
    the delta-evaluation speedup in the same run; the flow itself always
    runs the kernel-based :func:`assign_stages_heuristic`.
    """
    st = netlist.structure()
    n = st.n
    stages = asap_stages(st)
    nl = netlist.cells
    report = HeuristicReport()

    def po_boundary() -> Optional[int]:
        if not include_po_balancing:
            return None
        mx = max(
            (stages[i] for i in range(len(nl)) if st.clocked[i] and stages[i] is not None),
            default=0,
        )
        return mx + 1

    def local_cost(x: int, boundary: Optional[int]) -> float:
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
            cost = t1_stagger_cost(stages[t], fins, n)  # type: ignore[arg-type]
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
            if not st.clocked[x] and not (is_pi and free_pi_phases):
                continue
            lb, ub = _move_window(st, stages, x, is_pi, boundary, n)
            if ub < lb:
                continue
            cands = _candidate_stages(
                st, stages, x, lb, ub, is_pi, n, max_candidates
            )
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
    report.final_cost = StageSchedule(
        netlist,
        include_po_balancing=include_po_balancing,
        stages=stages,
        structure=st,
    ).total()
    return report


# ---------------------------------------------------------------------------
# exact ILP (the paper's formulation, on the solver-model IR)
# ---------------------------------------------------------------------------

def build_ilp_model(
    netlist: SFQNetlist,
    horizon: Optional[int] = None,
):
    """Build the paper's phase-assignment ILP on the solver-model IR.

    Returns ``(model, sigma, k_vars)`` where *sigma* maps clocked cell
    indices to their stage variables.  The model carries no
    ``AllDifferent``, so ``solve(backend="auto")`` routes it to MILP.
    """
    from repro.solvers import SolverModel

    st = netlist.structure()
    n = st.n
    asap = asap_stages(st)
    max_asap = max(
        (s for i, s in enumerate(asap) if st.clocked[i] and s is not None),
        default=0,
    )
    if horizon is None:
        horizon = max_asap + 2 * n
    model = SolverModel()
    sigma: Dict[int, object] = {}
    for cell in netlist.cells:
        if cell.clocked:
            sigma[cell.index] = model.add_var(
                1, horizon, name=f"sigma{cell.index}"
            )

    k_vars = []
    for cell in netlist.cells:
        if not cell.clocked:
            continue
        v = cell.index
        if st.is_t1[v]:
            # offset permutation z[i][o]: fanin i gets offset o in {1, 2, 3}
            zs = [
                [model.add_var(0, 1, name=f"z{v}_{i}_{o}") for o in (1, 2, 3)]
                for i in range(3)
            ]
            for i in range(3):
                model.add_linear(
                    {zs[i][0]: 1, zs[i][1]: 1, zs[i][2]: 1}, "==", 1
                )
            for o in range(3):
                model.add_linear(
                    {zs[0][o]: 1, zs[1][o]: 1, zs[2][o]: 1}, "==", 1
                )
            for i, d in enumerate(st.fanin_drivers[v]):
                coeffs = {sigma[v]: 1}
                const = 0
                if netlist.cells[d].kind is CellKind.PI:
                    pass  # sigma_d == 0
                else:
                    coeffs[sigma[d]] = -1
                # sigma_v - sigma_d >= 1*z1 + 2*z2 + 3*z3
                coeffs[zs[i][0]] = coeffs.get(zs[i][0], 0) - 1
                coeffs[zs[i][1]] = coeffs.get(zs[i][1], 0) - 2
                coeffs[zs[i][2]] = coeffs.get(zs[i][2], 0) - 3
                model.add_linear(coeffs, ">=", const)
        # per-edge DFF counters for every fanin edge
        for d in st.fanin_drivers[v]:
            k = model.add_var(1, horizon, name=f"k_{d}_{v}")
            k_vars.append(k)
            coeffs = {k: n, sigma[v]: -1}
            if netlist.cells[d].kind is not CellKind.PI:
                coeffs[sigma[d]] = 1
            model.add_linear(coeffs, ">=", 0)
            # plain precedence for non-T1 consumers
            if not st.is_t1[v]:
                pc = {sigma[v]: 1}
                if netlist.cells[d].kind is not CellKind.PI:
                    pc[sigma[d]] = -1
                model.add_linear(pc, ">=", 1)

    model.minimize({k: 1 for k in k_vars})
    return model, sigma, k_vars


def assign_stages_ilp(
    netlist: SFQNetlist,
    horizon: Optional[int] = None,
    node_limit: int = 50_000,
    time_budget_s: Optional[float] = None,
) -> None:
    """Exact phase assignment on the MILP backend; small netlists only.

    Objective: per-edge DFF proxy Σ(k_e − 1) with n·k_e ≥ σ_v − σ_u — the
    formulation of ref. [10] extended with the T1 offset permutation of
    eq. 3.  Sets ``cell.stage`` in place.  *time_budget_s* caps the
    wall-clock spent in the search (see :meth:`SolverModel.solve`).
    """
    model, sigma, _ = build_ilp_model(netlist, horizon=horizon)
    sol = model.solve(
        backend="auto", node_limit=node_limit, time_budget_s=time_budget_s
    )
    for cell in netlist.cells:
        if cell.clocked:
            cell.stage = sol.int_value(sigma[cell.index])


#: method="auto" runs the exact ILP when the netlist is at most this many
#: clocked cells (and at most AUTO_ILP_MAX_T1 T1 blocks — each T1 adds a
#: 3x3 permutation sub-model), falling back to the heuristic above that.
AUTO_ILP_MAX_CELLS = 24
AUTO_ILP_MAX_T1 = 4

#: wall-clock budget for the exact branch of method="auto": a search
#: that runs past this falls back to the heuristic (degraded result)
#: instead of stalling the flow.
AUTO_TIME_BUDGET_S = 10.0


def _heuristic_info(
    report: HeuristicReport, degraded: bool = False, reason: Optional[str] = None
) -> Dict[str, object]:
    """:func:`assign_stages` info dict of a heuristic run."""
    return {
        "method": "heuristic",
        "degraded": degraded,
        "reason": reason,
        "sweeps_run": report.sweeps_run,
        "moves_evaluated": report.moves_evaluated,
        "moves_applied": report.moves_applied,
    }


def assign_stages(
    netlist: SFQNetlist,
    method: str = "heuristic",
    **kwargs,
) -> Dict[str, object]:
    """Dispatch on *method* ("heuristic", "ilp" or "auto").

    ``method="auto"`` picks exact-vs-heuristic by size: netlists with at
    most :data:`AUTO_ILP_MAX_CELLS` clocked cells (and at most
    :data:`AUTO_ILP_MAX_T1` T1 blocks) get the exact ILP; larger ones the
    kernel heuristic.  The exact search runs under a node budget and a
    wall-clock budget (``time_budget_s``, default
    :data:`AUTO_TIME_BUDGET_S`); exhausting either — with or without an
    incumbent — degrades to the heuristic instead of failing or
    committing an unproven solution.

    Returns an info dict: ``method`` ("heuristic" or "ilp") is the
    engine that produced the committed stages, ``degraded`` is True only
    when the exact engine was attempted and fell back, and ``reason``
    says why.  When the heuristic ran, the dict also carries its
    ``sweeps_run``, ``moves_evaluated`` and ``moves_applied``.  The
    ``solver.exact`` fault point (see :mod:`repro.faults`) forces that
    fallback deterministically.

    Note that the two engines optimise different objectives: the ILP is
    exact on the per-edge proxy Σ(k_e − 1) with PIs pinned at stage 0,
    so the heuristic-only knobs (``sweeps``, ``include_po_balancing``,
    ``free_pi_phases``) do not apply on the exact branch.
    """
    if method == "heuristic":
        return _heuristic_info(assign_stages_heuristic(netlist, **kwargs))
    elif method == "ilp":
        assign_stages_ilp(netlist, **kwargs)
        return {"method": "ilp", "degraded": False, "reason": None}
    elif method == "auto":
        ilp_kwargs = {
            k: kwargs[k]
            for k in ("horizon", "node_limit", "time_budget_s")
            if k in kwargs
        }
        heur_kwargs = {k: v for k, v in kwargs.items() if k not in ilp_kwargs}
        clocked = sum(1 for c in netlist.cells if c.clocked)
        n_t1 = sum(1 for c in netlist.cells if c.kind is CellKind.T1)
        if clocked <= AUTO_ILP_MAX_CELLS and n_t1 <= AUTO_ILP_MAX_T1:
            reason: Optional[str] = None
            try:
                faults.fire(
                    "solver.exact", "simulated exact-solver failure"
                )
                model, sigma, _ = build_ilp_model(
                    netlist, horizon=ilp_kwargs.get("horizon")
                )
                sol = model.solve(
                    backend="auto",
                    node_limit=ilp_kwargs.get("node_limit", 50_000),
                    time_budget_s=ilp_kwargs.get(
                        "time_budget_s", AUTO_TIME_BUDGET_S
                    ),
                )
            except FaultInjected as exc:
                sol = None
                reason = str(exc)
            except SolverLimitError as exc:
                sol = None  # no incumbent within the budgets
                reason = f"exact search budget exhausted: {exc}"
            if sol is not None and sol.optimal:
                for cell in netlist.cells:
                    if cell.clocked:
                        cell.stage = sol.int_value(sigma[cell.index])
                return {"method": "ilp", "degraded": False, "reason": None}
            if sol is not None:
                reason = (
                    "exact search budget exhausted with unproven incumbent"
                )
            # budget exhausted (unproven incumbent or none) -> heuristic
            return _heuristic_info(
                assign_stages_heuristic(netlist, **heur_kwargs), True, reason
            )
        return _heuristic_info(assign_stages_heuristic(netlist, **heur_kwargs))
    else:
        raise SolverError(f"unknown phase-assignment method {method!r}")

"""DFF insertion (§II-C of the paper, eq. 5).

After phase assignment every clocked cell has its stage σ.  This module
materialises the path-balancing DFFs:

* **ordinary nets** get a shared chain at stages σ_d + n, σ_d + 2n, …;
  every consumer taps the chain element within n stages (max-gap rule —
  the net costs ``max_v ⌈gap/n⌉ − 1`` DFFs);
* **primary outputs** are balanced to a common boundary one stage past
  the deepest cell;
* **T1 fanins** are special: the three T pulses must *arrive* at pairwise
  distinct stages inside the freshness window (σ_T1 − n, σ_T1).  An input
  arrives either directly from its driver (gap ≤ n, zero DFFs) or from
  the last DFF of a dedicated chain (stage flexible).  Slots are assigned
  by minimum-cost matching over the ≤ n window slots; a collision between
  two direct inputs costs one extra staggering DFF — exactly the c_T1
  term of eq. 4.  The paper solves this with CP-SAT; the flow uses the
  closed-form matcher, which the tests cross-check against a CP model
  of eq. 5.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TimingError
from repro.sfq.multiphase import edge_dffs
from repro.sfq.netlist import CellKind, OUT, SFQNetlist, Signal

INF = float("inf")


# ---------------------------------------------------------------------------
# T1 input planning
# ---------------------------------------------------------------------------

def t1_slot_cost(driver_stage: int, slot: int, t1_stage: int, n: int) -> float:
    """DFFs needed so the pulse of a fanin at *driver_stage* arrives at *slot*.

    The slot must lie in the freshness window [σ_T1 − n, σ_T1 − 1].
    """
    if not t1_stage - n <= slot <= t1_stage - 1:
        return INF
    if slot < driver_stage:
        return INF
    if slot == driver_stage:
        return 0.0  # direct arrival
    gap = slot - driver_stage
    # a chain of k DFFs ending exactly at `slot` needs k >= ceil(gap / n)
    # (spacing <= n per hop) and k <= gap (spacing >= 1 per hop)
    k = math.ceil(gap / n)
    return float(k)


@dataclass
class T1InputPlan:
    """Chosen arrival slots for the three fanins of one T1 cell."""

    slots: Tuple[int, int, int]
    dffs: Tuple[int, int, int]

    @property
    def total_dffs(self) -> int:
        return sum(self.dffs)


def plan_t1_inputs(
    t1_stage: int, fanin_stages: Sequence[int], n: int
) -> T1InputPlan:
    """Minimum-cost distinct-slot assignment for a T1 cell's inputs.

    Brute-force matching over the window's slot triples (the window has at
    most n <= 8 slots, so this is exact and fast).  Raises
    :class:`TimingError` when no assignment exists — phase assignment must
    have honoured eq. 3 for this to succeed.
    """
    if len(fanin_stages) != 3:
        raise TimingError("T1 cell must have exactly 3 fanins")
    window = range(max(0, t1_stage - n), t1_stage)
    best: Optional[Tuple[float, Tuple[int, ...]]] = None
    for combo in itertools.permutations(window, 3):
        cost = 0.0
        for sd, slot in zip(fanin_stages, combo):
            cost += t1_slot_cost(sd, slot, t1_stage, n)
            if cost >= INF:
                break
        if cost < INF and (best is None or cost < best[0]):
            best = (cost, combo)
    if best is None:
        raise TimingError(
            f"no feasible T1 input staggering: stage {t1_stage}, "
            f"fanins {tuple(fanin_stages)}, n={n} (eq. 3 violated?)"
        )
    slots = best[1]
    dffs = tuple(
        int(t1_slot_cost(sd, slot, t1_stage, n))
        for sd, slot in zip(fanin_stages, slots)
    )
    return T1InputPlan(slots=tuple(slots), dffs=dffs)  # type: ignore[arg-type]


def t1_input_cost(t1_stage: int, fanin_stages: Sequence[int], n: int) -> float:
    """DFF count of the optimal staggering, or +inf when infeasible."""
    try:
        return float(plan_t1_inputs(t1_stage, fanin_stages, n).total_dffs)
    except TimingError:
        return INF


# ---------------------------------------------------------------------------
# net planning and netlist rewriting
# ---------------------------------------------------------------------------

@dataclass
class InsertionReport:
    """Statistics of one insertion run."""

    path_dffs: int = 0
    t1_stagger_dffs: int = 0
    po_balance_dffs: int = 0

    @property
    def total(self) -> int:
        return self.path_dffs + self.t1_stagger_dffs + self.po_balance_dffs


def net_chain_length(gaps: Sequence[int], n: int) -> int:
    """Shared-chain length for a net with the given consumer gaps."""
    if not gaps:
        return 0
    return max(edge_dffs(g, n) for g in gaps)


def insert_dffs(
    netlist: SFQNetlist,
    share_chains: bool = True,
) -> InsertionReport:
    """Insert every path-balancing and staggering DFF; mutates *netlist*.

    Requires all clocked cells to carry stages.  After this pass the
    netlist satisfies the timing rules of :mod:`repro.sfq.timing`.

    ``share_chains=False`` gives every fanout edge its own chain (the
    per-edge counting of the paper's ILP objective) — used by the A2
    ablation to quantify how much chain sharing changes Table I.
    """
    n = netlist.n_phases
    report = InsertionReport()
    cells = netlist.cells
    for cell in cells:
        if cell.clocked and cell.stage is None:
            raise TimingError(f"cell {cell.index} has no stage")

    # structural snapshot (epoch-cached; usually shared with the phase-
    # assignment pass that just ran) — taken before any chain insertion
    structure = netlist.structure()

    # ---- plan T1 fanin slots first (their chains are dedicated) ----------
    t1_plans: Dict[int, T1InputPlan] = {}
    original_t1 = [c.index for c in cells if c.kind is CellKind.T1]
    for idx in original_t1:
        cell = cells[idx]
        fanin_stages = [
            netlist.driver_cell(sig).stage for sig in cell.fanins
        ]
        t1_plans[idx] = plan_t1_inputs(cell.stage, fanin_stages, n)  # type: ignore[arg-type]

    # ---- output boundary ---------------------------------------------------
    max_stage = netlist.max_stage()
    po_boundary = max_stage + 1

    # ---- group ordinary consumers by net ------------------------------------
    # maintained (consumer, fanin index) slots per signal, T1 fanins excluded
    net_consumers: Dict[Signal, List[Tuple[int, int]]] = structure.net_slots
    po_by_signal: Dict[Signal, List[int]] = structure.po_slots

    def insert_for_group(
        sig: Signal,
        consumers: List[Tuple[int, int]],
        po_indices: List[int],
    ) -> None:
        driver = netlist.driver_cell(sig)
        if driver.kind in (CellKind.CONST0, CellKind.CONST1):
            return  # constants need no balancing (0 = silence, 1 = free-running)
        ds = driver.stage
        assert ds is not None
        # chain length: the longest consumer gap, then the PO boundary
        max_gap = 0
        for cons_idx, _i in consumers:
            cs = cells[cons_idx].stage
            assert cs is not None
            gap = cs - ds
            if gap < 1:
                raise TimingError(
                    f"edge {driver.index}->{cons_idx}: consumer not later"
                )
            if gap > max_gap:
                max_gap = gap
        length_gates_only = edge_dffs(max_gap, n) if consumers else 0
        po_tap = edge_dffs(po_boundary - ds, n) if po_indices else 0
        length = max(length_gates_only, po_tap)
        # build the shared chain
        chain: List[int] = []
        prev: Signal = sig
        for j in range(length):
            dff = netlist.add_dff(prev, stage=ds + (j + 1) * n)
            chain.append(dff)
            prev = (dff, OUT)
        report.path_dffs += length_gates_only
        report.po_balance_dffs += length - length_gates_only
        # rewire consumers to their chain tap
        for cons_idx, fanin_i in consumers:
            cs = cells[cons_idx].stage
            tap_idx = edge_dffs(cs - ds, n)  # elements before the consumer
            if tap_idx > 0:
                netlist.replace_fanin(cons_idx, fanin_i, (chain[tap_idx - 1], OUT))
        if po_tap > 0:
            for po_idx in po_indices:
                netlist.replace_po(po_idx, (chain[po_tap - 1], OUT))

    all_signals = sorted(set(net_consumers) | set(po_by_signal))
    if share_chains:
        for sig in all_signals:
            insert_for_group(
                sig, net_consumers.get(sig, []), po_by_signal.get(sig, [])
            )
    else:
        # per-edge chains: one dedicated chain per consumer and per PO
        for sig in all_signals:
            for cons in net_consumers.get(sig, []):
                insert_for_group(sig, [cons], [])
            for po_idx in po_by_signal.get(sig, []):
                insert_for_group(sig, [], [po_idx])

    # ---- dedicated T1 chains -------------------------------------------------
    for idx in original_t1:
        cell = cells[idx]
        plan = t1_plans[idx]
        for fanin_i, sig in enumerate(cell.fanins):
            driver = netlist.driver_cell(sig)
            ds = driver.stage
            assert ds is not None
            slot = plan.slots[fanin_i]
            count = plan.dffs[fanin_i]
            if count == 0:
                continue
            # chain of `count` DFFs ending exactly at `slot`; spread the
            # positions backwards with gaps <= n and >= 1
            positions: List[int] = []
            pos = slot
            for _ in range(count):
                positions.append(pos)
                pos -= n
            positions = sorted(positions)
            # clamp the earliest hops so every position is after the driver
            for j, p in enumerate(positions):
                min_pos = ds + j + 1
                if p < min_pos:
                    positions[j] = min_pos
            prev = sig
            for p in positions:
                dff = netlist.add_dff(prev, stage=p)
                prev = (dff, OUT)
            report.t1_stagger_dffs += count
            netlist.replace_fanin(idx, fanin_i, prev)
    return report

"""Exact phase-assignment oracle for tiny netlists (test-side only).

:func:`exact_stages` is an exhaustive branch-and-bound over stage
vectors that minimises what DFF insertion actually places
(``insert_dffs(...).total`` with shared chains and PO balancing).  Its
cost is built from the insertion primitives themselves —
:func:`~repro.core.dff_insertion.net_chain_length` and
:func:`~repro.core.dff_insertion.plan_t1_inputs` — and never from
:class:`~repro.core.schedule.StageSchedule`, so it can catch a kernel
that misprices a schedule.

The search space follows the heuristic's defaults: PIs free in epoch 0
(stage 0..n−1), every clocked cell in [earliest feasible stage,
max ASAP + 2n].
Cells are fixed in topological order.  The bound a branch is pruned
on counts each net's chain over its consumers fixed so far (it only
grows as more are fixed), every fixed T1's staggering, and each PO
net's boundary chain at the current boundary (``max stage + 1`` only
grows).  The search stops at the first zero-cost schedule.

:func:`heuristic_vs_optimum` compares the flow's heuristic with it, and
:func:`random_netlist` generates the small random instances the tests
and the A3 ablation run both on.
"""

import random

from repro.core.dff_insertion import insert_dffs, net_chain_length, t1_input_cost
from repro.core.phase_assignment import assign_stages_heuristic
from repro.core.schedule import asap_stages, t1_lower_bound
from repro.network.gates import Gate
from repro.sfq import check_timing
from repro.sfq.netlist import OUT, CellKind, SFQNetlist

INF = float("inf")


def exact_stages(netlist):
    """``(optimal DFF count, stage per cell)``; leaves *netlist* unstaged."""
    st = netlist.structure()
    n, cells = st.n, netlist.cells
    asap = asap_stages(st)
    horizon = max((asap[i] for i, c in enumerate(st.clocked) if c), default=0)
    horizon += 2 * n
    order = [i for i in st.order if st.clocked[i] or cells[i].kind is CellKind.PI]
    consts = (CellKind.CONST0, CellKind.CONST1)
    chain = dict.fromkeys(st.nets, 0)  # chain length over the fixed consumers
    stages = [None] * len(cells)
    best = [INF, None]
    t1_memo = {}

    def t1_cost(s, fins):
        key = (s, *fins)
        if key not in t1_memo:
            t1_memo[key] = t1_input_cost(s, fins, n)
        return t1_memo[key]

    def po_cost(boundary, final):
        """Extra DFFs the PO boundary adds on top of the consumer chains."""
        total = 0
        for sig in st.po_signals:
            ds = stages[sig[0]]
            if ds is None:
                continue
            if boundary - ds < 1:
                if final:
                    return INF  # a PI arriving after the boundary
                continue
            total += max(0, net_chain_length([boundary - ds], n) - chain[sig])
        return total

    def search(k, fixed, max_clocked):
        bound = fixed + po_cost(max_clocked + 1, k == len(order))
        if bound >= best[0]:
            return
        if k == len(order):
            best[:] = [bound, list(stages)]
            return
        x = order[k]
        fins = [stages[d] for d in st.fanin_drivers[x]]
        if cells[x].kind is CellKind.PI:
            lo, hi = 0, n - 1
        elif st.is_t1[x]:
            lo, hi = t1_lower_bound(fins), horizon
        else:
            lo, hi = (max(fins) + 1 if fins else 1), horizon
        nets = [] if st.is_t1[x] else [
            sig for sig in set(st.fanin_signals[x]) if cells[sig[0]].kind not in consts
        ]
        saved = [chain[sig] for sig in nets]
        for s in range(lo, hi + 1):
            stages[x] = s
            cost = fixed
            if st.is_t1[x]:
                cost += t1_cost(s, fins)
            for sig, old in zip(nets, saved):
                chain[sig] = max(old, net_chain_length([s - stages[sig[0]]], n))
                cost += chain[sig] - old
            search(k + 1, cost, max(max_clocked, s) if st.clocked[x] else max_clocked)
            if best[0] == 0:
                break
        for sig, old in zip(nets, saved):
            chain[sig] = old
        stages[x] = None

    search(0, 0, 0)
    return best[0], best[1]


def heuristic_vs_optimum(make):
    """``(optimum, heuristic)`` DFF totals on two fresh ``make()`` netlists.

    Also checks the oracle against insertion itself: its stages must
    insert exactly the optimum into a timing-clean netlist.
    """
    nl = make()
    opt, stages = exact_stages(nl)
    for cell in nl.cells:
        cell.stage = stages[cell.index]
    assert insert_dffs(nl).total == opt
    assert check_timing(nl).ok
    nl = make()
    assign_stages_heuristic(nl)
    return opt, insert_dffs(nl).total


def random_netlist(seed, n_phases, n_pi=4, n_gates=12, n_t1=2, n_po=3):
    """A random mapped netlist (gates + optional T1 blocks + POs)."""
    rng = random.Random(seed)
    nl = SFQNetlist(f"rand{seed}", n_phases=n_phases)
    sigs = [(nl.add_pi(), OUT) for _ in range(n_pi)]
    for _ in range(n_gates):
        fins = [rng.choice(sigs) for _ in range(rng.choice([1, 2, 2, 3]))]
        sigs.append((nl.add_gate(Gate.AND, fins), OUT))
    if n_phases >= 3:
        for _ in range(n_t1):
            a, b, c = (rng.choice(sigs) for _ in range(3))
            t = nl.add_t1(a, b, c)
            for port in ("S", "C", "Q"):
                if rng.random() < 0.7:
                    sigs.append((t, port))
    for _ in range(n_po):
        nl.add_po(rng.choice(sigs))
    return nl

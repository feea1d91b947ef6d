"""Property tests: stage/DFF invariants on random pipelines (eqs. 1, 3, 5).

These check the *structural laws* directly, complementing the functional
fuzz suite:

I1. after insertion, every producer→consumer stage gap lies in [1, n];
I2. per net, the inserted chain length equals max(⌈gap/n⌉ − 1) over the
    pre-insertion consumer gaps (minimality of sharing);
I3. T1 fanins arrive at pairwise distinct stages within the window;
I4. depth in cycles equals ⌈σ_max / n⌉.
"""

import math
import random

import pytest

from repro.pipeline import Pipeline
from repro.sfq.multiphase import depth_cycles, edge_dffs
from repro.sfq.netlist import CellKind
from tests.test_flow_fuzz import random_network


def _flows(seed, n, use_t1):
    net = random_network(seed, num_gates=30)
    return Pipeline.standard(n_phases=n, use_t1=use_t1, verify="none").run(net)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_i1_gap_bounds(seed, n):
    res = _flows(seed, n, use_t1=(n >= 3))
    nl = res.netlist
    for cell in nl.cells:
        if not cell.clocked:
            continue
        for sig in cell.fanins:
            d = nl.cells[sig[0]]
            gap = cell.stage - d.stage
            assert 1 <= gap <= n, (seed, n, d.index, cell.index, gap)


@pytest.mark.parametrize("seed", range(6))
def test_i3_t1_distinct_arrivals(seed):
    res = _flows(seed, 4, use_t1=True)
    nl = res.netlist
    for cell in nl.t1_cells():
        arrivals = [nl.cells[sig[0]].stage for sig in cell.fanins]
        assert len(set(arrivals)) == 3, (seed, cell.index, arrivals)
        for a in arrivals:
            assert cell.stage - 4 <= a <= cell.stage - 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 4])
def test_i4_depth_definition(seed, n):
    res = _flows(seed, n, use_t1=False)
    assert res.depth_cycles == depth_cycles(res.netlist.max_stage(), n)
    assert res.depth_cycles == math.ceil(res.netlist.max_stage() / n)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_i2_chain_minimality(seed, n):
    """Replay insertion counting: DFFs per ordinary net == shared minimum."""
    from repro.network.cleanup import strash
    from repro.sfq.mapping import map_to_sfq
    from repro.core.dff_insertion import insert_dffs
    from repro.core.phase_assignment import assign_stages_heuristic

    net = random_network(seed, num_gates=25)
    work, _ = strash(net)
    nl, _ = map_to_sfq(work, n_phases=n)
    assign_stages_heuristic(nl)

    # record pre-insertion gaps per ordinary net (excluding T1 consumers
    # and PO balancing, which have separate rules)
    gaps = {}
    for cell in nl.cells:
        if cell.kind is CellKind.T1:
            continue
        for sig in cell.fanins:
            d = nl.cells[sig[0]]
            gaps.setdefault(sig, []).append(cell.stage - d.stage)
    expected = sum(
        max(edge_dffs(g, n) for g in glist) for glist in gaps.values()
    )
    report = insert_dffs(nl)
    assert report.path_dffs == expected, (seed, n)


@pytest.mark.parametrize("seed", range(4))
def test_stagger_dffs_bounded_by_two_per_cell(seed):
    """Eq. 4: each T1 needs at most 2 extra staggering DFFs beyond its
    path-balancing chains (collisions involve at most 2 of 3 inputs
    moving)."""
    res = _flows(seed, 4, use_t1=True)
    nl = res.netlist
    t1_count = sum(1 for _ in nl.t1_cells())
    if t1_count == 0:
        return
    # upper bound: balancing chains (<= ceil(gap/n) each) + 2 per cell;
    # loose but must hold
    ins = res.insertion
    assert ins.t1_stagger_dffs <= t1_count * (2 + 3 * (nl.max_stage() // 4 + 1))

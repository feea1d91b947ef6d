"""Tests for phase assignment: constraints, heuristic vs exact optimum."""

import pytest

from oracles.exact_stages import heuristic_vs_optimum
from repro.network import Gate, LogicNetwork
from repro.network.cleanup import strash
from repro.sfq import map_to_sfq, check_timing
from repro.core.dff_insertion import insert_dffs
from repro.core.phase_assignment import assign_stages_heuristic
from repro.core.schedule import asap_stages, t1_lower_bound
from repro.metrics import measure


def chain_net(length=5):
    net = LogicNetwork()
    a = net.add_pi()
    cur = a
    for _ in range(length):
        cur = net.add_not(cur)
    net.add_po(cur)
    return net


def t1_net():
    net = LogicNetwork()
    a, b, c = (net.add_pi() for _ in range(3))
    cell = net.add_t1_cell(a, b, c)
    net.add_po(net.add_t1_tap(cell, Gate.T1_S))
    net.add_po(net.add_t1_tap(cell, Gate.T1_C))
    return net


class TestT1LowerBound:
    def test_eq3_sorted(self):
        # fanins at 0,0,0: need sigma >= 3
        assert t1_lower_bound([0, 0, 0]) == 3
        # staggered fanins: 2,1,0 -> max(0+3, 1+2, 2+1) = 3
        assert t1_lower_bound([2, 1, 0]) == 3
        # late third input dominates
        assert t1_lower_bound([0, 0, 9]) == 10


class TestAsap:
    def test_levels_like(self):
        net = chain_net(4)
        nl, _ = map_to_sfq(net, n_phases=4)
        st = nl.structure()
        stages = asap_stages(st)
        clocked = [c for c in nl.cells if c.clocked]
        got = sorted(stages[c.index] for c in clocked)
        assert got == [1, 2, 3, 4]

    def test_t1_gets_eq3_offset(self):
        nl, _ = map_to_sfq(t1_net(), n_phases=4)
        st = nl.structure()
        stages = asap_stages(st)
        t1 = next(c for c in nl.t1_cells())
        assert stages[t1.index] == 3


class TestHeuristic:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_constraints_hold_after_assignment(self, n):
        from repro.circuits import ripple_carry_adder

        net = ripple_carry_adder(8)
        nl, _ = map_to_sfq(net, n_phases=n)
        assign_stages_heuristic(nl)
        insert_dffs(nl)
        assert check_timing(nl).ok

    def test_heuristic_beats_or_matches_asap(self):
        from repro.circuits import c7552_like

        net = c7552_like(8)
        from repro.network.cleanup import strash

        net, _ = strash(net)
        nl, _ = map_to_sfq(net, n_phases=4)
        st = nl.structure()
        asap = asap_stages(st)
        # cost with raw ASAP
        nl_asap, _ = map_to_sfq(net, n_phases=4)
        for cell in nl_asap.cells:
            if cell.clocked:
                cell.stage = asap[cell.index]
        insert_dffs(nl_asap)
        asap_dffs = nl_asap.num_dffs()

        assign_stages_heuristic(nl)
        insert_dffs(nl)
        assert nl.num_dffs() <= asap_dffs

    def test_free_pi_phases_do_not_exceed_epoch0(self):
        nl, _ = map_to_sfq(t1_net(), n_phases=4)
        assign_stages_heuristic(nl)
        for pi in nl.pis:
            assert 0 <= nl.cells[pi].stage <= 3


class TestHeuristicVsOptimum:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("bits", [2, 3])
    def test_ripple_carry_adder_near_optimum(self, bits, n):
        from repro.circuits import ripple_carry_adder

        def make():
            net, _ = strash(ripple_carry_adder(bits))
            return map_to_sfq(net, n_phases=n)[0]

        opt, got = heuristic_vs_optimum(make)
        assert opt <= got <= opt + 2

    def test_reconvergent_paths(self):
        # unbalanced reconvergence: the short path must be placed late
        # (or its DFFs counted)
        net = LogicNetwork()
        a, b = net.add_pi(), net.add_pi()
        long = net.add_not(a)
        long = net.add_not(long)
        long = net.add_not(long)
        out = net.add_and(long, b)
        net.add_po(out)
        nl, _ = map_to_sfq(net, n_phases=2)
        assign_stages_heuristic(nl)
        insert_dffs(nl)
        assert check_timing(nl).ok
        # with n=2 the 4-deep long path forces the AND to stage 4; the
        # short b edge (gap 4) costs at most 1 DFF
        assert nl.num_dffs() <= 1

    def test_t1_offsets(self):
        nl, _ = map_to_sfq(t1_net(), n_phases=4)
        assign_stages_heuristic(nl)
        t1 = next(c for c in nl.t1_cells())
        fanins = [nl.cells[sig[0]].stage for sig in t1.fanins]
        assert t1.stage >= t1_lower_bound(fanins)  # eq. 3
        insert_dffs(nl)
        assert check_timing(nl).ok


class TestEndToEndCost:
    def test_multiphase_reduces_dffs(self):
        """The ASP-DAC'24 headline the paper builds on: n=4 cuts DFFs ~3x."""
        from repro.circuits import ripple_carry_adder

        net = ripple_carry_adder(16)
        results = {}
        for n in (1, 4):
            nl, _ = map_to_sfq(net, n_phases=n)
            assign_stages_heuristic(nl)
            insert_dffs(nl)
            results[n] = measure(nl)
        assert results[4].num_dffs < results[1].num_dffs / 2
        assert results[4].depth_cycles * 3 < results[1].depth_cycles

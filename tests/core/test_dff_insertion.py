"""Tests for DFF insertion: chains, T1 slots (eq. 4-5), CP cross-check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.dff_insertion import plan_t1_inputs_cp
from repro.errors import TimingError
from repro.network import Gate, LogicNetwork
from repro.sfq import SFQNetlist, check_timing, map_to_sfq
from repro.core.dff_insertion import (
    insert_dffs,
    net_chain_length,
    plan_t1_inputs,
    t1_input_cost,
    t1_slot_cost,
)
from repro.core.phase_assignment import assign_stages_heuristic


class TestSlotCost:
    def test_direct_arrival_free(self):
        assert t1_slot_cost(driver_stage=5, slot=5, t1_stage=8, n=4) == 0

    def test_slot_outside_window_infeasible(self):
        assert t1_slot_cost(5, 3, 8, 4) == float("inf")  # 3 < 8-4
        assert t1_slot_cost(5, 8, 8, 4) == float("inf")  # slot == t1 stage

    def test_slot_before_driver_infeasible(self):
        assert t1_slot_cost(7, 6, 8, 4) == float("inf")

    def test_one_dff_within_n(self):
        assert t1_slot_cost(5, 6, 8, 4) == 1

    def test_chain_cost_ceil(self):
        # driver at 0, slot at 7, n=4: ceil(7/4)=2 DFFs
        assert t1_slot_cost(0, 7, 8, 4) == 2


class TestPlanT1Inputs:
    def test_staggered_fanins_free(self):
        plan = plan_t1_inputs(4, [1, 2, 3], 4)
        assert plan.total_dffs == 0
        assert sorted(plan.slots) == [1, 2, 3]

    def test_collision_costs_one(self):
        # two direct fanins at the same stage: eq. 4's c_T1 = 1
        # (sigma_T1 = 5 honours eq. 3: max(2+3, 2+2, 3+1) = 5)
        plan = plan_t1_inputs(5, [2, 2, 3], 4)
        assert plan.total_dffs == 1

    def test_double_collision_costs_two(self):
        plan = plan_t1_inputs(4, [1, 1, 1], 4)
        assert plan.total_dffs == 2

    def test_far_fanin_chain_flexible(self):
        # fanin far below the window: its chain end lands in a free slot
        plan = plan_t1_inputs(12, [2, 11, 10], 4)
        # chain for stage-2 fanin: ceil((slot-2)/4) with slot in [8,9];
        # slots 11,10 taken by direct arrivals
        assert plan.total_dffs == 2
        assert len(set(plan.slots)) == 3

    def test_eq3_violation_infeasible(self):
        with pytest.raises(TimingError):
            plan_t1_inputs(2, [1, 1, 1], 4)  # sigma >= 1+3 required

    def test_cost_helper_inf(self):
        assert t1_input_cost(2, [1, 1, 1], 4) == float("inf")

    def test_cp_model_matches_closed_form_near_stage_zero(self):
        # (4, [0, 0, 0], 4): the freshness window is clipped at stage 0
        for t1_stage, fanins, n in [
            (6, [1, 2, 3], 4),
            (4, [0, 0, 0], 4),
            (5, [1, 1, 4], 3),
        ]:
            exact = plan_t1_inputs(t1_stage, fanins, n)
            cp = plan_t1_inputs_cp(t1_stage, fanins, n)
            assert cp.total_dffs == exact.total_dffs

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 6),
        gaps=st.tuples(
            st.integers(1, 10), st.integers(1, 10), st.integers(1, 10)
        ),
    )
    def test_matcher_agrees_with_cp_model(self, n, gaps):
        t1_stage = 12
        fanins = [t1_stage - g for g in gaps]
        try:
            plan = plan_t1_inputs(t1_stage, fanins, n)
        except TimingError:
            with pytest.raises(TimingError):
                plan_t1_inputs_cp(t1_stage, fanins, n)
            return
        cp = plan_t1_inputs_cp(t1_stage, fanins, n)
        assert cp.total_dffs == plan.total_dffs
        assert len(set(cp.slots)) == 3

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 6),
        gaps=st.tuples(
            st.integers(1, 10), st.integers(1, 10), st.integers(1, 10)
        ),
    )
    def test_plan_slots_valid(self, n, gaps):
        t1_stage = 12
        fanins = [t1_stage - g for g in gaps]
        try:
            plan = plan_t1_inputs(t1_stage, fanins, n)
        except TimingError:
            return
        assert len(set(plan.slots)) == 3  # eq. 5
        for sd, slot, k in zip(fanins, plan.slots, plan.dffs):
            assert t1_stage - n <= slot <= t1_stage - 1
            assert slot >= sd
            assert k == t1_slot_cost(sd, slot, t1_stage, n)


class TestNetChains:
    def test_net_chain_length(self):
        assert net_chain_length([], 4) == 0
        assert net_chain_length([3], 4) == 0
        assert net_chain_length([5, 9], 4) == 2

    def _diamond(self, n):
        net = LogicNetwork()
        a, b = net.add_pi(), net.add_pi()
        x = net.add_not(a)
        y1 = net.add_not(x)
        y2 = net.add_not(y1)
        out = net.add_and(x, y2)  # x used at two different depths
        net.add_po(out)
        nl, _ = map_to_sfq(net, n_phases=n)
        assign_stages_heuristic(nl)
        return nl

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_insertion_satisfies_timing(self, n):
        nl = self._diamond(n)
        insert_dffs(nl)
        assert check_timing(nl).ok

    def test_shared_vs_per_edge(self):
        from repro.circuits import ripple_carry_adder

        net = ripple_carry_adder(8)
        counts = {}
        for share in (True, False):
            nl, _ = map_to_sfq(net, n_phases=1)
            assign_stages_heuristic(nl)
            insert_dffs(nl, share_chains=share)
            assert check_timing(nl).ok
            counts[share] = nl.num_dffs()
        assert counts[True] <= counts[False]

    def test_report_categories(self):
        from repro.circuits import ripple_carry_adder

        net = ripple_carry_adder(6)
        from repro.core.t1_detection import detect_and_replace

        res = detect_and_replace(net)
        nl, _ = map_to_sfq(res.network, n_phases=4)
        assign_stages_heuristic(nl)
        report = insert_dffs(nl)
        assert report.total == nl.num_dffs()
        assert report.path_dffs >= 0
        assert report.t1_stagger_dffs >= 0

    def test_missing_stage_rejected(self):
        nl = SFQNetlist(n_phases=2)
        a = nl.add_pi()
        nl.add_gate(Gate.NOT, [(a, "out")])
        with pytest.raises(TimingError):
            insert_dffs(nl)

"""Tests for AIG normal form and ISOP refactoring."""

import pytest

from repro.circuits import ripple_carry_adder
from repro.network import (
    Gate,
    LogicNetwork,
    check_equivalence,
    depth,
    exhaustive_equivalence,
)
from repro.network.transforms import refactor, to_aig_form
from tests.test_flow_fuzz import random_network


class TestAigForm:
    def test_only_and2_and_not(self):
        net = ripple_carry_adder(4)
        aig = to_aig_form(net)
        for node in aig.nodes():
            g = aig.gates[node]
            if aig.is_logic(node):
                assert g in (Gate.AND, Gate.NOT), g
                if g is Gate.AND:
                    assert len(aig.fanins[node]) == 2

    def test_equivalent(self):
        net = ripple_carry_adder(5)
        assert check_equivalence(net, to_aig_form(net)).equivalent

    @pytest.mark.parametrize("seed", range(6))
    def test_random_equivalent(self, seed):
        net = random_network(seed, num_gates=30)
        aig = to_aig_form(net)
        assert check_equivalence(net, aig, complete=True).equivalent

    def test_t1_blocks_preserved(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        cell = net.add_t1_cell(a, b, c)
        net.add_po(net.add_t1_tap(cell, Gate.T1_S))
        aig = to_aig_form(net)
        assert len(aig.t1_cells()) == 1

    def test_gate_count_grows(self):
        # MAJ3/XOR3 cost several AND2s: AIG form is bigger, like the
        # benchmark suites the paper consumes
        net = ripple_carry_adder(8)
        aig = to_aig_form(net)
        assert aig.num_gates() > net.num_gates()


class TestRefactor:
    def test_redundant_logic_shrinks(self):
        # f = (a & b) | (a & !b) == a : refactoring must find it
        net = LogicNetwork()
        a, b = net.add_pi(), net.add_pi()
        t1 = net.add_and(a, b)
        t2 = net.add_and(a, net.add_not(b))
        net.add_po(net.add_or(t1, t2), "y")
        out, accepted = refactor(net)
        assert accepted >= 1
        assert out.num_gates() < net.num_gates()
        assert exhaustive_equivalence(net, out).equivalent

    def test_mux_structure_preserved_function(self):
        net = LogicNetwork()
        s, d0, d1 = (net.add_pi() for _ in range(3))
        net.add_po(net.add_mux(s, d0, d1))
        out, _ = refactor(net)
        assert exhaustive_equivalence(net, out).equivalent

    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks_equivalent(self, seed):
        net = random_network(seed, num_gates=35)
        out, _ = refactor(net)
        assert check_equivalence(net, out, complete=True).equivalent, seed

    @pytest.mark.parametrize("seed", range(4))
    def test_aig_then_refactor_equivalent(self, seed):
        net = random_network(40 + seed, num_gates=30)
        aig = to_aig_form(net)
        out, _ = refactor(aig)
        assert check_equivalence(net, out, complete=True).equivalent, seed

    def test_never_grows(self):
        for seed in range(4):
            net = random_network(80 + seed, num_gates=30)
            out, _ = refactor(net)
            assert out.num_gates() <= net.num_gates(), seed

    def test_adder_through_aig_pipeline_flow(self):
        """The A5 scenario: generator -> AIG -> refactor -> T1 flow."""
        from repro.pipeline import Pipeline

        net = ripple_carry_adder(6)
        aig = to_aig_form(net)
        opt, _ = refactor(aig)
        res = Pipeline.standard(
            n_phases=4, use_t1=True, verify="none"
        ).run(opt)
        assert res.t1_used > 0
        assert check_equivalence(net, res.network).equivalent

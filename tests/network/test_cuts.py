"""Tests for k-feasible cut enumeration."""

import pytest

from repro.network import (
    Gate,
    LogicNetwork,
    TruthTable,
    enumerate_cuts,
    maj3_tt,
    xor3_tt,
)
from oracles.simulation import node_function_on_leaves


def full_adder_net():
    net = LogicNetwork()
    a, b, c = (net.add_pi() for _ in range(3))
    # sum = (a ^ b) ^ c, carry = ab | c(a ^ b)
    ab = net.add_xor(a, b)
    s = net.add_xor(ab, c)
    t1 = net.add_and(a, b)
    t2 = net.add_and(ab, c)
    carry = net.add_or(t1, t2)
    net.add_po(s)
    net.add_po(carry)
    return net, (a, b, c, ab, s, t1, t2, carry)


class TestBasics:
    def test_pi_trivial_cut(self):
        net = LogicNetwork()
        a = net.add_pi()
        net.add_po(a)
        db = enumerate_cuts(net, k=3)
        assert [c.leaves for c in db[a]] == [(a,)]

    def test_leaves_sorted_and_bounded(self):
        net, _ = full_adder_net()
        db = enumerate_cuts(net, k=3)
        for node in net.nodes():
            for cut in db[node]:
                assert list(cut.leaves) == sorted(cut.leaves)
                assert len(cut.leaves) <= 3

    def test_cut_tables_match_cone_simulation(self):
        net, _ = full_adder_net()
        db = enumerate_cuts(net, k=3)
        for node in net.nodes():
            if not net.is_logic(node):
                continue
            for cut in db[node]:
                if not cut.leaves or cut.leaves == (node,):
                    continue
                expect = node_function_on_leaves(net, node, cut.leaves)
                assert cut.table == expect, (node, cut.leaves)

    def test_full_adder_finds_xor3_and_maj3(self):
        net, (a, b, c, ab, s, t1, t2, carry) = full_adder_net()
        db = enumerate_cuts(net, k=3)
        leaves = (a, b, c)
        s_cut = next((c for c in db[s] if c.leaves == leaves), None)
        carry_cut = next((c for c in db[carry] if c.leaves == leaves), None)
        assert s_cut is not None and s_cut.table == xor3_tt()
        assert carry_cut is not None and carry_cut.table == maj3_tt()

    def test_irredundant(self):
        net, _ = full_adder_net()
        db = enumerate_cuts(net, k=3)
        for node in net.nodes():
            cuts = db[node]
            for i, c1 in enumerate(cuts):
                for j, c2 in enumerate(cuts):
                    if i != j:
                        assert not (set(c1.leaves) < set(c2.leaves)), (
                            node,
                            c1.leaves,
                            c2.leaves,
                        )

    def test_priority_limit_respected(self):
        net = LogicNetwork()
        pis = [net.add_pi() for _ in range(6)]
        x = net.add_and(pis[0], pis[1])
        y = net.add_and(pis[2], pis[3])
        z = net.add_and(pis[4], pis[5])
        w = net.add_and(x, y)
        v = net.add_and(w, z)
        net.add_po(v)
        db = enumerate_cuts(net, k=4, cuts_per_node=2)
        for node in net.nodes():
            assert len(db[node]) <= 3  # limit + trivial

    def test_t1_cell_gets_trivial_cut_only(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        cell = net.add_t1_cell(a, b, c)
        s = net.add_t1_tap(cell, Gate.T1_S)
        g = net.add_and(s, a)
        net.add_po(g)
        db = enumerate_cuts(net, k=3)
        assert [c.leaves for c in db[cell]] == [(cell,)]
        assert [c.leaves for c in db[s]] == [(s,)]

    def test_constant_fanin_cut(self):
        net = LogicNetwork()
        a = net.add_pi()
        g = net.add_and(a, 1)  # AND with const1
        net.add_po(g)
        db = enumerate_cuts(net, k=3)
        # some cut over leaf {a} must express identity
        cut = next((c for c in db[g] if c.leaves == (a,)), None)
        assert cut is not None
        assert cut.table == TruthTable.var(0, 1)

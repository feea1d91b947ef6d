"""Tests for bit-parallel simulation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.network import (
    Gate,
    LogicNetwork,
    TruthTable,
    eval_int,
    simulate_exhaustive,
    simulate_pos,
    simulate_words,
    maj3_tt,
    or3_tt,
    xor3_tt,
)
from oracles.simulation import node_function_on_leaves


def full_adder_net():
    net = LogicNetwork("fa")
    a, b, c = net.add_pi("a"), net.add_pi("b"), net.add_pi("c")
    s = net.add_xor(a, b, c)
    carry = net.add_maj3(a, b, c)
    net.add_po(s, "sum")
    net.add_po(carry, "carry")
    return net


class TestExhaustive:
    def test_full_adder_tables(self):
        tts = simulate_exhaustive(full_adder_net())
        assert tts[0] == xor3_tt()
        assert tts[1] == maj3_tt()

    def test_constants(self):
        net = LogicNetwork()
        net.add_pi()
        net.add_po(1)
        net.add_po(0)
        tts = simulate_exhaustive(net)
        assert tts[0] == TruthTable.const(True, 1)
        assert tts[1] == TruthTable.const(False, 1)

    def test_not_gate(self):
        net = LogicNetwork()
        a = net.add_pi()
        net.add_po(net.add_not(a))
        tts = simulate_exhaustive(net)
        assert tts[0] == ~TruthTable.var(0, 1)

    def test_nary_gates(self):
        net = LogicNetwork()
        pis = [net.add_pi() for _ in range(4)]
        net.add_po(net.add_and(*pis))
        net.add_po(net.add_or(*pis))
        net.add_po(net.add_xor(*pis))
        tts = simulate_exhaustive(net)
        a, b, c, d = (TruthTable.var(i, 4) for i in range(4))
        assert tts[0] == a & b & c & d
        assert tts[1] == a | b | c | d
        assert tts[2] == a ^ b ^ c ^ d

    def test_inverted_gates(self):
        net = LogicNetwork()
        a, b = net.add_pi(), net.add_pi()
        net.add_po(net.add_nand(a, b))
        net.add_po(net.add_nor(a, b))
        net.add_po(net.add_xnor(a, b))
        tts = simulate_exhaustive(net)
        x, y = TruthTable.var(0, 2), TruthTable.var(1, 2)
        assert tts[0] == ~(x & y)
        assert tts[1] == ~(x | y)
        assert tts[2] == ~(x ^ y)


class TestT1Simulation:
    def test_t1_taps_evaluate_cell_functions(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        cell = net.add_t1_cell(a, b, c)
        for tap, expect in [
            (Gate.T1_S, xor3_tt()),
            (Gate.T1_C, maj3_tt()),
            (Gate.T1_Q, or3_tt()),
            (Gate.T1_CN, ~maj3_tt()),
            (Gate.T1_QN, ~or3_tt()),
        ]:
            net.add_po(net.add_t1_tap(cell, tap))
        tts = simulate_exhaustive(net)
        assert tts[0] == xor3_tt()
        assert tts[1] == maj3_tt()
        assert tts[2] == or3_tt()
        assert tts[3] == ~maj3_tt()
        assert tts[4] == ~or3_tt()


class TestWordSimulation:
    def test_simulate_words_rows(self):
        net = full_adder_net()
        rows = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        out = simulate_words(net, rows)
        for (a, b, c), (s, cy) in zip(rows, out):
            assert s == (a + b + c) % 2
            assert cy == (1 if a + b + c >= 2 else 0)

    def test_eval_int_dict(self):
        net = full_adder_net()
        a, b, c = net.pis
        res = eval_int(net, {a: 1, b: 1, c: 0})
        values = list(res.values())
        assert values == [0, 1]

    def test_wrong_width_raises(self):
        net = full_adder_net()
        with pytest.raises(SimulationError):
            simulate_pos(net, [1, 2], 4)


class TestNodeFunctionOnLeaves:
    def test_direct_cone(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        t1 = net.add_xor(a, b)
        t2 = net.add_xor(t1, c)
        tt = node_function_on_leaves(net, t2, (a, b, c))
        assert tt == xor3_tt()

    def test_intermediate_leaf(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        t1 = net.add_and(a, b)
        t2 = net.add_or(t1, c)
        tt = node_function_on_leaves(net, t2, (t1, c))
        x, y = TruthTable.var(0, 2), TruthTable.var(1, 2)
        assert tt == (x | y)

    def test_escaping_cone_raises(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        t1 = net.add_and(a, b)
        t2 = net.add_or(t1, c)
        with pytest.raises(SimulationError):
            node_function_on_leaves(net, t2, (t1,))  # c escapes

    def test_deep_chain_no_recursion_error(self):
        net = LogicNetwork()
        a = net.add_pi()
        cur = a
        for _ in range(5000):
            cur = net.add_not(cur)
        tt = node_function_on_leaves(net, cur, (a,))
        assert tt == TruthTable.var(0, 1)  # even number of inversions


@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=16))
def test_full_adder_random_rows(rows):
    net = full_adder_net()
    int_rows = [tuple(int(x) for x in r) for r in rows]
    out = simulate_words(net, int_rows)
    for (a, b, c), (s, cy) in zip(int_rows, out):
        total = a + b + c
        assert s == total % 2
        assert cy == (total >= 2)

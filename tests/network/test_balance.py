"""Tests for the associative tree-balancing pass."""

import random

import pytest

from repro.network import (
    Gate,
    LogicNetwork,
    check_equivalence,
    depth,
    exhaustive_equivalence,
)
from repro.network.balance import balance


def chain_network(gate, width):
    net = LogicNetwork("chain")
    pis = [net.add_pi(f"x{i}") for i in range(width)]
    acc = pis[0]
    for p in pis[1:]:
        acc = net.add_gate(gate, (acc, p))
    net.add_po(acc, "y")
    return net


@pytest.mark.parametrize("gate", [Gate.AND, Gate.OR, Gate.XOR])
def test_chain_becomes_logarithmic(gate):
    net = chain_network(gate, 12)
    assert depth(net) == 11
    out, _ = balance(net)
    assert depth(out) <= 3  # ternary tree over 12 leaves
    assert exhaustive_equivalence(net, out).equivalent


def test_mixed_gates_not_merged():
    net = LogicNetwork()
    a, b, c = (net.add_pi() for _ in range(3))
    t = net.add_and(a, b)
    y = net.add_or(t, c)  # OR over AND: not associative across kinds
    net.add_po(y)
    out, _ = balance(net)
    assert exhaustive_equivalence(net, out).equivalent


def test_multi_fanout_node_not_absorbed():
    net = LogicNetwork()
    pis = [net.add_pi() for _ in range(4)]
    t1 = net.add_and(pis[0], pis[1])
    t2 = net.add_and(t1, pis[2])
    t3 = net.add_and(t2, pis[3])
    net.add_po(t3, "y")
    net.add_po(t2, "tap")  # t2 observed: chain must stop there
    out, _ = balance(net)
    assert exhaustive_equivalence(net, out).equivalent


def test_uneven_leaf_levels_respected():
    # deep leaf should merge last (Huffman): the balanced tree depth is
    # deep-leaf level + 1
    net = LogicNetwork()
    pis = [net.add_pi() for _ in range(6)]
    deep = net.add_not(net.add_not(net.add_not(pis[0])))
    acc = deep
    for p in pis[1:]:
        acc = net.add_xor(acc, p)
    net.add_po(acc)
    out, _ = balance(net)
    assert depth(out) <= 5
    assert exhaustive_equivalence(net, out).equivalent


def test_depth_never_increases_random():
    from tests.test_flow_fuzz import random_network

    for seed in range(8):
        net = random_network(seed, num_gates=30)
        out, _ = balance(net)
        assert depth(out) <= depth(net), seed
        assert check_equivalence(net, out, complete=True).equivalent, seed


def test_balance_then_flow():
    """Balancing before the flow lowers DFF cost on chain-shaped logic."""
    from repro.pipeline import Pipeline

    net = chain_network(Gate.XOR, 24)
    plain = Pipeline.standard(n_phases=4, use_t1=False, verify="none").run(net)
    balanced, _ = balance(net)
    opt = Pipeline.standard(
        n_phases=4, use_t1=False, verify="none"
    ).run(balanced)
    assert opt.depth_cycles < plain.depth_cycles
    assert opt.area_jj <= plain.area_jj


def test_t1_blocks_untouched():
    net = LogicNetwork()
    a, b, c = (net.add_pi() for _ in range(3))
    cell = net.add_t1_cell(a, b, c)
    s = net.add_t1_tap(cell, Gate.T1_S)
    chain = s
    for p in (a, b, c):
        chain = net.add_or(chain, p)
    net.add_po(chain)
    out, _ = balance(net)
    assert len(out.t1_cells()) == 1
    assert exhaustive_equivalence(net, out).equivalent

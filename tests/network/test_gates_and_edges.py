"""Gate-semantics cross-checks and structural edge cases."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CycleError, GateArityError, NetworkError
from repro.network import (
    CONST0,
    CONST1,
    Gate,
    LogicNetwork,
    TruthTable,
    check_equivalence,
    eval_gate,
    simulate_exhaustive,
    strash,
    topological_order,
)
from repro.network.gates import GATE_SYMBOLS, MAX_VARIADIC_ARITY, check_arity


PY_SEMANTICS = {
    Gate.AND: lambda vals: all(vals),
    Gate.NAND: lambda vals: not all(vals),
    Gate.OR: lambda vals: any(vals),
    Gate.NOR: lambda vals: not any(vals),
    Gate.XOR: lambda vals: sum(vals) % 2 == 1,
    Gate.XNOR: lambda vals: sum(vals) % 2 == 0,
}


class TestEvalGate:
    @pytest.mark.parametrize("gate", list(PY_SEMANTICS))
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_variadic_semantics(self, gate, arity):
        fn = PY_SEMANTICS[gate]
        for bits in itertools.product((0, 1), repeat=arity):
            got = eval_gate(gate, list(bits), 1)
            assert got == int(fn(bits)), (gate, bits)

    def test_bitparallel_consistency(self):
        # evaluating 8 rows at once == evaluating row by row
        for gate in PY_SEMANTICS:
            a, b, c = 0b10101100, 0b11001010, 0b11110000
            word = eval_gate(gate, [a, b, c], 0xFF)
            for row in range(8):
                bits = [(a >> row) & 1, (b >> row) & 1, (c >> row) & 1]
                assert (word >> row) & 1 == eval_gate(gate, bits, 1)

    def test_t1_cell_has_no_direct_eval(self):
        with pytest.raises(GateArityError):
            eval_gate(Gate.T1_CELL, [0, 1, 0], 1)

    def test_arity_table_complete(self):
        for gate in Gate:
            # every gate must have an arity rule and a symbol
            assert gate in GATE_SYMBOLS
            if gate in (Gate.AND, Gate.OR, Gate.XOR, Gate.NAND, Gate.NOR,
                        Gate.XNOR):
                check_arity(gate, 2)
                check_arity(gate, MAX_VARIADIC_ARITY)
                with pytest.raises(GateArityError):
                    check_arity(gate, 1)
                with pytest.raises(GateArityError):
                    check_arity(gate, MAX_VARIADIC_ARITY + 1)


class TestCycleDetection:
    def test_cycle_raises(self):
        net = LogicNetwork()
        a = net.add_pi()
        g1 = net.add_and(a, a)
        g2 = net.add_or(g1, a)
        # manually create a combinational loop
        net.fanins[g1] = (g2, a)
        with pytest.raises(CycleError):
            topological_order(net)

    def test_self_loop_raises(self):
        net = LogicNetwork()
        a = net.add_pi()
        g = net.add_and(a, a)
        net.fanins[g] = (g, a)
        with pytest.raises(CycleError):
            topological_order(net)


class TestStrashProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_strash_equivalence_random(self, seed):
        from tests.test_flow_fuzz import random_network

        net = random_network(seed, num_gates=40)
        hashed, _ = strash(net)
        assert check_equivalence(net, hashed, complete=True).equivalent
        assert hashed.num_gates() <= net.num_gates()

    def test_strash_idempotent_random(self):
        from tests.test_flow_fuzz import random_network

        for seed in range(5):
            net = random_network(seed + 500, num_gates=30)
            h1, _ = strash(net)
            h2, _ = strash(h1)
            assert h1.num_nodes() == h2.num_nodes(), seed


class TestWiderCuts:
    def test_k4_cut_tables(self):
        from oracles.simulation import node_function_on_leaves
        from repro.network import enumerate_cuts

        net = LogicNetwork()
        pis = [net.add_pi() for _ in range(4)]
        g1 = net.add_and(pis[0], pis[1])
        g2 = net.add_or(pis[2], pis[3])
        g3 = net.add_xor(g1, g2)
        net.add_po(g3)
        db = enumerate_cuts(net, k=4)
        cut = next((c for c in db[g3] if c.leaves == tuple(sorted(pis))), None)
        assert cut is not None
        assert cut.table == node_function_on_leaves(net, g3, cut.leaves)

    def test_k5_feasible(self):
        from repro.network import enumerate_cuts

        net = LogicNetwork()
        pis = [net.add_pi() for _ in range(5)]
        acc = pis[0]
        for p in pis[1:]:
            acc = net.add_xor(acc, p)
        net.add_po(acc)
        db = enumerate_cuts(net, k=5, cuts_per_node=16)
        cut = next((c for c in db[acc] if c.leaves == tuple(sorted(pis))), None)
        assert cut is not None
        assert cut.table.count_ones() == 16  # parity of 5 vars


class TestNpn4:
    def test_four_var_canonisation(self):
        from repro.network import npn_canon, npn_equivalent

        f = TruthTable.from_function(
            lambda a, b, c, d: (a and b) or (c and d), 4
        )
        g = f.permute((2, 3, 0, 1))  # swap the pairs
        assert npn_equivalent(f, g)
        canon, tf = npn_canon(f)
        assert tf.apply(f) == canon

    @given(bits=st.integers(0, 2**16 - 1))
    @settings(max_examples=20, deadline=None)
    def test_four_var_invariance(self, bits):
        from repro.network import npn_canon
        from repro.network.npn import _all_transforms

        tt = TruthTable(bits, 4)
        canon, _ = npn_canon(tt)
        tf = list(_all_transforms(4))[137]
        canon2, _ = npn_canon(tf.apply(tt))
        assert canon2 == canon

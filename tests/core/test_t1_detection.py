"""Tests for T1 detection, gain computation and substitution (§II-A)."""

import pytest

from repro.circuits import ripple_carry_adder
from repro.network import (
    Gate,
    LogicNetwork,
    check_equivalence,
    exhaustive_equivalence,
)
from repro.network.cleanup import strash
from repro.core.t1_detection import (
    detect_and_replace,
    find_candidates,
    node_area,
    select_candidates,
)
from repro.sfq.cell_library import default_library


def full_adder_net():
    """XOR3 + MAJ3 over shared leaves — the canonical T1 target."""
    net = LogicNetwork("fa")
    a, b, c = (net.add_pi(x) for x in "abc")
    net.add_po(net.add_xor(a, b, c), "s")
    net.add_po(net.add_maj3(a, b, c), "co")
    return net


class TestFindCandidates:
    def test_full_adder_found(self):
        net = full_adder_net()
        cands = find_candidates(net)
        assert len(cands) == 1
        cand = cands[0]
        assert set(cand.leaves) == set(net.pis)
        ports = {m.port for _n, m in cand.matches}
        assert ports == {"S", "C"}

    def test_gain_is_mffc_minus_t1(self):
        net = full_adder_net()
        lib = default_library()
        cand = find_candidates(net)[0]
        saved = lib.gate_area(Gate.XOR, 3) + lib.gate_area(Gate.MAJ3, 3)
        assert cand.gain == saved - lib.t1.jj_count

    def test_single_function_not_enough(self):
        # only XOR3: the paper requires 2..5 matched outputs
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        net.add_po(net.add_xor(a, b, c))
        assert find_candidates(net) == []

    def test_negative_gain_rejected(self):
        # two tiny functions whose cones are cheaper than a T1 cell
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        net.add_po(net.add_or(a, b, c))      # OR3: 18 JJ
        net.add_po(net.add_nor(a, b, c))     # needs decomposition anyway
        # OR3 (18) + NOR3->not available as single cell; use explicit pair
        cands = find_candidates(net)
        for cand in cands:
            assert cand.gain > 0

    def test_decomposed_full_adder_found_via_cuts(self):
        # FA from 2-input gates: cut enumeration must recover XOR3/MAJ3
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        ab = net.add_xor(a, b)
        net.add_po(net.add_xor(ab, c), "s")
        t1_ = net.add_and(a, b)
        t2 = net.add_and(ab, c)
        net.add_po(net.add_or(t1_, t2), "co")
        cands = find_candidates(net)
        assert len(cands) >= 1
        best = cands[0]
        assert set(best.leaves) == {a, b, c}
        # the whole 5-gate cone is replaced:
        # 2 XOR2 (22) + 2 AND2 (20) + OR2 (12) - T1 (29) = 25
        lib = default_library()
        assert len(best.cone) == 5
        assert best.gain == 22 + 20 + 12 - lib.t1.jj_count

    def test_inverted_full_adder_found_with_polarity(self):
        # !MAJ3 and XOR3 share the cell (C* + inverter path)
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        net.add_po(net.add_xor(a, b, c))
        maj = net.add_maj3(a, b, c)
        net.add_po(net.add_not(maj))
        res = detect_and_replace(net)
        assert res.used == 1
        assert exhaustive_equivalence(net, res.network).equivalent


class TestSelection:
    def test_overlapping_candidates_resolved(self):
        # two FAs sharing the same carry chain node: both applicable,
        # selection must not double-claim the shared cone
        net = ripple_carry_adder(4)
        cands = find_candidates(net)
        selected = select_candidates(cands)
        claimed = set()
        for cand in selected:
            assert not (cand.cone & claimed)
            claimed |= cand.cone

    def test_greedy_prefers_gain(self):
        net = ripple_carry_adder(4)
        cands = find_candidates(net)
        gains = [c.gain for c in cands]
        assert gains == sorted(gains, reverse=True)


class TestDetectAndReplace:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_adder_chain_replaced(self, bits):
        net = ripple_carry_adder(bits)
        res = detect_and_replace(net)
        # bits-1 full adders (bit 0 is a half adder)
        assert res.used == bits - 1
        assert res.found == bits - 1
        assert len(res.network.t1_cells()) == bits - 1
        assert check_equivalence(net, res.network).equivalent

    def test_node_count_shrinks(self):
        net = ripple_carry_adder(8)
        res = detect_and_replace(net)
        assert res.network.num_gates() < net.num_gates()

    def test_t1_fanins_are_live_non_cell_nodes(self):
        net = ripple_carry_adder(4)
        res = detect_and_replace(net)
        from repro.network.traversal import live_nodes

        live = live_nodes(res.network)
        for cell in res.network.t1_cells():
            for f in res.network.fanin(cell):
                # a T1 cell is fed by signals, never by another raw cell
                assert res.network.gate(f) is not Gate.T1_CELL
                assert f in live

    def test_idempotent_second_pass(self):
        net = ripple_carry_adder(6)
        first = detect_and_replace(net)
        second = detect_and_replace(first.network)
        assert second.used == 0
        assert exhaustive_equivalence(net, second.network).equivalent

    def test_node_area_helper(self):
        lib = default_library()
        net = LogicNetwork()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_and(a, b)
        buf = net.add_buf(g)
        assert node_area(net, a, lib) == 0
        assert node_area(net, g, lib) == lib.gate_area(Gate.AND, 2)
        assert node_area(net, buf, lib) == 0

    def test_popcount_tree_replaced_and_equivalent(self):
        from repro.circuits import majority_voter

        net = majority_voter(15)
        res = detect_and_replace(strash(net)[0])
        assert res.used >= 4
        assert check_equivalence(net, res.network).equivalent


class TestFindCandidatesDifferential:
    """The kernel candidate search vs the retained seed reference."""

    def snapshot(self, cands):
        return [
            (c.leaves, c.polarity, c.gain, c.matches, sorted(c.cone))
            for c in cands
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_xor_maj_networks(self, seed):
        import random

        from oracles.t1_detection import find_candidates_reference

        rng = random.Random(seed)
        net = LogicNetwork("rand")
        pis = [net.add_pi(f"x{i}") for i in range(6)]
        pool = list(pis)
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            kind = rng.randrange(4)
            if kind == 0:
                node = net.add_xor(a, b, c)
            elif kind == 1:
                node = net.add_maj3(a, b, c)
            elif kind == 2:
                node = net.add_or(a, b, c)
            else:
                node = net.add_and(a, rng.choice(pool))
            pool.append(node)
        for i in range(4):
            net.add_po(rng.choice(pool[len(pis):]), f"y{i}")

        kernel = find_candidates(net)
        reference = find_candidates_reference(net)
        assert self.snapshot(kernel) == self.snapshot(reference)

    def test_adder_matches_reference(self):
        from oracles.t1_detection import find_candidates_reference

        net = strash(ripple_carry_adder(6))[0]
        kernel = find_candidates(net)
        reference = find_candidates_reference(net)
        assert self.snapshot(kernel) == self.snapshot(reference)

    def test_detection_shares_epoch_cached_cuts(self):
        from repro.network.cuts import cached_cut_database

        net = strash(ripple_carry_adder(4))[0]
        first = find_candidates(net)
        db = cached_cut_database(net)
        # unmutated network: the second search reuses the same database
        assert cached_cut_database(net) is db
        second = find_candidates(net)
        assert self.snapshot(first) == self.snapshot(second)

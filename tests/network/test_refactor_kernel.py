"""Differential + unit tests for the topological rewrite kernel.

The kernel contract: ``refactor`` is bit-identical to the seed sweep
``refactor_reference`` — same accepted count, same strashed result — on
any input, and iterating it equals iterating the reference.
"""

import random

import pytest

from oracles.transforms import refactor_reference
from repro.network import (
    LogicNetwork,
    TruthTable,
    check_equivalence,
    exhaustive_equivalence,
    isop,
    refactor,
    sop_gate_count,
    synthesize_sop,
    to_aig_form,
)
from repro.network.isop import cached_sop, clear_sop_cache, sop_cache_info
from tests.test_flow_fuzz import random_network


def fingerprint(net):
    """Exact structural identity (ids, gates, fanins, interface)."""
    return (
        tuple(net.gates),
        tuple(tuple(f) for f in net.fanins),
        tuple(net.pis),
        tuple(net.pos),
    )


def nested_redundancy_net():
    """x = (a&b)|(a&~b) == a, then y rebuilt the same way on top of x.

    Refactoring x claims its MFFC, which overlaps every candidate cut of
    y — the deterministic claimed-set invalidation scenario.
    """
    net = LogicNetwork("nested")
    a, b, c = (net.add_pi(s) for s in "abc")
    x = net.add_or(net.add_and(a, b), net.add_and(a, net.add_not(b)))
    y = net.add_or(net.add_and(x, c), net.add_and(x, net.add_not(c)))
    net.add_po(y, "y")
    return net


class TestDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_topo_priority_bit_identical_to_reference(self, seed):
        net = random_network(seed, num_gates=45)
        out_k, n_k = refactor(net)
        out_r, n_r = refactor_reference(net)
        assert n_k == n_r
        assert fingerprint(out_k) == fingerprint(out_r)
        assert check_equivalence(net, out_k, complete=True).equivalent

    @pytest.mark.parametrize("seed", range(4))
    def test_aig_inputs_bit_identical(self, seed):
        aig = to_aig_form(random_network(20 + seed, num_gates=30))
        out_k, n_k = refactor(aig)
        out_r, n_r = refactor_reference(aig)
        assert n_k == n_r
        assert fingerprint(out_k) == fingerprint(out_r)

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_pass_equals_iterated_reference(self, seed):
        """Three successive kernel calls == three successive reference runs."""
        net = random_network(50 + seed, num_gates=45)
        out_k, n_k = net, 0
        out_r, n_r = net, 0
        for _ in range(3):
            out_k, accepted = refactor(out_k)
            n_k += accepted
            out_r, accepted = refactor_reference(out_r)
            n_r += accepted
        assert n_k == n_r
        assert fingerprint(out_k) == fingerprint(out_r)


class TestHeapInvalidation:
    def test_acceptance_blocks_queued_candidate(self):
        """x's acceptance claims nodes that invalidate y's scored cuts."""
        net = nested_redundancy_net()
        stats = {}
        out, accepted = refactor(net, stats=stats)
        _ref, ref_accepted = refactor_reference(net)
        assert accepted == ref_accepted == 1
        # y was scored with positive gain, but by the time the sweep
        # reaches it every one of its candidates hits the claimed set
        # (leaf or cone overlap), so it is dropped instead of applied
        assert stats["scored_nodes"] >= 2
        assert stats["dropped_blocked"] >= 1
        assert exhaustive_equivalence(net, out).equivalent

    def test_stats_accumulate_across_passes(self):
        net = random_network(7, num_gates=40)
        stats = {}
        cur, total = net, 0
        for _ in range(3):
            cur, accepted = refactor(cur, stats=stats)
            total += accepted
        assert set(stats) == {"accepted", "scored_nodes", "dropped_blocked"}
        assert stats["accepted"] == total > 0
        assert stats["scored_nodes"] >= total


class TestMemoisedResynthesis:
    def test_cached_sop_matches_isop(self):
        rng = random.Random(0)
        clear_sop_cache()
        for _ in range(50):
            nv = rng.randint(1, 4)
            tt = TruthTable(rng.getrandbits(1 << nv), nv)
            cubes, cost = cached_sop(tt)
            assert list(cubes) == isop(tt)
            assert cost == sop_gate_count(cubes)
        before = sop_cache_info().hits
        cached_sop(TruthTable(0b0110, 2))
        cached_sop(TruthTable(0b0110, 2))
        assert sop_cache_info().hits > before

    def test_sop_gate_count_equals_synthesized_gate_count(self):
        """The cost proxy is exact for the network synthesize_sop builds."""
        rng = random.Random(1)
        for _ in range(40):
            nv = rng.randint(1, 4)
            tt = TruthTable(rng.getrandbits(1 << nv), nv)
            cubes = isop(tt)
            net = LogicNetwork("sop")
            pis = [net.add_pi() for _ in range(nv)]
            before = net.num_nodes()
            synthesize_sop(net, pis, cubes)
            assert net.num_nodes() - before == sop_gate_count(cubes), tt

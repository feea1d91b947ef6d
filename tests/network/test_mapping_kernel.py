"""Randomized differential tests for the mapping-layer performance kernel.

Covers the three kernel pieces introduced by the mapping refactor:

* the precomputed NPN tables vs the retained enumerating oracle
  (complete k=3 space, sampled k=4, transform algebra laws);
* the allocation-light cut enumeration vs the seed per-candidate
  reference;
* the epoch-cached cut database: reuse on an unmutated network,
  invalidation by ``replace_fanin`` / ``substitute`` / ``compact`` /
  ``add_gate``.
"""

import random

import pytest

from oracles.cuts import enumerate_cuts_reference
from oracles.npn import match_against_enum, npn_canon_enum
from repro.errors import TruthTableError
from repro.network import (
    Gate,
    LogicNetwork,
    TruthTable,
    cached_cut_database,
    enumerate_cuts,
    match_against,
    npn_canon,
    npn_class_members,
)
from repro.network.npn import NpnTransform, _all_transforms

GATE_POOL = [
    (Gate.NOT, 1),
    (Gate.AND, 2),
    (Gate.OR, 2),
    (Gate.XOR, 2),
    (Gate.NAND, 2),
    (Gate.NOR, 2),
    (Gate.XNOR, 2),
    (Gate.AND, 3),
    (Gate.OR, 3),
    (Gate.XOR, 3),
    (Gate.MAJ3, 3),
]


def random_dag(rng, n_pis=5, n_gates=60, n_pos=4):
    net = LogicNetwork("rand")
    for i in range(n_pis):
        net.add_pi(f"x{i}")
    for _ in range(n_gates):
        gate, arity = rng.choice(GATE_POOL)
        fins = [rng.randrange(2, net.num_nodes()) for _ in range(arity)]
        net.add_gate(gate, fins)
    gates = [n for n in net.nodes() if net.is_logic(n)]
    for i in range(n_pos):
        net.add_po(rng.choice(gates), f"y{i}")
    return net


def cuts_snapshot(db, n):
    return [
        [(c.leaves, c.table.bits, c.table.num_vars, c.signature) for c in db[node]]
        for node in range(n)
    ]


class TestNpnTables:
    def test_complete_k3_space_matches_oracle(self):
        for bits in range(256):
            tt = TruthTable(bits, 3)
            canon, tf = npn_canon(tt)
            canon_e, tf_e = npn_canon_enum(tt)
            assert canon == canon_e
            assert tf == tf_e  # same producing transform, not just class
            assert tf.apply(tt) == canon

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_small_arities_match_oracle(self, k):
        for bits in range(1 << (1 << k)):
            tt = TruthTable(bits, k)
            assert npn_canon(tt) == npn_canon_enum(tt)

    def test_sampled_k4_matches_oracle(self):
        rng = random.Random(42)
        for _ in range(25):
            tt = TruthTable(rng.getrandbits(16), 4)
            canon, tf = npn_canon(tt)
            canon_e, tf_e = npn_canon_enum(tt)
            assert (canon, tf) == (canon_e, tf_e)

    def test_rejects_large_tables(self):
        with pytest.raises(TruthTableError):
            npn_canon(TruthTable(0, 5))

    def test_transform_compose_and_inverse_laws(self):
        rng = random.Random(7)
        tfs = _all_transforms(3)
        for _ in range(200):
            f = TruthTable(rng.getrandbits(8), 3)
            t1 = tfs[rng.randrange(len(tfs))]
            t2 = tfs[rng.randrange(len(tfs))]
            assert t2.after(t1).apply(f) == t2.apply(t1.apply(f))
            assert t1.inverse().apply(t1.apply(f)) == f
            assert t1.apply_bits(f.bits, 3) == t1.apply(f).bits

    def test_match_against_agrees_with_oracle_on_existence(self):
        rng = random.Random(11)
        for _ in range(300):
            f = TruthTable(rng.getrandbits(8), 3)
            g = TruthTable(rng.getrandbits(8), 3)
            m = match_against(f, g)
            m_e = match_against_enum(f, g)
            assert (m is None) == (m_e is None)
            if m is not None:
                # the table-driven matcher may return a different (but
                # always valid) witness than the first-enumerated one
                assert m.apply(g) == f

    def test_class_members_inverse_map(self):
        from repro.network import maj3_tt, xor3_tt

        assert npn_class_members(xor3_tt()) == frozenset({0x96, 0x69})
        members = npn_class_members(maj3_tt())
        assert len(members) == 8
        canon = npn_canon(maj3_tt())[0]
        for bits in members:
            assert npn_canon(TruthTable(bits, 3))[0] == canon

    def test_t1_npn_classes_cover_match_table(self):
        from repro.core.t1_matching import t1_match_table, t1_npn_classes

        class_union = frozenset().union(
            *(members for _canon, members in t1_npn_classes().values())
        )
        for bits in t1_match_table():
            assert bits in class_union


class TestCutKernelDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags_match_reference(self, seed):
        rng = random.Random(seed)
        net = random_dag(rng)
        for k, cpn in ((3, 8), (3, 2), (4, 8)):
            db = enumerate_cuts(net, k=k, cuts_per_node=cpn)
            ref = enumerate_cuts_reference(net, k=k, cuts_per_node=cpn)
            assert cuts_snapshot(db, net.num_nodes()) == cuts_snapshot(
                ref, net.num_nodes()
            )

    def test_t1_blocks_match_reference(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi() for _ in range(3))
        cell = net.add_t1_cell(a, b, c)
        s = net.add_t1_tap(cell, Gate.T1_S)
        q = net.add_t1_tap(cell, Gate.T1_Q)
        g = net.add_and(s, q)
        net.add_po(g)
        db = enumerate_cuts(net, k=3)
        ref = enumerate_cuts_reference(net, k=3)
        assert cuts_snapshot(db, net.num_nodes()) == cuts_snapshot(
            ref, net.num_nodes()
        )


class TestCachedCutDatabase:
    def build(self):
        net = LogicNetwork()
        a, b, c, d = (net.add_pi(f"x{i}") for i in range(4))
        g1 = net.add_and(a, b)
        g2 = net.add_or(g1, c)
        g3 = net.add_xor(g2, d)
        net.add_po(g3, "y")
        return net, (a, b, c, d, g1, g2, g3)

    def test_reuse_while_epoch_unchanged(self):
        net, _ = self.build()
        db1 = cached_cut_database(net)
        db2 = cached_cut_database(net)
        assert db1 is db2
        assert db1.epoch == net.epoch
        # different parameters get their own entry
        db3 = cached_cut_database(net, cuts_per_node=2)
        assert db3 is not db1
        assert cached_cut_database(net, cuts_per_node=2) is db3

    def test_invalidated_by_replace_fanin(self):
        net, (a, b, c, d, g1, g2, g3) = self.build()
        db1 = cached_cut_database(net)
        net.replace_fanin(g2, c, d)
        db2 = cached_cut_database(net)
        assert db2 is not db1
        assert db2.epoch == net.epoch
        assert cuts_snapshot(db2, net.num_nodes()) == cuts_snapshot(
            enumerate_cuts_reference(net), net.num_nodes()
        )

    def test_invalidated_by_substitute(self):
        net, (a, b, c, d, g1, g2, g3) = self.build()
        db1 = cached_cut_database(net)
        net.substitute(g1, a)
        db2 = cached_cut_database(net)
        assert db2 is not db1
        assert cuts_snapshot(db2, net.num_nodes()) == cuts_snapshot(
            enumerate_cuts_reference(net), net.num_nodes()
        )

    def test_invalidated_by_compact(self):
        net, (a, b, c, d, g1, g2, g3) = self.build()
        net.substitute(g1, a)  # leaves g1 dead
        db1 = cached_cut_database(net)
        net.compact()
        db2 = cached_cut_database(net)
        assert db2 is not db1
        assert db2.epoch == net.epoch
        assert len(db2.cuts) == net.num_nodes()

    def test_invalidated_by_add_gate(self):
        net, (_a, _b, _c, d, _g1, _g2, g3) = self.build()
        db1 = cached_cut_database(net)
        net.add_not(g3)
        db2 = cached_cut_database(net)
        assert db2 is not db1
        assert len(db2.cuts) == net.num_nodes()

    def test_clone_starts_cold(self):
        net, _ = self.build()
        db1 = cached_cut_database(net)
        clone = net.clone()
        db2 = cached_cut_database(clone)
        assert db2 is not db1
        assert cuts_snapshot(db2, clone.num_nodes()) == cuts_snapshot(
            db1, net.num_nodes()
        )

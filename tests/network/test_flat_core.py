"""Differential tests for the network kernel against the seed oracle.

``oracles.logic_network.ReferenceLogicNetwork`` is the seed tuple-layout
kernel, retained verbatim as an oracle.  These tests
replay randomized mutator sequences (``add_pi`` / ``add_gate`` /
``add_po`` / ``substitute`` / ``replace_fanin`` / ``compact`` /
``clone``) against both kernels in lockstep and require the observable
state — gates, fanins, fanouts, PIs/POs, analyses, ``NodeMap`` events
and the structural hash — to stay bit-identical, plus
``check_invariants`` to hold on the flat side after every mutation
round.  A second battery covers ``add_gates_bulk`` (equivalence to the
per-call loop, batch-relative ids, atomicity) and the gate-grouped
simulation kernel against the per-node loop on both fuzzed networks and
the ``--scale`` synthetic generators.
"""

import random

import pytest

from repro.circuits.synthetic import (
    SYNTHETIC_BENCHMARKS,
    build_synthetic,
    lut_cascade,
    random_datapath,
    synthetic_names,
)
from repro.errors import NetworkError, ReproError
from oracles.logic_network import ReferenceLogicNetwork
from oracles.simulation import simulate_nodewise
from repro.network import Gate, LogicNetwork, simulate
from repro.network.simulation import random_patterns

#: (gate, arity) mutator mix — every family plus variadic shapes
_GATE_MIX = (
    (Gate.AND, 2),
    (Gate.OR, 2),
    (Gate.XOR, 2),
    (Gate.NAND, 2),
    (Gate.NOR, 2),
    (Gate.XNOR, 2),
    (Gate.NOT, 1),
    (Gate.BUF, 1),
    (Gate.MAJ3, 3),
    (Gate.AND, 4),
    (Gate.OR, 3),
    (Gate.XOR, 5),
)


def assert_networks_identical(flat: LogicNetwork, ref: ReferenceLogicNetwork):
    """The full observable surface of both kernels, field by field."""
    assert flat.num_nodes() == ref.num_nodes()
    assert list(flat.gates) == list(ref.gates)
    assert list(flat.fanins) == list(ref.fanins)
    assert flat.pis == ref.pis
    assert flat.pos == ref.pos
    assert flat.po_names == ref.po_names
    for n in range(flat.num_nodes()):
        assert flat.gate(n) is ref.gate(n)
        assert flat.fanin(n) == ref.fanin(n)
        assert flat.fanout(n) == ref.fanout(n)
        assert flat.fanout_count(n) == ref.fanout_count(n)
    assert flat.compute_fanout_counts() == ref.compute_fanout_counts()
    assert flat.topological_order() == ref.topological_order()
    assert flat.levels() == ref.levels()
    assert flat.depth() == ref.depth()
    assert flat.live_nodes() == ref.live_nodes()
    assert flat.structural_hash() == ref.structural_hash()


def _random_fanins(rng, n_nodes, arity):
    return tuple(rng.randrange(n_nodes) for _ in range(arity))


def _seed_pair(hash_cons=False):
    flat = LogicNetwork("fuzz", hash_cons=hash_cons)
    ref = ReferenceLogicNetwork("fuzz", hash_cons=hash_cons)
    return flat, ref


def _fuzz_round(rng, flat, ref, n_ops, allow_t1=True):
    """One mutation round applied to both kernels in lockstep."""
    for _ in range(n_ops):
        op = rng.randrange(10 if allow_t1 else 9)
        n = flat.num_nodes()
        if op == 0 or n < 6:
            assert flat.add_pi() == ref.add_pi()
        elif op <= 5:
            gate, arity = _GATE_MIX[rng.randrange(len(_GATE_MIX))]
            fins = _random_fanins(rng, n, arity)
            assert flat.add_gate(gate, fins) == ref.add_gate(gate, fins)
        elif op == 6:
            node = rng.randrange(2, n)
            if flat.gate(node) is not Gate.T1_CELL:  # cells must be tapped
                assert flat.add_po(node) == ref.add_po(node)
        elif op == 7:
            # new < old keeps every edge pointing at a lower id, so the
            # fuzzed network can never become cyclic
            old = rng.randrange(1, n)
            new = rng.randrange(old)
            assert flat.substitute(old, new) == ref.substitute(old, new)
        elif op == 8:
            node = rng.randrange(2, n)
            fins = flat.fanin(node)
            if fins:
                old = fins[rng.randrange(len(fins))]
                new = rng.randrange(node)
                flat.replace_fanin(node, old, new)
                ref.replace_fanin(node, old, new)
        else:
            t1 = flat.add_t1_cell(*_random_fanins(rng, n, 3))
            t1r = ref.add_t1_cell(*flat.fanin(t1))
            assert t1 == t1r
            for tap in (Gate.T1_S, Gate.T1_C):
                assert flat.add_t1_tap(t1, tap) == ref.add_t1_tap(t1r, tap)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_mutators_match_reference(seed):
    rng = random.Random(f"flat-fuzz:{seed}")
    flat, ref = _seed_pair()
    for _round in range(6):
        _fuzz_round(rng, flat, ref, n_ops=25)
        flat.check_invariants()
        assert_networks_identical(flat, ref)
        if rng.randrange(3) == 0:
            if not flat.pos:  # keep something live before compacting
                sink = flat.num_nodes() - 1
                flat.add_po(sink)
                ref.add_po(sink)
            nm_flat = flat.compact()
            nm_ref = ref.compact()
            assert dict(nm_flat) == dict(nm_ref)
            flat.check_invariants()
            assert_networks_identical(flat, ref)
        if rng.randrange(4) == 0:
            flat = flat.clone()
            ref = ref.clone()
            flat.check_invariants()
            assert_networks_identical(flat, ref)


def test_check_invariants_rejects_non_tuple_fanins():
    net = LogicNetwork()
    a, b = net.add_pi(), net.add_pi()
    g = net.add_and(a, b)
    net.check_invariants()
    net.fanins[g] = [a, b]  # out-of-band edit: same edges, unhashable
    with pytest.raises(NetworkError, match="not a tuple"):
        net.check_invariants()


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_hash_cons_matches_reference(seed):
    rng = random.Random(f"flat-fuzz-hc:{seed}")
    flat, ref = _seed_pair(hash_cons=True)
    for _round in range(4):
        for _ in range(30):
            n = flat.num_nodes()
            if rng.randrange(8) == 0 or n < 6:
                assert flat.add_pi() == ref.add_pi()
            else:
                gate, arity = _GATE_MIX[rng.randrange(len(_GATE_MIX))]
                # a narrow id range forces frequent strashing hits
                fins = tuple(
                    rng.randrange(max(2, n - 6), n) for _ in range(arity)
                )
                assert flat.add_gate(gate, fins) == ref.add_gate(gate, fins)
        flat.check_invariants()
        assert_networks_identical(flat, ref)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_simulation_grouped_matches_nodewise(seed):
    rng = random.Random(f"flat-fuzz-sim:{seed}")
    flat, ref = _seed_pair()
    # substitute/replace_fanin can rewire a tap off its cell, which has
    # no defined simulation semantics — keep T1 ops out of this battery
    _fuzz_round(rng, flat, ref, n_ops=120, allow_t1=False)
    width = 32
    pats = random_patterns(len(flat.pis), width, seed=seed)
    grouped = simulate(flat, pats, width)
    nodewise = simulate_nodewise(flat, pats, width)
    assert grouped == nodewise
    # the schedule builder also runs on the tuple kernel's array snapshots
    assert simulate(ref, pats, width) == nodewise


class TestAddGatesBulk:
    def test_matches_per_call_loop(self):
        rng = random.Random("bulk-vs-loop")
        items = []
        base = 2 + 5
        for j in range(200):
            gate, arity = _GATE_MIX[rng.randrange(len(_GATE_MIX))]
            fins = _random_fanins(rng, base + j, arity)
            items.append((gate, fins))

        bulk = LogicNetwork("bulk")
        for i in range(5):
            bulk.add_pi(f"pi{i}")
        out = bulk.add_gates_bulk(items)
        assert out == list(range(base, base + len(items)))
        bulk.check_invariants()

        loop = LogicNetwork("loop")
        for i in range(5):
            loop.add_pi(f"pi{i}")
        for gate, fins in items:
            loop.add_gate(gate, fins)
        assert list(bulk.gates) == list(loop.gates)
        assert list(bulk.fanins) == list(loop.fanins)
        assert bulk.structural_hash() == loop.structural_hash()

    def test_batch_relative_ids_and_pis(self):
        net = LogicNetwork("rel")
        out = net.add_gates_bulk(
            [
                (Gate.PI, ()),
                (Gate.PI, ()),
                (Gate.AND, (2, 3)),  # batch items 0 and 1
                (Gate.NOT, (4,)),  # batch item 2
                (Gate.OR, [4, 5]),  # list fanins are stored as tuples
            ]
        )
        assert out == [2, 3, 4, 5, 6]
        assert net.pis == (2, 3)
        assert net.fanin(4) == (2, 3)
        assert net.fanin(5) == (4,)
        assert type(net.fanins[6]) is tuple and net.fanins[6] == (4, 5)
        net.check_invariants()

    def test_t1_cell_and_taps_in_batch(self):
        net = LogicNetwork("t1")
        a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
        out = net.add_gates_bulk(
            [
                (Gate.T1_CELL, (a, b, c)),
                (Gate.T1_S, (5,)),
                (Gate.T1_C, (5,)),
            ]
        )
        assert net.t1_cells() == [out[0]]
        assert sorted(net.t1_taps_of(out[0])) == sorted(out[1:])
        net.check_invariants()

    @pytest.mark.parametrize(
        "bad",
        [
            # ids relative to the 5-node fixture net (batch base is 5)
            [(Gate.AND, (0, 99))],  # out of range
            [(Gate.AND, (0, 6)), (Gate.NOT, (2,))],  # forward batch ref
            [(Gate.NOT, (5,))],  # self ref
            [(Gate.AND, (0, -1))],  # negative
            [(Gate.MAJ3, (0, 1))],  # bad arity
            [(Gate.T1_S, (0,))],  # tap on a non-cell
        ],
    )
    def test_bad_batch_is_atomic(self, bad):
        net = LogicNetwork("atomic")
        a, b = net.add_pi(), net.add_pi()
        net.add_po(net.add_and(a, b))
        assert net.num_nodes() == 5
        before = net.structural_hash()
        epoch = net.epoch
        with pytest.raises(NetworkError):
            net.add_gates_bulk(bad)
        assert net.structural_hash() == before
        assert net.epoch == epoch
        net.check_invariants()

    def test_duplicate_fanins_keep_multiplicity(self):
        net = LogicNetwork("dups")
        out = net.add_gates_bulk(
            [
                (Gate.PI, ()),
                (Gate.AND, (2, 2)),  # duplicate batch-internal edge
            ]
        )
        net.add_po(out[1])
        assert net.fanout_count(out[0]) == 2
        net.check_invariants()

    def test_hash_cons_batch_folds(self):
        net = LogicNetwork("hc", hash_cons=True)
        a, b = net.add_pi(), net.add_pi()
        out = net.add_gates_bulk(
            [
                (Gate.AND, (a, b)),
                (Gate.AND, (a, b)),  # strash duplicate
                (Gate.AND, (4, 4)),  # folds to batch item 0's node
            ]
        )
        assert out[0] == out[1] == out[2]
        net.check_invariants()


class TestSyntheticGenerators:
    def test_names_and_registry(self):
        assert synthetic_names() == sorted(SYNTHETIC_BENCHMARKS)
        assert "datapath" in SYNTHETIC_BENCHMARKS
        assert "cascade" in SYNTHETIC_BENCHMARKS

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_BENCHMARKS))
    def test_deterministic_and_live(self, name):
        a = build_synthetic(name, 4000, seed=3)
        b = build_synthetic(name, 4000, seed=3)
        assert a.structural_hash() == b.structural_hash()
        c = build_synthetic(name, 4000, seed=4)
        assert c.structural_hash() != a.structural_hash()
        a.check_invariants()
        # every sink is a PO, so the whole network is live
        assert a.live_nodes() >= set(range(2, a.num_nodes()))

    def test_datapath_scale_and_sim(self):
        net = random_datapath(n_nodes=3000, n_pis=16, seed=1)
        assert net.num_nodes() == 3000
        width = 16
        pats = random_patterns(len(net.pis), width, seed=9)
        assert simulate(net, pats, width) == simulate_nodewise(
            net, pats, width
        )

    def test_cascade_shape(self):
        net = lut_cascade(width=16, depth=10, k=4, seed=0)
        assert len(net.pis) == 16
        assert net.depth() == 10
        net.check_invariants()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ReproError):
            build_synthetic("nope", 4000)
        with pytest.raises(ReproError):
            build_synthetic("datapath", 4)
        with pytest.raises(ReproError):
            random_datapath(n_nodes=100, n_pis=2)

"""Differential fuzz of the code-native analysis/rewrite kernels.

Cut enumeration, MFFC computation, balancing and the refactor scorer
read the network's gate-code bytearray and fanin tuples directly
(``gate_codes`` + ``fanins``).  These tests pin those kernels two ways:

* **vs the retained oracles** — ``enumerate_cuts`` against
  ``enumerate_cuts_reference`` on fuzzed mutator sequences and on the
  ``--scale`` synthetic generators;
* **vs the seed kernel** — every pass also runs on a
  ``ReferenceLogicNetwork`` replay of the same circuit (through its
  ``gate_codes`` snapshot and ``fanins`` list) and must produce identical
  results, including across ``compact()`` NodeMap events.

The mutator machinery is shared with ``test_flat_core``.
"""

import random

import pytest

from oracles.cuts import enumerate_cuts_reference
from oracles.logic_network import ReferenceLogicNetwork
from repro.circuits.synthetic import build_synthetic
from repro.network import Gate, MffcComputer, balance, enumerate_cuts
from repro.network.gates import is_t1_tap

from tests.network.test_flat_core import _fuzz_round, _seed_pair


def rows_of(db):
    """Per-node ``(leaves, bits)`` rows — the full cut-set surface."""
    rl, rb = db.raw_rows()
    return [
        [(rl[i], rb[i]) for i in db.node_rows(n)]
        for n in range(len(db.cuts))
    ]


def to_reference(net):
    """Replay *net* node-for-node into the retained tuple kernel."""
    ref = ReferenceLogicNetwork(net.name)
    for n in range(2, net.num_nodes()):
        g = net.gate(n)
        if g is Gate.PI:
            ref.add_pi(net.get_name(n))
        elif g is Gate.T1_CELL:
            ref.add_t1_cell(*net.fanin(n))
        elif is_t1_tap(g):
            ref.add_t1_tap(net.fanin(n)[0], g)
        else:
            ref.add_gate(g, net.fanin(n))
    for po, name in zip(net.pos, net.po_names):
        ref.add_po(po, name)
    assert ref.structural_hash() == net.structural_hash()
    return ref


def _fuzzed_pair(seed, n_ops=80, allow_t1=True):
    rng = random.Random(f"flat-kernels:{seed}")
    flat, ref = _seed_pair()
    _fuzz_round(rng, flat, ref, n_ops=n_ops, allow_t1=allow_t1)
    if not flat.pos:
        sink = flat.num_nodes() - 1
        flat.add_po(sink)
        ref.add_po(sink)
    return rng, flat, ref


class TestCutKernelDifferential:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [3, 4])
    def test_fuzzed_networks_match_oracle(self, seed, k):
        _rng, flat, ref = _fuzzed_pair(seed)
        kernel = rows_of(enumerate_cuts(flat, k=k))
        oracle = rows_of(enumerate_cuts_reference(flat, k=k))
        assert kernel == oracle
        # same kernel on the tuple net's array snapshots
        assert rows_of(enumerate_cuts(ref, k=k)) == oracle

    @pytest.mark.parametrize("name,size,seed", [
        pytest.param("datapath", 3000, 5, id="datapath"),
        pytest.param("cascade", 3000, 5, id="cascade"),
        pytest.param("datapath", 1000, 10, id="datapath-1k"),
    ])
    def test_scale_synthetics_match_oracle(self, name, size, seed):
        net = build_synthetic(name, size, seed=seed)
        assert rows_of(enumerate_cuts(net, k=4)) == rows_of(
            enumerate_cuts_reference(net, k=4)
        )

    def test_nbytes_reports_flat_storage(self):
        net = build_synthetic("datapath", 2000, seed=0)
        small = enumerate_cuts(net, k=3)
        large = enumerate_cuts(net, k=4)
        assert small.nbytes() > 0
        # wider cuts mean more and longer rows
        assert large.nbytes() > small.nbytes()

    def test_materialised_cuts_identity_stable(self):
        net = build_synthetic("datapath", 500, seed=1)
        db = enumerate_cuts(net, k=3)
        node = net.num_nodes() - 1
        assert db[node][0] is db[node][0]
        assert len(db.cuts) == net.num_nodes()


class TestMffcDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_networks_match_tuple_kernel(self, seed):
        rng, flat, ref = _fuzzed_pair(seed)
        mf = MffcComputer(flat)
        mr = MffcComputer(ref)
        n = flat.num_nodes()
        roots = [rng.randrange(2, n) for _ in range(30)]
        for root in roots:
            assert mf.mffc(root) == mr.mffc(root)
            boundary = flat.fanin(root)
            assert mf.mffc(root, boundary) == mr.mffc(root, boundary)
        group = [rng.randrange(2, n) for _ in range(5)]
        assert mf.mffc_union(group) == mr.mffc_union(group)

    def test_scale_synthetic_matches_tuple_kernel(self):
        net = build_synthetic("datapath", 3000, seed=6)
        ref = to_reference(net)
        mf = MffcComputer(net)
        mr = MffcComputer(ref)
        for root in range(net.num_nodes() - 50, net.num_nodes()):
            assert mf.mffc(root) == mr.mffc(root)


class TestBalanceDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_networks_lockstep(self, seed):
        _rng, flat, ref = _fuzzed_pair(seed)
        out_f, nm_f = balance(flat)
        out_r, nm_r = balance(ref)
        assert dict(nm_f) == dict(nm_r)
        assert list(out_f.gates) == list(out_r.gates)
        assert list(out_f.fanins) == list(out_r.fanins)
        assert out_f.pos == out_r.pos
        assert out_f.structural_hash() == out_r.structural_hash()

    def test_scale_synthetic_lockstep(self):
        net = build_synthetic("cascade", 3000, seed=7)
        ref = to_reference(net)
        out_f, nm_f = balance(net)
        out_r, nm_r = balance(ref)
        assert dict(nm_f) == dict(nm_r)
        assert out_f.structural_hash() == out_r.structural_hash()


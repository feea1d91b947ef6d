"""Tests for combinational equivalence checking."""

import pytest

from repro.circuits import build
from repro.errors import EquivalenceError, NetworkError
from repro.io import dumps_bench, loads_bench
from repro.network import (
    LogicNetwork,
    assert_equivalent,
    check_equivalence,
    exhaustive_equivalence,
    exhaustive_pi_patterns,
    exhaustive_pi_patterns_chunk,
    sat_equivalence,
    signature_equivalence,
)


def xor_via_ands(net, a, b):
    na, nb = net.add_not(a), net.add_not(b)
    return net.add_or(net.add_and(a, nb), net.add_and(na, b))


def make_pair(equal=True, n=3):
    """Two structurally different networks computing XOR of n inputs."""
    n1 = LogicNetwork("direct")
    pis1 = [n1.add_pi(f"x{i}") for i in range(n)]
    acc1 = pis1[0]
    for p in pis1[1:]:
        acc1 = n1.add_xor(acc1, p)
    n1.add_po(acc1)

    n2 = LogicNetwork("decomposed")
    pis2 = [n2.add_pi(f"x{i}") for i in range(n)]
    acc = pis2[0]
    for p in pis2[1:]:
        acc = xor_via_ands(n2, acc, p)
    if not equal:
        acc = n2.add_not(acc)
    n2.add_po(acc)
    return n1, n2


class TestExhaustive:
    def test_equivalent(self):
        a, b = make_pair(True)
        assert exhaustive_equivalence(a, b).equivalent

    def test_inequivalent_with_witness(self):
        a, b = make_pair(False)
        res = exhaustive_equivalence(a, b)
        assert not res.equivalent
        assert res.counterexample is not None
        assert set(res.counterexample) == {"x0", "x1", "x2"}


class TestRandom:
    def test_finds_difference(self):
        a, b = make_pair(False, n=20)
        res = signature_equivalence(a, b, width=256, rounds=2)
        assert not res.equivalent

    def test_passes_equivalent(self):
        a, b = make_pair(True, n=20)
        res = signature_equivalence(a, b, width=256, rounds=2)
        assert res.equivalent


class TestSat:
    def test_unsat_miter_means_equivalent(self):
        a, b = make_pair(True, n=6)
        assert sat_equivalence(a, b).equivalent

    def test_sat_miter_gives_valid_witness(self):
        a, b = make_pair(False, n=6)
        res = sat_equivalence(a, b)
        assert not res.equivalent
        cex = res.counterexample
        # replay the witness: outputs must differ
        from repro.network import simulate_words

        row = [cex[f"x{i}"] for i in range(6)]
        oa = simulate_words(a, [row])[0]
        ob = simulate_words(b, [row])[0]
        assert oa != ob

    def test_zero_po_vacuously_equivalent(self):
        a, b = LogicNetwork("a"), LogicNetwork("b")
        for net in (a, b):
            net.add_pi("x0")
        res = sat_equivalence(a, b)
        assert res.equivalent and res.method == "sat"


class TestDriver:
    def test_small_uses_exhaustive(self):
        a, b = make_pair(True)
        assert check_equivalence(a, b).method == "exhaustive"

    def test_large_uses_random_then_sat(self):
        a, b = make_pair(True, n=18)
        res = check_equivalence(a, b, complete=True)
        assert res.equivalent
        assert res.method == "sat"

    def test_same_structure_needs_no_sat(self):
        # paper c6288 against its own .bench round trip: the SAT miter
        # ran for over an hour; equal strashed structure settles it
        net = build("c6288", "paper")
        res = check_equivalence(net, loads_bench(dumps_bench(net)), complete=True)
        assert res.equivalent and res.method == "strash"

    def test_incomplete_mode_stops_at_random(self):
        a, b = make_pair(True, n=18)
        res = check_equivalence(a, b, complete=False)
        assert res.method == "random"

    def test_interface_mismatch_raises(self):
        a, _ = make_pair(True, 3)
        b, _ = make_pair(True, 4)
        with pytest.raises(NetworkError):
            check_equivalence(a, b)

    def test_assert_equivalent_raises_with_witness(self):
        a, b = make_pair(False)
        with pytest.raises(EquivalenceError) as exc:
            assert_equivalent(a, b)
        assert exc.value.counterexample is not None


class TestChunkedExhaustive:
    def test_chunk_patterns_tile_full_stimulus(self):
        # concatenating the chunk words must reproduce the classic
        # exhaustive stimulus exactly
        num_pis, chunk_pis = 6, 4
        width = 1 << chunk_pis
        full = exhaustive_pi_patterns(num_pis)
        rebuilt = [0] * num_pis
        for chunk in range(1 << (num_pis - chunk_pis)):
            vecs = exhaustive_pi_patterns_chunk(num_pis, chunk_pis, chunk)
            for i in range(num_pis):
                rebuilt[i] |= vecs[i] << (chunk * width)
        assert rebuilt == full

    def test_chunk_zero_of_single_chunk_is_full(self):
        assert exhaustive_pi_patterns_chunk(4, 6, 0) == exhaustive_pi_patterns(4)

    def test_chunk_index_out_of_range(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            exhaustive_pi_patterns_chunk(6, 4, 4)

    def test_chunked_equivalent_pair(self):
        a, b = make_pair(True, n=6)
        assert exhaustive_equivalence(a, b, chunk_pis=3).equivalent

    def test_chunked_finds_difference_with_witness(self):
        a, b = make_pair(False, n=6)
        res = exhaustive_equivalence(a, b, chunk_pis=3)
        assert not res.equivalent
        from repro.network import simulate_words

        row = [res.counterexample[f"x{i}"] for i in range(6)]
        assert simulate_words(a, [row])[0] != simulate_words(b, [row])[0]


class TestSignatureEngine:
    def test_difference_yields_witness(self):
        a, b = make_pair(False, n=20)
        res = signature_equivalence(a, b, width=256, rounds=2)
        assert not res.equivalent
        assert res.counterexample is not None
        from repro.network import simulate_words

        row = [res.counterexample[f"x{i}"] for i in range(20)]
        assert simulate_words(a, [row])[0] != simulate_words(b, [row])[0]

    def test_width_bounded_by_memory_budget(self):
        import repro.network.equivalence as eq

        a, b = make_pair(True, n=18)
        num_nodes = max(a.num_nodes(), b.num_nodes())
        # a budget that forces at least one halving on this network
        old = eq.SIGNATURE_WIDTH_BUDGET_BITS
        eq.SIGNATURE_WIDTH_BUDGET_BITS = num_nodes * 8192
        try:
            res = signature_equivalence(a, b, width=32768, rounds=2)
        finally:
            eq.SIGNATURE_WIDTH_BUDGET_BITS = old
        # the halved width must preserve verdict and total stimulus
        assert res.equivalent and res.method == "random"

    def test_matches_seed_random_engine_verdicts(self):
        for equal in (True, False):
            a, b = make_pair(equal, n=18)
            # the seed engine's round structure: several narrow rounds
            seed_res = signature_equivalence(a, b, width=256, rounds=2)
            sig_res = signature_equivalence(a, b, width=512, rounds=1)
            assert seed_res.equivalent == sig_res.equivalent == equal


class TestT1Equivalence:
    def test_t1_block_vs_explicit_gates(self):
        from repro.network import Gate

        t1net = LogicNetwork()
        a, b, c = (t1net.add_pi(f"x{i}") for i in range(3))
        cell = t1net.add_t1_cell(a, b, c)
        t1net.add_po(t1net.add_t1_tap(cell, Gate.T1_S))
        t1net.add_po(t1net.add_t1_tap(cell, Gate.T1_C))
        t1net.add_po(t1net.add_t1_tap(cell, Gate.T1_QN))

        ref = LogicNetwork()
        x, y, z = (ref.add_pi(f"x{i}") for i in range(3))
        ref.add_po(ref.add_xor(x, y, z))
        ref.add_po(ref.add_maj3(x, y, z))
        ref.add_po(ref.add_nor(x, y, z))

        assert exhaustive_equivalence(t1net, ref).equivalent
        assert sat_equivalence(t1net, ref).equivalent

    def test_t1_block_full_miter(self):
        """The SAT miter expands taps through their cell's fanins: it
        proves the S/C taps equal XOR3/MAJ3 and finds a witness when the
        reference swaps them."""
        from repro.network import Gate, simulate_words

        t1net = LogicNetwork()
        a, b, c = (t1net.add_pi(f"x{i}") for i in range(3))
        cell = t1net.add_t1_cell(a, b, c)
        t1net.add_po(t1net.add_t1_tap(cell, Gate.T1_S))
        t1net.add_po(t1net.add_t1_tap(cell, Gate.T1_C))

        def reference(swapped):
            ref = LogicNetwork()
            x, y, z = (ref.add_pi(f"x{i}") for i in range(3))
            outs = [ref.add_xor(x, y, z), ref.add_maj3(x, y, z)]
            for o in reversed(outs) if swapped else outs:
                ref.add_po(o)
            return ref

        assert sat_equivalence(t1net, reference(False)).equivalent
        swapped = reference(True)
        res = sat_equivalence(t1net, swapped)
        assert not res.equivalent
        row = [res.counterexample[f"x{i}"] for i in range(3)]
        assert simulate_words(t1net, [row]) != simulate_words(swapped, [row])

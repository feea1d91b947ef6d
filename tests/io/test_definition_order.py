"""The readers' shared definition resolver (``repro.io.resolve``).

Covers the order it builds (file order for in-order files, file order
among ready definitions otherwise), its linear cost on reverse-ordered
files, that reordering a file's definitions keeps its function, and the
redefinitions it rejects with the offending line.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.io import dumps_bench, dumps_blif, loads_bench, loads_blif
from repro.io.resolve import definition_order
from repro.network import (
    Gate,
    LogicNetwork,
    check_equivalence,
    exhaustive_equivalence,
    simulate_exhaustive,
)
from tests.test_flow_fuzz import random_network

#: a reverse-ordered 5k-definition chain parses in tens of milliseconds;
#: the repeated fixpoint passes the resolver replaced took 12-14 s
REVERSE_CHAIN_BOUND_S = 2.0


def _bench_chain(n):
    lines = [f"x{i} = NOT({'a' if i == 0 else f'x{i - 1}'})" for i in range(n)]
    return "\n".join(["INPUT(a)", f"OUTPUT(x{n - 1})"] + lines[::-1]) + "\n"


def _blif_chain(n):
    lines = [".model chain", ".inputs a", f".outputs x{n - 1}"]
    for i in reversed(range(n)):
        lines += [f".names {'a' if i == 0 else f'x{i - 1}'} x{i}", "0 1"]
    return "\n".join(lines + [".end"]) + "\n"


class TestOrder:
    def test_in_order_definitions_keep_file_order(self):
        defs = [(3, "y", ["a", "b"]), (4, "z", ["y"]), (5, "w", ["a"])]
        assert definition_order([(1, "a"), (2, "b")], defs) == [0, 1, 2]

    def test_earliest_ready_definition_goes_first(self):
        # z waits for y (defined last); among the ready ones file order
        # wins, and a release is taken before any later definition
        defs = [
            (2, "z", ["y"]),
            (3, "u", ["a"]),
            (4, "y", ["a"]),
            (5, "v", ["a"]),
        ]
        assert definition_order([(1, "a")], defs) == [1, 2, 0, 3]

    def test_bench_nodes_follow_file_order(self):
        net = loads_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(w)\n"
            "y = AND(a, b)\nz = OR(y, a)\nw = NOT(z)\n"
        )
        a, b = net.pis
        assert net.gates[a + 2:] == [Gate.AND, Gate.OR, Gate.NOT]
        assert net.fanins[b + 1] == (a, b)
        assert net.fanins[b + 2] == (b + 1, a)

    @pytest.mark.parametrize("load,chain", [
        pytest.param(loads_bench, _bench_chain, id="bench"),
        pytest.param(loads_blif, _blif_chain, id="blif"),
    ])
    def test_reverse_ordered_5k_chain_is_fast(self, load, chain):
        text = chain(5000)
        t0 = time.perf_counter()
        net = load(text)
        elapsed = time.perf_counter() - t0
        assert elapsed < REVERSE_CHAIN_BOUND_S, elapsed
        # 5000 inverters in series: the output equals the input
        assert net.num_gates() == 5000
        assert simulate_exhaustive(net)[0].bits == 0b10


def _shuffled_bench(text, rng):
    lines = text.splitlines()
    head = [ln for ln in lines if "=" not in ln]
    body = [ln for ln in lines if "=" in ln]
    rng.shuffle(body)
    return "\n".join(head + body) + "\n"


def _shuffled_blif(text, rng):
    head, blocks, tail = [], [], []
    for ln in text.splitlines():
        if ln.startswith(".names"):
            blocks.append([ln])
        elif ln == ".end":
            tail.append(ln)
        elif blocks:
            blocks[-1].append(ln)
        else:
            head.append(ln)
    rng.shuffle(blocks)
    return "\n".join(head + [ln for b in blocks for ln in b] + tail) + "\n"


class TestShuffledDefinitions:
    @settings(max_examples=25, deadline=None)
    @given(net_seed=st.integers(0, 10_000), order_seed=st.integers(0, 10_000))
    def test_bench_definitions_in_any_order(self, net_seed, order_seed):
        net = random_network(net_seed, num_pis=5, num_gates=25)
        text = _shuffled_bench(dumps_bench(net), random.Random(order_seed))
        assert check_equivalence(net, loads_bench(text)).equivalent

    @settings(max_examples=25, deadline=None)
    @given(net_seed=st.integers(0, 10_000), order_seed=st.integers(0, 10_000))
    def test_blif_definitions_in_any_order(self, net_seed, order_seed):
        net = random_network(net_seed, num_pis=5, num_gates=25)
        text = _shuffled_blif(dumps_blif(net), random.Random(order_seed))
        assert check_equivalence(net, loads_blif(text)).equivalent


@pytest.mark.parametrize("dump,load", [
    pytest.param(dumps_bench, loads_bench, id="bench"),
    pytest.param(dumps_blif, loads_blif, id="blif"),
])
def test_output_named_like_its_input_round_trips(dump, load):
    # the writers alias an output onto its driver; an output that shares
    # its driving input's name needs no alias, which would redefine it
    net = LogicNetwork()
    a, b = net.add_pi("a"), net.add_pi("b")
    net.add_po(a, "a")
    net.add_po(net.add_and(a, b), "y")
    back = load(dump(net))
    assert back.po_names == ("a", "y")
    assert back.pos[0] == back.pis[0]
    assert exhaustive_equivalence(net, back).equivalent


def _parse_error(load, text):
    with pytest.raises(ParseError) as info:
        load(text)
    return info.value


class TestBenchRejects:
    def test_gate_defined_twice(self):
        err = _parse_error(
            loads_bench, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"
        )
        assert err.line == 4 and "defined twice" in str(err)

    def test_gate_redefines_input(self):
        err = _parse_error(loads_bench, "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n")
        assert err.line == 3 and "redefines the input" in str(err)

    def test_input_declared_twice(self):
        err = _parse_error(loads_bench, "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n")
        assert err.line == 2 and "declared twice" in str(err)

    def test_undefined_signal_names_its_line(self):
        err = _parse_error(loads_bench, "INPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n")
        assert err.line == 3 and "'b'" in str(err)

    def test_wrong_arity_names_its_line(self):
        err = _parse_error(
            loads_bench, "INPUT(a)\nOUTPUT(y)\nx = NOT(a)\ny = NOT(a, x)\n"
        )
        assert err.line == 4 and "NOT" in str(err)

    def test_loop_names_its_signals(self):
        err = _parse_error(
            loads_bench,
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(w)\nw = BUF(z)\n",
        )
        assert err.line == 4 and "z -> w -> z" in str(err)


class TestBlifRejects:
    def test_names_defined_twice(self):
        err = _parse_error(
            loads_blif,
            ".model m\n.inputs a\n.outputs y\n"
            ".names a y\n1 1\n.names a y\n0 1\n.end\n",
        )
        assert err.line == 6 and "defined twice" in str(err)

    def test_names_redefines_input(self):
        err = _parse_error(
            loads_blif, ".model m\n.inputs a\n.outputs a\n.names a a\n0 1\n.end\n"
        )
        assert err.line == 4 and "redefines the input" in str(err)

    def test_input_declared_twice(self):
        err = _parse_error(
            loads_blif, ".model m\n.inputs a\n.inputs a\n.outputs a\n.end\n"
        )
        assert err.line == 3 and "declared twice" in str(err)

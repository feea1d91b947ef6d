"""Tests for .bench round-trips and DOT export."""

import pytest

from repro.circuits import ripple_carry_adder
from repro.errors import ParseError
from repro.io import (
    dumps_bench,
    dumps_netlist_dot,
    dumps_network_dot,
    loads_bench,
)
from repro.network import (
    Gate,
    LogicNetwork,
    check_equivalence,
    exhaustive_equivalence,
)


class TestBenchRoundTrip:
    def test_simple(self):
        net = LogicNetwork()
        a, b = net.add_pi("a"), net.add_pi("b")
        net.add_po(net.add_nand(a, b), "y")
        back = loads_bench(dumps_bench(net))
        assert exhaustive_equivalence(net, back).equivalent

    def test_adder(self):
        net = ripple_carry_adder(5)
        back = loads_bench(dumps_bench(net))
        assert check_equivalence(net, back).equivalent

    def test_t1_expansion(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi(x) for x in "abc")
        cell = net.add_t1_cell(a, b, c)
        net.add_po(net.add_t1_tap(cell, Gate.T1_S), "s")
        net.add_po(net.add_t1_tap(cell, Gate.T1_CN), "cn")
        back = loads_bench(dumps_bench(net))
        assert exhaustive_equivalence(net, back).equivalent

    def test_constants_rejected(self):
        net = LogicNetwork()
        net.add_pi("a")
        net.add_po(1, "one")
        with pytest.raises(ParseError):
            dumps_bench(net)


class TestBenchParsing:
    def test_iscas_style(self):
        text = """
# sample
INPUT(G1)
INPUT(G2)
OUTPUT(G3)
G3 = NAND(G1, G2)
"""
        net = loads_bench(text)
        assert len(net.pis) == 2
        from repro.network import simulate_exhaustive

        assert simulate_exhaustive(net)[0].bits == 0b0111

    def test_out_of_order(self):
        text = """
INPUT(a)
OUTPUT(y)
y = NOT(t)
t = BUFF(a)
"""
        net = loads_bench(text)
        from repro.network import simulate_exhaustive

        assert simulate_exhaustive(net)[0].bits == 0b01

    def test_dff_rejected(self):
        with pytest.raises(ParseError):
            loads_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ParseError):
            loads_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            loads_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(y)\n")


class TestDot:
    def test_network_dot(self):
        net = ripple_carry_adder(2)
        text = dumps_network_dot(net)
        assert text.startswith("digraph")
        assert "->" in text
        assert "triangle" in text

    def test_netlist_dot_with_stages(self):
        from repro.pipeline import Pipeline

        res = Pipeline.standard(verify="none").run(ripple_carry_adder(3))
        text = dumps_netlist_dot(res.netlist)
        assert "σ=" in text
        assert "rank=same" in text
        assert "T1" in text

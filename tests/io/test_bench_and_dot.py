"""Tests for .bench round-trips and DOT export."""

import pytest

from repro.circuits import build, names, ripple_carry_adder
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
from repro.network.cleanup import strash


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

    def test_constants_round_trip(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        net.add_po(1, "one")
        net.add_po(net.add_and(a, 0), "zero")
        text = dumps_bench(net)
        assert "GND = CONST0()" in text and "VDD = CONST1()" in text
        back = loads_bench(text)
        assert exhaustive_equivalence(net, back).equivalent
        assert back.po_names == ("one", "zero")

    def test_constant_name_avoids_signal_names(self):
        net = LogicNetwork()
        gnd = net.add_pi("GND")
        net.add_po(net.add_or(gnd, 0), "VDD")
        net.add_po(1, "VDD_1")
        text = dumps_bench(net)
        assert "GND_1 = CONST0()" in text and "VDD_2 = CONST1()" in text
        back = loads_bench(text)
        assert exhaustive_equivalence(net, back).equivalent
        assert [back.get_name(p) for p in back.pis] == ["GND"]
        assert back.po_names == ("VDD", "VDD_1")

    def test_no_constant_no_definition(self):
        assert "CONST" not in dumps_bench(ripple_carry_adder(4))

    def test_gate_name_avoids_pi_name(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        net.add_pi("n5")  # node ids: 0/1 constants, a = 2, n5 = 3
        g = net.add_and(a, 3)
        h = net.add_not(g)
        assert h == 5
        net.add_po(h, "y")
        text = dumps_bench(net)
        assert "n5_1 = NOT(n4)" in text and "y = BUFF(n5_1)" in text
        back = loads_bench(text)
        assert exhaustive_equivalence(net, back).equivalent
        assert [back.get_name(p) for p in back.pis] == ["a", "n5"]

    def test_t1_helper_name_avoids_pi_name(self):
        net = LogicNetwork()
        a, b, c = net.add_pi("a"), net.add_pi("n6_m"), net.add_pi("c")
        cell = net.add_t1_cell(a, b, c)
        tap = net.add_t1_tap(cell, Gate.T1_CN)
        assert tap == 6
        net.add_po(tap, "y")
        back = loads_bench(dumps_bench(net))
        assert exhaustive_equivalence(net, back).equivalent

    def test_gate_name_avoids_other_po_alias(self):
        net = LogicNetwork()
        a, b = net.add_pi("a"), net.add_pi("b")
        g = net.add_and(a, b)  # 4
        h = net.add_or(a, b)  # 5
        net.add_po(g, "n5")  # alias for gate 4, named like gate 5
        net.add_po(h, "n4")  # and the other way round
        net.add_po(h, "n5_1")  # the first fresh name is taken as well
        text = dumps_bench(net)
        back = loads_bench(text)
        assert exhaustive_equivalence(net, back).equivalent
        assert back.po_names == ("n5", "n4", "n5_1")
        again = dumps_bench(back)  # and the re-read network writes again
        assert exhaustive_equivalence(net, loads_bench(again)).equivalent

    def test_po_named_like_its_driver_needs_no_alias(self):
        net = LogicNetwork()
        a, b = net.add_pi("a"), net.add_pi("b")
        g = net.add_xor(a, b)
        net.add_po(g, f"n{g}")
        text = dumps_bench(net)
        assert "BUFF" not in text and f"n{g} = XOR(a, b)" in text

    def test_name_from_header(self):
        net = ripple_carry_adder(3)
        net.name = "rca3"
        assert loads_bench(dumps_bench(net)).name == "rca3"
        assert loads_bench("\n# c17\n# 5 inputs\nINPUT(a)\nOUTPUT(a)\n").name == "c17"
        assert loads_bench("INPUT(a)\n# late\nOUTPUT(a)\n").name == "bench"
        assert loads_bench("# two words\nINPUT(a)\nOUTPUT(a)\n").name == "bench"


@pytest.mark.parametrize("preset", ["ci", "paper"])
@pytest.mark.parametrize("name", names())
def test_registry_round_trip(name, preset):
    net = build(name, preset)
    back = loads_bench(dumps_bench(net))
    assert [back.get_name(p) for p in back.pis] == [
        net.get_name(p) for p in net.pis
    ]
    assert back.po_names == net.po_names
    # a SAT miter is slow on the voters and multipliers; equal strashed
    # structure proves the same functions, simulation cross-checks it
    assert strash(back)[0].structural_hash() == strash(net)[0].structural_hash()
    assert check_equivalence(net, back, complete=False).equivalent


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

    def test_constant_definition_out_of_order(self):
        net = loads_bench("INPUT(a)\nOUTPUT(y)\ny = OR(a, k)\nk = CONST1()\n")
        assert net.num_gates() == 1
        assert net.fanins[net.pos[0]] == (net.pis[0], 1)

    def test_constant_with_fanins_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            loads_bench("INPUT(a)\nOUTPUT(y)\nk = CONST0(a)\ny = AND(a, k)\n")

    def test_constant_redefined_rejected(self):
        with pytest.raises(ParseError, match="defined twice"):
            loads_bench("INPUT(a)\nOUTPUT(a)\nk = CONST0()\nk = CONST1()\n")


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

"""Tests for the JJ-area / DFF / depth metric layer."""

import pytest

from repro.circuits import ripple_carry_adder
from repro.pipeline import Pipeline
from repro.metrics import area_jj, count_splitters, measure
from repro.network import Gate, LogicNetwork
from repro.sfq import SFQNetlist, default_library, map_to_sfq


def test_splitter_counting_f_minus_one():
    nl = SFQNetlist()
    a = nl.add_pi()
    g1 = nl.add_gate(Gate.NOT, [(a, "out")])
    g2 = nl.add_gate(Gate.NOT, [(a, "out")])
    g3 = nl.add_gate(Gate.NOT, [(a, "out")])
    nl.add_po((g1, "out"))
    nl.add_po((g2, "out"))
    nl.add_po((g3, "out"))
    # net a has 3 consumers -> 2 splitters; each NOT has 1 consumer (PO)
    assert count_splitters(nl) == 2


def test_po_is_a_consumer():
    nl = SFQNetlist()
    a = nl.add_pi()
    g1 = nl.add_gate(Gate.NOT, [(a, "out")])
    nl.add_po((a, "out"))  # PI also observed directly
    nl.add_po((g1, "out"))
    assert count_splitters(nl) == 1


def test_area_sums_cells():
    lib = default_library()
    nl = SFQNetlist()
    a, b, c = nl.add_pi(), nl.add_pi(), nl.add_pi()
    g = nl.add_gate(Gate.AND, [(a, "out"), (b, "out")])
    t = nl.add_t1((a, "out"), (b, "out"), (c, "out"))
    d = nl.add_dff((g, "out"), stage=2)
    nl.add_po((d, "out"))
    nl.add_po((t, "S"))
    expected = (
        lib.gate_area(Gate.AND, 2)
        + lib.t1.jj_count
        + lib.dff.jj_count
        + 2 * lib.splitter.jj_count  # a and b each feed 2 consumers
    )
    assert area_jj(nl) == expected


def test_const_cells_free():
    nl = SFQNetlist()
    k = nl.add_const(False)
    nl.add_po((k, "out"))
    assert area_jj(nl) == 0


def test_measure_consistency_with_flow():
    net = ripple_carry_adder(8)
    res = Pipeline.standard(verify="none").run(net)
    m = res.metrics
    assert m.num_dffs == res.netlist.num_dffs()
    assert m.area_jj == area_jj(res.netlist)
    assert m.num_t1 == len(list(res.netlist.t1_cells()))
    assert m.depth_cycles >= 1
    d = m.as_dict()
    assert d["area_jj"] == m.area_jj


def test_depth_uses_max_stage():
    net = ripple_carry_adder(8)
    res = Pipeline.standard(n_phases=4, use_t1=False, verify="none").run(net)
    import math

    assert res.metrics.depth_cycles == math.ceil(
        res.netlist.max_stage() / 4
    )

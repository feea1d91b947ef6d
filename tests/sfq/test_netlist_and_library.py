"""Tests for SFQNetlist, the cell library and the multiphase algebra."""

import pytest

from repro.core.dff_insertion import insert_dffs, net_chain_length
from repro.errors import MappingError, NetworkError, TimingError
from repro.network import Gate
from repro.sfq import (
    CellKind,
    SFQNetlist,
    conventional_full_adder_area,
    default_library,
    depth_cycles,
    edge_dffs,
    epoch_of,
    phase_of,
    stage_of,
)


class TestCellLibrary:
    def test_t1_full_adder_anchor(self):
        lib = default_library()
        assert lib.t1.jj_count == 29, "the paper's 29-JJ full adder"

    def test_forty_percent_anchor(self):
        # T1 FA must be ~40% of the conventional realisation ("60% fewer")
        conv = conventional_full_adder_area()
        ratio = 29 / conv
        assert 0.35 <= ratio <= 0.45

    def test_missing_cell_raises(self):
        lib = default_library()
        with pytest.raises(MappingError):
            lib.cell_for(Gate.XOR, 5)

    def test_max_arity(self):
        lib = default_library()
        assert lib.max_arity(Gate.XOR) == 3
        assert lib.max_arity(Gate.NAND) == 2

    def test_all_gate_cells_clocked(self):
        lib = default_library()
        for spec in lib.gate_cells.values():
            assert spec.clocked
        assert not lib.splitter.clocked
        assert lib.dff.clocked


class TestMultiphaseAlgebra:
    def test_stage_of_eq1(self):
        # sigma = n*S + phi
        assert stage_of(epoch=3, phase=2, n_phases=4) == 14

    def test_phase_epoch_roundtrip(self):
        for stage in range(40):
            n = 4
            assert stage_of(epoch_of(stage, n), phase_of(stage, n), n) == stage

    def test_bad_phase_rejected(self):
        with pytest.raises(TimingError):
            stage_of(0, 4, 4)

    def test_depth_cycles(self):
        assert depth_cycles(128, 1) == 128
        assert depth_cycles(128, 4) == 32
        assert depth_cycles(130, 4) == 33
        assert depth_cycles(0, 4) == 0

    @pytest.mark.parametrize(
        "gap,n,expect",
        [(1, 1, 0), (2, 1, 1), (5, 1, 4), (1, 4, 0), (4, 4, 0), (5, 4, 1), (9, 4, 2)],
    )
    def test_edge_dffs(self, gap, n, expect):
        assert edge_dffs(gap, n) == expect

    def test_edge_dffs_single_phase_classic(self):
        # n=1 degenerates to full path balancing: gap - 1
        for gap in range(1, 20):
            assert edge_dffs(gap, 1) == gap - 1

    def test_net_dffs_is_max_not_sum(self):
        assert net_chain_length([9, 5, 2], 4) == 2

    def test_chain_and_sources(self):
        # one net driven at stage 0 with consumers at 9, 5 and 3 (n = 4):
        # one shared chain at 4 and 8, each consumer tapping the latest
        # element below it
        nl = SFQNetlist("t", n_phases=4)
        a = nl.add_pi("a")
        nl.cells[a].stage = 0
        consumers = {}
        for s in (9, 5, 3):
            g = nl.add_gate(Gate.NOT, [(a, "out")])
            nl.cells[g].stage = s
            nl.add_po((g, "out"))
            consumers[s] = g
        insert_dffs(nl)
        source = {
            s: nl.driver_cell(nl.cells[g].fanins[0]) for s, g in consumers.items()
        }
        assert {s: c.stage for s, c in source.items()} == {9: 8, 5: 4, 3: 0}
        chain = []
        cell = source[9]
        while cell.kind is CellKind.DFF:
            chain.append(cell.stage)
            cell = nl.driver_cell(cell.fanins[0])
        assert cell.index == a
        assert sorted(chain) == [4, 8]


class TestNetlist:
    def test_build_and_query(self):
        nl = SFQNetlist("t", n_phases=4)
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        g = nl.add_gate(Gate.AND, [(a, "out"), (b, "out")])
        nl.add_po((g, "out"), "y")
        assert nl.stats()["gates"] == 1
        assert list(nl.edges()) == [(a, g), (b, g)]

    def test_t1_ports(self):
        nl = SFQNetlist()
        a, b, c = nl.add_pi(), nl.add_pi(), nl.add_pi()
        t = nl.add_t1((a, "out"), (b, "out"), (c, "out"))
        nl.add_po((t, "S"))
        nl.add_po((t, "C"))
        nl.add_po((t, "Q"))
        with pytest.raises(NetworkError):
            nl.add_po((t, "out"))

    def test_bad_port_rejected(self):
        nl = SFQNetlist()
        a = nl.add_pi()
        with pytest.raises(NetworkError):
            nl.add_gate(Gate.NOT, [(a, "S")])

    def test_missing_cell_rejected(self):
        nl = SFQNetlist()
        with pytest.raises(NetworkError):
            nl.add_po((7, "out"))

    def test_consumers_includes_pos(self):
        nl = SFQNetlist()
        a = nl.add_pi()
        g = nl.add_gate(Gate.NOT, [(a, "out")])
        nl.add_po((g, "out"))
        cons = nl.consumers()
        assert cons[(a, "out")] == [g]
        assert cons[(g, "out")] == [-1]

    def test_topological_cells(self):
        nl = SFQNetlist()
        a = nl.add_pi()
        g1 = nl.add_gate(Gate.NOT, [(a, "out")])
        g2 = nl.add_gate(Gate.NOT, [(g1, "out")])
        order = nl.topological_cells()
        assert order.index(a) < order.index(g1) < order.index(g2)

    def test_dff_and_const(self):
        nl = SFQNetlist()
        a = nl.add_pi()
        d = nl.add_dff((a, "out"), stage=2)
        k = nl.add_const(False)
        nl.add_po((d, "out"))
        nl.add_po((k, "out"))
        assert nl.num_dffs() == 1
        assert nl.cells[k].kind is CellKind.CONST0

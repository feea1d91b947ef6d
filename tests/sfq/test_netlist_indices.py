"""Maintained SFQNetlist indices: epoch, consumer/PO index, structure view."""

import pytest

from repro.errors import NetworkError
from repro.network.gates import Gate
from repro.sfq.netlist import CellKind, OUT, SFQNetlist


def small_netlist():
    nl = SFQNetlist("idx", n_phases=4)
    a = (nl.add_pi("a"), OUT)
    b = (nl.add_pi("b"), OUT)
    g1 = (nl.add_gate(Gate.AND, [a, b]), OUT)
    g2 = (nl.add_gate(Gate.OR, [g1, a]), OUT)
    nl.add_po(g2, "y")
    return nl, a, b, g1, g2


class TestMaintainedIndices:
    def test_construction_maintains_consumers(self):
        nl, a, b, g1, g2 = small_netlist()
        assert sorted(nl.consumers_of(a)) == [g1[0], g2[0]]
        assert nl.consumers_of(g1) == (g2[0],)
        assert nl.po_slots_of(g2) == (0,)
        nl.check_indices()

    def test_replace_fanin_updates_index(self):
        nl, a, b, g1, g2 = small_netlist()
        nl.replace_fanin(g2[0], 0, b)  # g2 now consumes (b, a)
        assert nl.cells[g2[0]].fanins == (b, a)
        assert nl.consumers_of(g1) == ()
        assert g2[0] in nl.consumers_of(b)
        nl.check_indices()

    def test_replace_fanin_preserves_multiplicity(self):
        nl, a, b, g1, g2 = small_netlist()
        g3 = nl.add_gate(Gate.AND, [a, a])  # consumes a twice
        assert list(nl.consumers_of(a)).count(g3) == 2
        nl.replace_fanin(g3, 0, b)
        assert list(nl.consumers_of(a)).count(g3) == 1
        nl.check_indices()

    def test_replace_po_updates_index(self):
        nl, a, b, g1, g2 = small_netlist()
        nl.replace_po(0, g1)
        assert nl.pos[0][0] == g1
        assert nl.pos[0][1] == "y"  # name preserved
        assert nl.po_slots_of(g2) == ()
        assert nl.po_slots_of(g1) == (0,)
        nl.check_indices()

    def test_replace_fanin_validates(self):
        nl, a, b, g1, g2 = small_netlist()
        with pytest.raises(NetworkError):
            nl.replace_fanin(g2[0], 5, a)
        with pytest.raises(NetworkError):
            nl.replace_fanin(g2[0], 0, (g1[0], "no_such_port"))

    def test_consumers_dict_matches_scan(self):
        nl, a, b, g1, g2 = small_netlist()
        nl.replace_fanin(g2[0], 1, b)
        nl.add_po(g1, "z")
        want = {}
        for cell in nl.cells:
            for sig in cell.fanins:
                want.setdefault(sig, []).append(cell.index)
        for sig, _name in nl.pos:
            want.setdefault(sig, []).append(-1)
        got = nl.consumers()
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in want.items()
        }


class TestEpochCaching:
    def test_epoch_bumps_on_structural_mutation(self):
        nl, a, b, g1, g2 = small_netlist()
        e0 = nl.epoch
        nl.add_dff(g1)
        assert nl.epoch > e0
        e1 = nl.epoch
        nl.replace_fanin(g2[0], 0, a)
        assert nl.epoch > e1

    def test_stage_writes_do_not_bump(self):
        nl, a, b, g1, g2 = small_netlist()
        e0 = nl.epoch
        nl.cells[g1[0]].stage = 3
        assert nl.epoch == e0

    def test_topological_cells_cached_per_epoch(self):
        nl, a, b, g1, g2 = small_netlist()
        o1 = nl.topological_cells()
        assert nl.topological_cells() is o1  # cached
        nl.add_dff(g2)
        o2 = nl.topological_cells()
        assert o2 is not o1
        assert len(o2) == len(o1) + 1

    def test_structure_cached_and_invalidated(self):
        nl, a, b, g1, g2 = small_netlist()
        s1 = nl.structure()
        assert nl.structure() is s1
        nl.replace_fanin(g2[0], 1, b)
        s2 = nl.structure()
        assert s2 is not s1
        # the old view is a snapshot: it still shows the old consumers
        assert g2[0] in s1.nets[a]
        assert g2[0] not in s2.nets.get(a, [])

    def test_structure_matches_seed_extraction(self):
        """The view's nets/t1/po fields equal a by-hand extraction."""
        nl = SFQNetlist("t1", n_phases=4)
        a = (nl.add_pi(), OUT)
        b = (nl.add_pi(), OUT)
        c = (nl.add_pi(), OUT)
        t = nl.add_t1(a, b, c)
        g = nl.add_gate(Gate.AND, [(t, "S"), a])
        nl.add_po((g, OUT))
        nl.add_po((t, "C"))
        st = nl.structure()
        assert st.t1_consumers[a[0]] == {t}
        assert st.nets[(t, "S")] == [g]
        assert (t, "C") in st.po_signals
        assert st.nets[(t, "C")] == []  # PO-only net present
        assert st.net_slots[(t, "S")] == [(g, 0)]
        assert st.po_slots[(g, OUT)] == [0]

    def test_flow_keeps_indices_consistent(self):
        from repro.circuits import build
        from repro.pipeline import Pipeline, SplitterPass

        ctx = (
            Pipeline.standard(n_phases=4, use_t1=True, verify="none")
            .with_pass(SplitterPass(), after="dff_insert")
            .run(build("c6288", "ci"))
        )
        ctx.netlist.check_indices()
        assert any(
            c.kind is CellKind.SPLITTER for c in ctx.netlist.cells
        )

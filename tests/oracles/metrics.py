"""The seed Table-I metric layer — the one-walk ``measure``'s oracle.

One walk per metric (gates, T1 cells, DFFs, physical splitters, area,
max stage), splitter demand counted on a copy of the consumer index
(:meth:`SFQNetlist.consumers`), twice per ``measure``; the
:class:`NetlistMetrics` are identical to :func:`repro.metrics.measure`.
"""

from typing import Optional

from repro.errors import MappingError
from repro.metrics import NetlistMetrics
from repro.sfq.cell_library import CellLibrary, default_library
from repro.sfq.multiphase import depth_cycles
from repro.sfq.netlist import CellKind, SFQNetlist


def count_splitters_reference(netlist: SFQNetlist) -> int:
    """f − 1 splitters per net with f consumers (POs count as consumers)."""
    total = 0
    for _sig, users in netlist.consumers().items():
        if len(users) > 1:
            total += len(users) - 1
    return total


def area_jj_reference(
    netlist: SFQNetlist, library: Optional[CellLibrary] = None
) -> int:
    library = library or default_library()
    total = 0
    for cell in netlist.cells:
        if cell.kind in (CellKind.PI, CellKind.CONST0, CellKind.CONST1):
            continue
        if cell.kind is CellKind.DFF:
            total += library.dff.jj_count
        elif cell.kind is CellKind.T1:
            total += library.t1.jj_count
        elif cell.kind is CellKind.SPLITTER:
            total += library.splitter.jj_count
        elif cell.kind is CellKind.GATE:
            assert cell.op is not None
            total += library.gate_area(cell.op, len(cell.fanins))
        else:  # pragma: no cover - exhaustive
            raise MappingError(f"unknown cell kind {cell.kind}")
    total += count_splitters_reference(netlist) * library.splitter.jj_count
    return total


def measure_reference(
    netlist: SFQNetlist, library: Optional[CellLibrary] = None
) -> NetlistMetrics:
    library = library or default_library()
    num_gates = sum(1 for _ in netlist.gate_cells())
    num_t1 = sum(1 for _ in netlist.t1_cells())
    num_dffs = netlist.num_dffs()
    physical = sum(1 for c in netlist.cells if c.kind is CellKind.SPLITTER)
    splitters = physical + count_splitters_reference(netlist)
    return NetlistMetrics(
        name=netlist.name,
        n_phases=netlist.n_phases,
        num_gates=num_gates,
        num_t1=num_t1,
        num_dffs=num_dffs,
        num_splitters=splitters,
        area_jj=area_jj_reference(netlist, library),
        depth_cycles=depth_cycles(netlist.max_stage(), netlist.n_phases),
    )

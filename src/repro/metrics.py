"""Cost metrics of mapped SFQ netlists: the three columns of Table I.

* ``#DFF``  — number of inserted path-balancing / staggering DFFs;
* ``area``  — total JJ count: gate cells + T1 cells + DFFs + splitters
  (a net with f consumers costs f − 1 splitters: every chain DFF re-drives
  the pulse, so chain length does not change the splitter count);
* ``depth`` — pipeline depth in clock cycles, ⌈σ_max / n⌉.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sfq.cell_library import CellLibrary, default_library
from repro.sfq.multiphase import depth_cycles
from repro.sfq.netlist import CellKind, SFQNetlist


@dataclass(frozen=True)
class NetlistMetrics:
    """Cost summary of one mapped netlist."""

    name: str
    n_phases: int
    num_gates: int
    num_t1: int
    num_dffs: int
    num_splitters: int
    area_jj: int
    depth_cycles: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "gates": self.num_gates,
            "t1": self.num_t1,
            "dffs": self.num_dffs,
            "splitters": self.num_splitters,
            "area_jj": self.area_jj,
            "depth_cycles": self.depth_cycles,
        }


def count_splitters(netlist: SFQNetlist) -> int:
    """f − 1 splitters per net with f consumers (POs count as consumers)."""
    return netlist.splitter_demand()


def area_jj(
    netlist: SFQNetlist, library: Optional[CellLibrary] = None
) -> int:
    """Total JJ count of the netlist under the given cost model."""
    return measure(netlist, library).area_jj


def measure(
    netlist: SFQNetlist, library: Optional[CellLibrary] = None
) -> NetlistMetrics:
    """All Table-I metrics for one netlist, in one walk over its cells.

    PIs and constants are free; every other cell costs its library JJ
    count.  Nets not yet materialised still need their combinatorial
    f − 1 splitters (after ``materialize_splitters`` every net has one
    consumer, so that term adds 0 and the physical splitters count).
    """
    library = library or default_library()
    dff_jj = library.dff.jj_count
    t1_jj = library.t1.jj_count
    splitter_jj = library.splitter.jj_count
    gates = t1s = dffs = physical = area = max_stage = 0
    # bound once: each ``CellKind.X`` lookup is a slow class-attribute read
    GATE, DFF, T1, SPLITTER = (
        CellKind.GATE, CellKind.DFF, CellKind.T1, CellKind.SPLITTER
    )
    for cell in netlist.cells:
        kind = cell.kind
        if kind is GATE:
            gates += 1
            assert cell.op is not None
            area += library.gate_area(cell.op, len(cell.fanins))
        elif kind is DFF:
            dffs += 1
            area += dff_jj
        elif kind is T1:
            t1s += 1
            area += t1_jj
        elif kind is SPLITTER:
            physical += 1
            area += splitter_jj
            continue
        else:  # PI / CONST0 / CONST1: free and unclocked
            continue
        stage = cell.stage
        if stage is not None and stage > max_stage:
            max_stage = stage
    demand = netlist.splitter_demand()
    return NetlistMetrics(
        name=netlist.name,
        n_phases=netlist.n_phases,
        num_gates=gates,
        num_t1=t1s,
        num_dffs=dffs,
        num_splitters=physical + demand,
        area_jj=area + demand * splitter_jj,
        depth_cycles=depth_cycles(max_stage, netlist.n_phases),
    )

"""SFQ technology substrate: cells, netlists, clocking, simulation."""

from repro.sfq.cell_library import (
    CellLibrary,
    CellSpec,
    DFF_SPEC,
    SPLITTER_SPEC,
    T1_SPEC,
    conventional_full_adder_area,
    default_library,
)
from repro.sfq.mapping import decompose_to_library, map_to_sfq
from repro.sfq.multiphase import (
    depth_cycles,
    edge_dffs,
    epoch_of,
    phase_of,
    stage_of,
)
from repro.sfq.energy import EnergyModel, EnergyReport, estimate_energy
from repro.sfq.netlist import OUT, Cell, CellKind, SFQNetlist, Signal, T1_PORTS
from repro.sfq.splitters import (
    SplitterReport,
    materialize_splitters,
    resolve_clocked_driver,
    splitter_count,
)
from repro.sfq.simulator import PulseSimulator, StreamResult, stream_compare
from repro.sfq.t1_cell import (
    T1CellState,
    T1Event,
    full_adder_cycle,
    simulate_pulse_train,
    waveform_ascii,
)
from repro.sfq.timing import TimingReport, assert_timing, check_timing

__all__ = [
    "Cell",
    "CellKind",
    "CellLibrary",
    "CellSpec",
    "DFF_SPEC",
    "EnergyModel",
    "EnergyReport",
    "SplitterReport",
    "estimate_energy",
    "materialize_splitters",
    "resolve_clocked_driver",
    "splitter_count",
    "OUT",
    "PulseSimulator",
    "SFQNetlist",
    "SPLITTER_SPEC",
    "Signal",
    "StreamResult",
    "T1CellState",
    "T1Event",
    "T1_PORTS",
    "T1_SPEC",
    "TimingReport",
    "assert_timing",
    "check_timing",
    "conventional_full_adder_area",
    "decompose_to_library",
    "default_library",
    "depth_cycles",
    "edge_dffs",
    "epoch_of",
    "full_adder_cycle",
    "map_to_sfq",
    "phase_of",
    "simulate_pulse_train",
    "stage_of",
    "stream_compare",
    "waveform_ascii",
]

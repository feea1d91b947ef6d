"""Pulse-level streaming simulator for staged SFQ netlists.

Models the gate-level-pipelined operation of a multiphase RSFQ circuit:

* logic 1 = presence of an SFQ pulse, logic 0 = its absence;
* a clocked cell at stage σ fires once per cycle, at global stage times
  t = w·n + σ for wave w = 0, 1, 2, ... — one new input wave enters the
  pipeline every cycle (full throughput);
* pulses travel to consumers instantly (JTL delays are abstracted away;
  ordering is by stage) and wait in the consumer's input loop until its
  clock fires;
* every pulse carries its *wave tag*; a cell firing wave w that finds a
  pulse of any other wave on an input raises
  :class:`~repro.errors.HazardError` — this is the dynamic counterpart of
  the static stage-gap rule;
* the T1 cell is simulated through its behavioural state machine
  (:mod:`repro.sfq.t1_cell`): overlapping T pulses raise a hazard, the
  readout emits the synchronous S/C/Q values.

Deliveries at time t become visible only after all firings at time t —
a pulse arriving exactly when the clock fires belongs to the next window,
matching the boundary case gap = n.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HazardError, SimulationError, TimingError
from repro.network.gates import Gate, eval_gate
from repro.sfq.netlist import Cell, CellKind, SFQNetlist, Signal
from repro.sfq.t1_cell import T1CellState


@dataclass
class StreamResult:
    """Outcome of a streaming run."""

    po_values: List[List[int]]  # [wave][po_index]
    num_waves: int
    horizon: int  # last global stage time simulated


class PulseSimulator:
    """Simulate a staged netlist on a stream of input waves."""

    def __init__(self, netlist: SFQNetlist):
        self.netlist = netlist
        self.n = netlist.n_phases
        for cell in netlist.cells:
            if cell.clocked and cell.stage is None:
                raise SimulationError(
                    f"cell {cell.index} has no stage; run DFF insertion first"
                )

    def run(self, waves: Sequence[Sequence[int]]) -> StreamResult:
        """Stream the given input waves through the pipeline.

        ``waves[w]`` is the PI bit vector of wave w (aligned with
        ``netlist.pis``).  Returns the PO bit vectors per wave.
        """
        nl = self.netlist
        n = self.n
        num_waves = len(waves)
        if num_waves == 0:
            return StreamResult([], 0, 0)
        for w, vec in enumerate(waves):
            if len(vec) != len(nl.pis):
                raise SimulationError(
                    f"wave {w} has {len(vec)} bits, expected {len(nl.pis)}"
                )

        consumers: Dict[Signal, List[Tuple[int, int]]] = defaultdict(list)
        for cell in nl.cells:
            for i, sig in enumerate(cell.fanins):
                consumers[sig].append((cell.index, i))
        po_of_signal: Dict[Signal, List[int]] = defaultdict(list)
        for pi_idx, (sig, _name) in enumerate(nl.pos):
            po_of_signal[sig].append(pi_idx)
        pi_position = {cell_idx: i for i, cell_idx in enumerate(nl.pis)}

        # firing schedule: time -> [(cell_index, wave)]
        schedule: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        horizon = 0
        for cell in nl.cells:
            if cell.kind is CellKind.PI or cell.kind is CellKind.CONST1 or cell.clocked:
                stage = cell.stage
                assert stage is not None
                for w in range(num_waves):
                    t = w * n + stage
                    schedule[t].append((cell.index, w))
                    horizon = max(horizon, t)

        # input pulse buffers: (cell, fanin_idx) -> list of wave tags
        buffers: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        # T1 behavioural state + arrival times per cell
        t1_state: Dict[int, T1CellState] = {
            c.index: T1CellState() for c in nl.t1_cells()
        }
        po_out = [[0] * len(nl.pos) for _ in range(num_waves)]

        for t in range(horizon + 1):
            firings = schedule.get(t)
            if not firings:
                continue
            emissions: List[Tuple[Signal, int, int]] = []  # (signal, wave, bit)

            for cell_idx, wave in firings:
                cell = nl.cells[cell_idx]
                if cell.kind is CellKind.PI:
                    bit = int(waves[wave][pi_position[cell_idx]])
                    emissions.append(((cell_idx, "out"), wave, bit))
                    continue
                if cell.kind is CellKind.CONST1:
                    emissions.append(((cell_idx, "out"), wave, 1))
                    continue
                if cell.kind is CellKind.T1:
                    state = t1_state[cell_idx]
                    # the R pulse (clock) performs the readout
                    count = state.toggles_since_readout
                    if count > 3:
                        raise HazardError(
                            f"T1 cell {cell_idx} collected {count} pulses in "
                            "one cycle"
                        )
                    # check wave tags on the T buffers
                    for i in range(3):
                        tags = buffers.pop((cell_idx, i), [])
                        for tag in tags:
                            if tag != wave:
                                raise HazardError(
                                    f"T1 cell {cell_idx} input {i} holds a "
                                    f"wave-{tag} pulse at readout of wave {wave}"
                                )
                    out = state.readout(t)
                    emissions.append(((cell_idx, "S"), wave, out["S"]))
                    emissions.append(((cell_idx, "C"), wave, out["C"]))
                    emissions.append(((cell_idx, "Q"), wave, out["Q"]))
                    continue
                # GATE or DFF: gather inputs
                values = []
                for i in range(len(cell.fanins)):
                    tags = buffers.pop((cell_idx, i), [])
                    bit = 0
                    for tag in tags:
                        if tag != wave:
                            raise HazardError(
                                f"cell {cell_idx} fanin {i} holds a wave-{tag} "
                                f"pulse when firing wave {wave} at t={t}"
                            )
                        if bit:
                            raise HazardError(
                                f"cell {cell_idx} fanin {i}: duplicate pulse "
                                f"in one clock window (wave {wave})"
                            )
                        bit = 1
                    values.append(bit)
                if cell.kind is CellKind.DFF:
                    out_bit = values[0]
                else:
                    assert cell.op is not None
                    out_bit = eval_gate(cell.op, values, 1)
                emissions.append(((cell_idx, "out"), wave, out_bit))

            # deliver after all firings at this time step; asynchronous
            # splitters forward pulses within the same instant
            work = list(emissions)
            while work:
                sig, wave, bit = work.pop()
                for po_idx in po_of_signal.get(sig, ()):
                    po_out[wave][po_idx] = bit
                if not bit:
                    continue  # logic 0 = no pulse
                for consumer_idx, fanin_idx in consumers.get(sig, ()):
                    consumer = nl.cells[consumer_idx]
                    if consumer.kind is CellKind.SPLITTER:
                        work.append(((consumer_idx, "o0"), wave, bit))
                        work.append(((consumer_idx, "o1"), wave, bit))
                    elif consumer.kind is CellKind.T1:
                        # T pulse: feed the behavioural state machine now
                        t1_state[consumer_idx].pulse_t(t)
                        buffers[(consumer_idx, fanin_idx)].append(wave)
                    else:
                        buffers[(consumer_idx, fanin_idx)].append(wave)

        # leftover pulses mean a consumer never fired for them
        for (cell_idx, fanin_idx), tags in buffers.items():
            if tags:
                raise TimingError(
                    f"cell {cell_idx} fanin {fanin_idx} left with pulses "
                    f"{tags} after the run (missing firings)"
                )
        return StreamResult(po_out, num_waves, horizon)


def stream_compare(
    netlist: SFQNetlist,
    logic_pos_fn,
    waves: Sequence[Sequence[int]],
) -> StreamResult:
    """Run the stream and compare each wave against a golden model.

    ``logic_pos_fn(wave_bits) -> list of PO bits``.  Raises
    :class:`SimulationError` on the first mismatch.
    """
    result = PulseSimulator(netlist).run(waves)
    for w, vec in enumerate(waves):
        expect = logic_pos_fn(list(vec))
        got = result.po_values[w]
        if list(expect) != list(got):
            raise SimulationError(
                f"wave {w}: netlist outputs {got} != golden {list(expect)}"
            )
    return result

"""Mapped SFQ netlist: clocked cells, T1 blocks, DFF chains, stages.

This is the object the paper's stages B and C operate on.  Differences
from :class:`~repro.network.logic_network.LogicNetwork`:

* cells may have multiple output *ports* (the T1 cell exposes S, C, Q);
* every clocked cell carries a *stage* σ = n·S + φ (eq. 1 of the paper);
* DFF cells exist explicitly (inserted by stage C);
* splitters are not materialised as cells — a net with f consumers needs
  exactly f − 1 splitters regardless of where its DFF chain taps sit, so
  the metric layer counts them combinatorially (see
  :func:`repro.metrics.area_jj`).

Like the :class:`~repro.network.logic_network.LogicNetwork` kernel, the
netlist **maintains its consumer/PO indices across every mutation** and
carries a mutation ``epoch``:

* fanin edges must be rewritten through :meth:`replace_fanin` and PO
  bindings through :meth:`replace_po` — never by assigning
  ``cell.fanins`` / ``netlist.pos`` directly — so the per-signal consumer
  index stays current;
* :meth:`topological_cells` and :meth:`structure` are cached per epoch:
  repeated calls on an unchanged netlist are O(1), and the returned
  objects must be treated as immutable;
* ``cell.stage`` writes are *not* structural: they do not bump the epoch
  (schedules iterate on stages without invalidating the structure view).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import MappingError, NetworkError
from repro.network.gates import Gate

#: a signal is one output port of one cell
Signal = Tuple[int, str]

OUT = "out"  # default single output port
T1_PORTS = ("S", "C", "Q")
SPLITTER_PORTS = ("o0", "o1")


class CellKind(enum.Enum):
    """Kinds of netlist elements (clocked: GATE, T1, DFF)."""

    PI = "pi"
    GATE = "gate"
    T1 = "t1"
    DFF = "dff"
    CONST0 = "const0"  # never pulses (logic 0 = pulse absence)
    CONST1 = "const1"  # pulses once per cycle at stage 0
    SPLITTER = "splitter"  # asynchronous 1-to-2 pulse fanout

    def __repr__(self) -> str:  # pragma: no cover
        return f"CellKind.{self.name}"


#: the kinds that take a clock pulse and carry a stage
CLOCKED_KINDS = (CellKind.GATE, CellKind.T1, CellKind.DFF)


@dataclass
class Cell:
    """One netlist element."""

    index: int
    kind: CellKind
    op: Optional[Gate] = None  # for GATE cells
    fanins: Tuple[Signal, ...] = ()
    stage: Optional[int] = None
    name: Optional[str] = None

    @property
    def clocked(self) -> bool:
        return self.kind in CLOCKED_KINDS

    def output_ports(self) -> Tuple[str, ...]:
        if self.kind is CellKind.T1:
            return T1_PORTS
        if self.kind is CellKind.SPLITTER:
            return SPLITTER_PORTS
        return (OUT,)


class NetlistStructure:
    """Per-epoch structural view consumed by scheduling and DFF insertion.

    Everything the §II-B/§II-C passes need, extracted once per mutation
    epoch (see :meth:`SFQNetlist.structure`) instead of per call:

    * ``fanin_drivers`` / ``fanin_signals`` — flat fanin structure;
    * ``nets`` — one entry per driven signal with its ordinary (non-T1)
      consumer cells; PO signals are present even with no cell consumers;
    * ``t1_consumers`` — T1 cells fed by each driver cell (T1 fanins get
      dedicated staggering chains, so they are not part of ``nets``);
    * ``net_slots`` / ``po_slots`` — (consumer, fanin index) and PO slot
      bindings per signal, for chain rewiring;
    * ``order`` — a topological order of the cells.

    The view is a snapshot: its containers are owned by the view, so
    later netlist mutations never alias into it.  Treat it as read-only.
    """

    def __init__(self, netlist: "SFQNetlist"):
        self.netlist = netlist
        self.n = netlist.n_phases
        cells = netlist.cells
        self.is_t1 = [c.kind is CellKind.T1 for c in cells]
        self.clocked = [c.clocked for c in cells]
        self.fanin_drivers: List[List[int]] = [
            [sig[0] for sig in c.fanins] for c in cells
        ]
        self.fanin_signals: List[Tuple[Signal, ...]] = [c.fanins for c in cells]
        # one net per driven signal (a T1 cell drives up to three nets)
        self.nets: Dict[Signal, List[int]] = {}
        # T1 cells fed by each driver cell
        self.t1_consumers: List[Set[int]] = [set() for _ in cells]
        # (consumer, fanin index) slots per signal, ordinary consumers only
        self.net_slots: Dict[Signal, List[Tuple[int, int]]] = {}
        for c in cells:
            for i, sig in enumerate(c.fanins):
                if c.kind is CellKind.T1:
                    self.t1_consumers[sig[0]].add(c.index)
                else:
                    self.nets.setdefault(sig, []).append(c.index)
                    self.net_slots.setdefault(sig, []).append((c.index, i))
        # ordinary (non-T1) consumers per driver cell, by signal
        self.signals_of_cell: List[List[Signal]] = [[] for _ in cells]
        for sig in self.nets:
            self.signals_of_cell[sig[0]].append(sig)
        const_kinds = (CellKind.CONST0, CellKind.CONST1)
        self.po_signals: Set[Signal] = {
            sig
            for sig, _name in netlist.pos
            if cells[sig[0]].kind not in const_kinds
        }
        for sig in self.po_signals:
            self.nets.setdefault(sig, [])
            if sig not in self.signals_of_cell[sig[0]]:
                self.signals_of_cell[sig[0]].append(sig)
        # PO slot indices per signal (all POs, const-driven included)
        self.po_slots: Dict[Signal, List[int]] = {}
        for po_idx, (sig, _name) in enumerate(netlist.pos):
            self.po_slots.setdefault(sig, []).append(po_idx)
        # flat ordinary-consumer list per driver cell (for window bounds)
        self.net_consumers: List[List[int]] = [[] for _ in cells]
        for sig, cons in self.nets.items():
            self.net_consumers[sig[0]].extend(cons)
        self.order = netlist.topological_cells()


class SFQNetlist:
    """Mutable mapped netlist with maintained consumer/PO indices."""

    def __init__(self, name: str = "top", n_phases: int = 1):
        self.name = name
        self.n_phases = n_phases
        self.cells: List[Cell] = []
        self.pis: List[int] = []
        self.pos: List[Tuple[Signal, Optional[str]]] = []
        self._epoch = 0
        # maintained indices: signal -> consumer cell ids / PO slot indices
        self._consumer_index: Dict[Signal, List[int]] = {}
        self._po_index: Dict[Signal, List[int]] = {}
        self._topo_cache: Optional[Tuple[int, List[int]]] = None
        self._structure_cache: Optional[Tuple[int, NetlistStructure]] = None

    @property
    def epoch(self) -> int:
        """Monotone counter bumped by every structural mutation."""
        return self._epoch

    def _bump(self) -> None:
        self._epoch += 1

    # -- construction -------------------------------------------------------

    def _add(self, cell: Cell) -> int:
        self.cells.append(cell)
        for sig in cell.fanins:
            self._consumer_index.setdefault(sig, []).append(cell.index)
        self._bump()
        return cell.index

    def add_pi(self, name: Optional[str] = None) -> int:
        idx = len(self.cells)
        self._add(Cell(idx, CellKind.PI, stage=0, name=name))
        self.pis.append(idx)
        return idx

    def add_const(self, value: bool) -> int:
        """A constant source (used only for constant primary outputs)."""
        idx = len(self.cells)
        kind = CellKind.CONST1 if value else CellKind.CONST0
        return self._add(Cell(idx, kind, stage=0))

    def add_gate(self, op: Gate, fanins: Sequence[Signal], name=None) -> int:
        idx = len(self.cells)
        self._check_signals(fanins)
        return self._add(
            Cell(idx, CellKind.GATE, op=op, fanins=tuple(fanins), name=name)
        )

    def add_t1(self, a: Signal, b: Signal, c: Signal, name=None) -> int:
        idx = len(self.cells)
        self._check_signals((a, b, c))
        return self._add(Cell(idx, CellKind.T1, fanins=(a, b, c), name=name))

    def add_dff(self, fanin: Signal, stage: Optional[int] = None) -> int:
        idx = len(self.cells)
        self._check_signals((fanin,))
        return self._add(Cell(idx, CellKind.DFF, fanins=(fanin,), stage=stage))

    def add_splitter(self, fanin: Signal) -> int:
        """An asynchronous 1-to-2 splitter cell (no clock, no stage)."""
        idx = len(self.cells)
        self._check_signals((fanin,))
        return self._add(Cell(idx, CellKind.SPLITTER, fanins=(fanin,)))

    def add_po(self, signal: Signal, name: Optional[str] = None) -> int:
        self._check_signals((signal,))
        self.pos.append((signal, name))
        slot = len(self.pos) - 1
        self._po_index.setdefault(signal, []).append(slot)
        self._bump()
        return slot

    def _check_signals(self, signals: Sequence[Signal]) -> None:
        for cell_id, port in signals:
            if not 0 <= cell_id < len(self.cells):
                raise NetworkError(f"signal references missing cell {cell_id}")
            cell = self.cells[cell_id]
            if port not in cell.output_ports():
                raise NetworkError(
                    f"cell {cell_id} ({cell.kind.name}) has no port {port!r}"
                )

    # -- index-maintaining mutation -----------------------------------------

    def replace_fanin(self, cell_id: int, fanin_index: int, new_sig: Signal) -> None:
        """Rewire one fanin slot of a cell, keeping the consumer index."""
        cell = self.cells[cell_id]
        if not 0 <= fanin_index < len(cell.fanins):
            raise NetworkError(
                f"cell {cell_id} has no fanin slot {fanin_index}"
            )
        old = cell.fanins[fanin_index]
        if old == new_sig:
            return
        self._check_signals((new_sig,))
        fans = list(cell.fanins)
        fans[fanin_index] = new_sig
        cell.fanins = tuple(fans)
        users = self._consumer_index[old]
        users.remove(cell_id)  # one entry per fanin slot -> drop exactly one
        if not users:
            del self._consumer_index[old]
        self._consumer_index.setdefault(new_sig, []).append(cell_id)
        self._bump()

    def replace_po(self, po_index: int, new_sig: Signal) -> None:
        """Retarget one primary output, keeping the PO index."""
        old, name = self.pos[po_index]
        if old == new_sig:
            return
        self._check_signals((new_sig,))
        self.pos[po_index] = (new_sig, name)
        slots = self._po_index[old]
        slots.remove(po_index)
        if not slots:
            del self._po_index[old]
        self._po_index.setdefault(new_sig, []).append(po_index)
        self._bump()

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def clocked_cells(self) -> Iterator[Cell]:
        return (c for c in self.cells if c.clocked)

    def gate_cells(self) -> Iterator[Cell]:
        return (c for c in self.cells if c.kind is CellKind.GATE)

    def t1_cells(self) -> Iterator[Cell]:
        return (c for c in self.cells if c.kind is CellKind.T1)

    def dff_cells(self) -> Iterator[Cell]:
        return (c for c in self.cells if c.kind is CellKind.DFF)

    def num_dffs(self) -> int:
        return sum(1 for _ in self.dff_cells())

    def consumers_of(self, signal: Signal) -> Tuple[int, ...]:
        """Consumer cell ids of one signal, from the maintained index."""
        return tuple(self._consumer_index.get(signal, ()))

    def po_slots_of(self, signal: Signal) -> Tuple[int, ...]:
        """PO slot indices bound to one signal, from the maintained index."""
        return tuple(self._po_index.get(signal, ()))

    def consumers(self) -> Dict[Signal, List[int]]:
        """signal -> consumer cell ids (POs contribute id -1).

        Reads the maintained indices; the returned dict is fresh and
        mutable, built in O(edges).
        """
        out: Dict[Signal, List[int]] = {
            sig: list(users) for sig, users in self._consumer_index.items()
        }
        for sig, slots in self._po_index.items():
            out.setdefault(sig, []).extend(-1 for _ in slots)
        return out

    def splitter_demand(self) -> int:
        """f − 1 splitters per net with f consumers (POs count as consumers).

        Sums the lengths of the maintained consumer and PO indices
        (every entry is non-empty); nothing is copied.
        """
        cons = self._consumer_index
        total = 0
        for users in cons.values():
            total += len(users) - 1
        for sig, slots in self._po_index.items():
            total += len(slots) if sig in cons else len(slots) - 1
        return total

    def driver_cell(self, signal: Signal) -> Cell:
        return self.cells[signal[0]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """(driver cell, consumer cell) pairs over all fanin signals."""
        for cell in self.cells:
            for sig in cell.fanins:
                yield sig[0], cell.index

    def max_stage(self) -> int:
        stages = [c.stage for c in self.cells if c.clocked and c.stage is not None]
        return max(stages) if stages else 0

    def topological_cells(self) -> List[int]:
        """A topological order of the cells, cached per mutation epoch.

        Treat the returned list as immutable — it is shared with the
        cache.
        """
        cached = self._topo_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        n = len(self.cells)
        indeg = [0] * n
        fanouts: List[List[int]] = [[] for _ in range(n)]
        for cell in self.cells:
            indeg[cell.index] = len(cell.fanins)
            for sig in cell.fanins:
                fanouts[sig[0]].append(cell.index)
        queue = [i for i in range(n) if indeg[i] == 0]
        order: List[int] = []
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order.append(u)
            for v in fanouts[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != n:
            raise NetworkError("netlist contains a cycle")
        self._topo_cache = (self._epoch, order)
        return order

    def structure(self) -> NetlistStructure:
        """The :class:`NetlistStructure` view, cached per mutation epoch."""
        cached = self._structure_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        view = NetlistStructure(self)
        self._structure_cache = (self._epoch, view)
        return view

    def check_indices(self) -> None:
        """Assert the maintained indices equal a from-scratch rebuild."""
        fresh_cons: Dict[Signal, List[int]] = {}
        for cell in self.cells:
            for sig in cell.fanins:
                fresh_cons.setdefault(sig, []).append(cell.index)
        fresh_pos: Dict[Signal, List[int]] = {}
        for slot, (sig, _name) in enumerate(self.pos):
            fresh_pos.setdefault(sig, []).append(slot)
        maintained = {s: sorted(u) for s, u in self._consumer_index.items()}
        if maintained != {s: sorted(u) for s, u in fresh_cons.items()}:
            raise NetworkError("consumer index diverged from fanin tuples")
        if {s: sorted(u) for s, u in self._po_index.items()} != {
            s: sorted(u) for s, u in fresh_pos.items()
        }:
            raise NetworkError("PO index diverged from the PO list")

    def stats(self) -> Dict[str, int]:
        from collections import Counter

        kinds = Counter(c.kind.name for c in self.cells)
        return {
            "cells": len(self.cells),
            "gates": kinds.get("GATE", 0),
            "t1": kinds.get("T1", 0),
            "dffs": kinds.get("DFF", 0),
            "pis": len(self.pis),
            "pos": len(self.pos),
        }

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats()
        return (
            f"SFQNetlist({self.name!r}, n={self.n_phases}, gates={s['gates']}, "
            f"t1={s['t1']}, dffs={s['dffs']})"
        )

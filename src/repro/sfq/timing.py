"""Static timing-rule checker for staged SFQ netlists.

Validates the invariants that phase assignment (eq. 3) and DFF insertion
(eq. 5) must establish; the pulse-level simulator then re-checks them
dynamically.  Rules, for an n-phase netlist:

R1. every clocked cell has a stage, PIs are at stage 0;
R2. every producer→consumer edge has stage gap in [1, n] — beyond n the
    next wave's pulse overwrites the loop before readout;
R3. the three fanins of a T1 cell arrive at pairwise distinct stages
    (otherwise T pulses overlap and merge);
R4. DFF fanin gaps obey R2 (chains correctly spaced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import TimingError
from repro.sfq.netlist import CLOCKED_KINDS, CellKind, SFQNetlist
from repro.sfq.splitters import resolve_clocked_driver


@dataclass
class TimingReport:
    """Outcome of a check; ``violations`` empty means clean."""

    n_phases: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            preview = "; ".join(self.violations[:5])
            raise TimingError(
                f"{len(self.violations)} timing violations: {preview}"
            )


def check_timing(netlist: SFQNetlist) -> TimingReport:
    """Run all rules in one walk over the cells; returns a report (does
    not raise).

    Violations are listed rule by rule — stage rules, then edge gaps,
    then T1 arrivals — each in cell order.
    """
    n = netlist.n_phases
    cells = netlist.cells
    stage_v: List[str] = []
    gap_v: List[str] = []
    t1_v: List[str] = []
    # bound once: each ``CellKind.X`` lookup is a slow class-attribute read
    PI, T1, SPLITTER = CellKind.PI, CellKind.T1, CellKind.SPLITTER

    for cell in cells:
        kind = cell.kind
        stage = cell.stage
        if kind is PI:
            if stage is None or not 0 <= stage < n:
                stage_v.append(
                    f"PI cell {cell.index} stage {stage} outside "
                    f"epoch 0 (must be one of phases 0..{n - 1})"
                )
            continue
        if kind not in CLOCKED_KINDS:
            continue
        if stage is None:
            stage_v.append(f"{kind.name} cell {cell.index} has no stage")
            continue
        if stage < 0:
            stage_v.append(f"cell {cell.index} has negative stage {stage}")
        is_t1 = kind is T1
        arrivals = []
        for sig in cell.fanins:
            driver = cells[sig[0]]
            if driver.kind is SPLITTER:
                driver = cells[resolve_clocked_driver(netlist, sig)[0]]
            ds = driver.stage
            if ds is None:
                continue  # reported as a stage rule
            gap = stage - ds
            if gap < 1:
                gap_v.append(f"edge {driver.index}->{cell.index}: gap {gap} < 1")
            elif gap > n:
                gap_v.append(
                    f"edge {driver.index}->{cell.index}: gap {gap} > n={n} "
                    "(pulse overwritten by next wave)"
                )
            if is_t1:
                arrivals.append(ds)
        if is_t1 and len(set(arrivals)) != len(arrivals):
            t1_v.append(
                f"T1 cell {cell.index}: fanin arrival stages {arrivals} "
                "not pairwise distinct (eq. 5 violated)"
            )
    return TimingReport(n, stage_v + gap_v + t1_v)


def assert_timing(netlist: SFQNetlist) -> None:
    """Run all timing rules and raise on the first violation set."""
    check_timing(netlist).raise_if_failed()

"""The seed timing-rule checker — the one-walk ``check_timing``'s oracle.

Three walks over the cells (stage rules, edge gaps, T1 arrivals), each
fanin resolved through :func:`resolve_clocked_driver` and
:meth:`SFQNetlist.driver_cell`; the violation list, order included, is
identical to :func:`repro.sfq.timing.check_timing`.
"""

from repro.sfq.netlist import CellKind, SFQNetlist
from repro.sfq.splitters import resolve_clocked_driver
from repro.sfq.timing import TimingReport


def check_timing_reference(netlist: SFQNetlist) -> TimingReport:
    n = netlist.n_phases
    report = TimingReport(n)
    v = report.violations

    for cell in netlist.cells:
        if cell.kind is CellKind.PI:
            if cell.stage is None or not 0 <= cell.stage < n:
                v.append(
                    f"PI cell {cell.index} stage {cell.stage} outside "
                    f"epoch 0 (must be one of phases 0..{n - 1})"
                )
            continue
        if not cell.clocked:
            continue
        if cell.stage is None:
            v.append(f"{cell.kind.name} cell {cell.index} has no stage")
            continue
        if cell.stage < 0:
            v.append(f"cell {cell.index} has negative stage {cell.stage}")

    for cell in netlist.cells:
        if not cell.clocked or cell.stage is None:
            continue
        for sig in cell.fanins:
            driver = netlist.driver_cell(resolve_clocked_driver(netlist, sig))
            if driver.stage is None:
                continue  # reported above
            gap = cell.stage - driver.stage
            if gap < 1:
                v.append(
                    f"edge {driver.index}->{cell.index}: gap {gap} < 1"
                )
            elif gap > n:
                v.append(
                    f"edge {driver.index}->{cell.index}: gap {gap} > n={n} "
                    "(pulse overwritten by next wave)"
                )

    for cell in netlist.t1_cells():
        if cell.stage is None:
            continue
        arrivals = []
        for sig in cell.fanins:
            driver = netlist.driver_cell(resolve_clocked_driver(netlist, sig))
            if driver.stage is not None:
                arrivals.append(driver.stage)
        if len(set(arrivals)) != len(arrivals):
            v.append(
                f"T1 cell {cell.index}: fanin arrival stages {arrivals} "
                "not pairwise distinct (eq. 5 violated)"
            )
    return report

"""RSFQ energy and power estimation.

The paper motivates RSFQ by its "two to three orders of magnitude" power
advantage over CMOS (§I); this module quantifies mapped netlists with the
standard first-order RSFQ model (Krylov & Friedman, ref. [2]):

* **dynamic energy** — each Josephson junction dissipates
  ``E_sw ≈ I_c · Φ0`` per 2π phase slip (one pulse), where
  Φ0 = h/2e ≈ 2.068 mV·ps is the flux quantum.  Per clock cycle the
  switched-JJ count is the cell's JJ count times its switching activity
  (clock-driven JJs in clocked cells fire every cycle; data JJs fire with
  the data activity factor);
* **static power** — conventional RSFQ biases every JJ through a resistor
  from a common voltage rail: ``P_static ≈ V_bias · I_bias`` per JJ,
  which typically dominates total power (ERSFQ/eSFQ variants eliminate
  it; exposed as a model flag).

These are estimates for comparing mapping choices, not device-level
numbers; all constants are explicit and overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# NOTE: repro.metrics imports repro.sfq.cell_library, so importing it at
# module scope would make repro.sfq <-> repro.metrics circular; resolved
# lazily inside _cell_jj instead.
from repro.sfq.cell_library import CellLibrary, default_library
from repro.sfq.netlist import SFQNetlist

#: flux quantum h/2e in webers (V·s)
PHI0_WB = 2.067833848e-15


@dataclass(frozen=True)
class EnergyModel:
    """First-order RSFQ energy parameters."""

    critical_current_ua: float = 100.0   # typical I_c
    bias_voltage_mv: float = 2.6         # common SFQ bias rail
    bias_fraction: float = 0.7           # I_b / I_c
    data_activity: float = 0.5           # average data switching factor
    ersfq: bool = False                  # True: no static bias dissipation

    @property
    def switch_energy_j(self) -> float:
        """Energy of one JJ switching event: I_c · Φ0."""
        return self.critical_current_ua * 1e-6 * PHI0_WB

    @property
    def static_power_per_jj_w(self) -> float:
        if self.ersfq:
            return 0.0
        return (
            self.bias_voltage_mv
            * 1e-3
            * self.critical_current_ua
            * 1e-6
            * self.bias_fraction
        )


@dataclass(frozen=True)
class EnergyReport:
    """Energy/power summary of one netlist at one clock frequency."""

    total_jj: int
    clocked_jj: int
    dynamic_energy_per_cycle_j: float
    static_power_w: float
    frequency_ghz: float

    @property
    def dynamic_power_w(self) -> float:
        return self.dynamic_energy_per_cycle_j * self.frequency_ghz * 1e9

    @property
    def total_power_w(self) -> float:
        return self.dynamic_power_w + self.static_power_w

    def summary(self) -> str:
        return (
            f"{self.total_jj} JJ total ({self.clocked_jj} in clocked cells); "
            f"E/cycle = {self.dynamic_energy_per_cycle_j * 1e18:.1f} aJ; "
            f"at {self.frequency_ghz:g} GHz: dynamic "
            f"{self.dynamic_power_w * 1e6:.2f} uW + static "
            f"{self.static_power_w * 1e6:.2f} uW = "
            f"{self.total_power_w * 1e6:.2f} uW"
        )


def _cell_jj(netlist: SFQNetlist, library: CellLibrary) -> tuple:
    """(total JJs, JJs in clocked cells): everything but the splitters
    is clocked, since PIs and constants cost nothing."""
    from repro.metrics import measure

    metrics = measure(netlist, library)
    total = metrics.area_jj
    return total, total - metrics.num_splitters * library.splitter.jj_count


def estimate_energy(
    netlist: SFQNetlist,
    frequency_ghz: float = 20.0,
    model: Optional[EnergyModel] = None,
    library: Optional[CellLibrary] = None,
) -> EnergyReport:
    """Estimate per-cycle energy and power of a mapped netlist.

    Clocked-cell JJs are charged at full activity (the clock pulse always
    arrives); asynchronous JJs (splitters, JTL) and the data-dependent
    share switch with ``model.data_activity``.
    """
    model = model or EnergyModel()
    library = library or default_library()
    total, clocked = _cell_jj(netlist, library)
    async_jj = total - clocked
    # within a clocked cell, roughly half the JJs belong to the clock path
    clock_path = 0.5 * clocked
    data_path = 0.5 * clocked + async_jj
    switched = clock_path + model.data_activity * data_path
    return EnergyReport(
        total_jj=total,
        clocked_jj=clocked,
        dynamic_energy_per_cycle_j=switched * model.switch_energy_j,
        static_power_w=total * model.static_power_per_jj_w,
        frequency_ghz=frequency_ghz,
    )

"""Tests for the RSFQ energy/power model."""

import pytest

from repro.circuits import ripple_carry_adder
from repro.pipeline import Pipeline
from repro.sfq.energy import PHI0_WB, EnergyModel, EnergyReport, estimate_energy


def netlist_for(bits=8, use_t1=False):
    return Pipeline.standard(
        n_phases=4, use_t1=use_t1, verify="none"
    ).run(ripple_carry_adder(bits)).netlist


class TestModel:
    def test_switch_energy_is_ic_phi0(self):
        m = EnergyModel(critical_current_ua=100.0)
        assert m.switch_energy_j == pytest.approx(100e-6 * PHI0_WB)
        # ~0.2 aJ for a 100 uA junction — the textbook number
        assert 1e-19 < m.switch_energy_j < 3e-19

    def test_ersfq_removes_static(self):
        assert EnergyModel(ersfq=True).static_power_per_jj_w == 0.0
        assert EnergyModel(ersfq=False).static_power_per_jj_w > 0.0


class TestEstimates:
    def test_total_jj_matches_area(self):
        from repro.metrics import area_jj

        nl = netlist_for()
        rep = estimate_energy(nl)
        assert rep.total_jj == area_jj(nl)

    def test_dynamic_power_scales_with_frequency(self):
        nl = netlist_for()
        p20 = estimate_energy(nl, frequency_ghz=20.0)
        p40 = estimate_energy(nl, frequency_ghz=40.0)
        assert p40.dynamic_power_w == pytest.approx(2 * p20.dynamic_power_w)
        assert p40.static_power_w == p20.static_power_w

    def test_static_dominates_at_low_frequency(self):
        nl = netlist_for()
        rep = estimate_energy(nl, frequency_ghz=1.0)
        assert rep.static_power_w > rep.dynamic_power_w

    def test_t1_flow_lowers_energy(self):
        base = estimate_energy(netlist_for(use_t1=False))
        t1 = estimate_energy(netlist_for(use_t1=True))
        assert t1.total_jj < base.total_jj
        assert t1.total_power_w < base.total_power_w
        assert t1.dynamic_energy_per_cycle_j < base.dynamic_energy_per_cycle_j

    def test_activity_bounds(self):
        nl = netlist_for()
        low = estimate_energy(nl, model=EnergyModel(data_activity=0.0))
        high = estimate_energy(nl, model=EnergyModel(data_activity=1.0))
        assert low.dynamic_energy_per_cycle_j < high.dynamic_energy_per_cycle_j
        # even at zero data activity the clock path still burns energy
        assert low.dynamic_energy_per_cycle_j > 0

    def test_summary_string(self):
        rep = estimate_energy(netlist_for(), frequency_ghz=20.0)
        text = rep.summary()
        assert "JJ total" in text
        assert "GHz" in text

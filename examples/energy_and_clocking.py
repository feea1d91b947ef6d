"""Energy and clock-network accounting across the benchmark suite.

The paper motivates RSFQ with its power advantage and reports area in
JJs, leaving the clock network to physical design.  This example adds the
two "hidden" costs to the Table-I picture:

* first-order RSFQ power (I_c·Φ0 switching energy + resistor-bias static
  power, with an ERSFQ variant), and
* the per-phase clock splitter trees every clocked cell hangs from.

It then shows that the T1 flow's area win survives both corrections.

Run with::

    python examples/energy_and_clocking.py
"""

from repro.circuits import build
from repro.pipeline import Pipeline
from repro.sfq import EnergyModel, estimate_energy
from repro.sfq.clock_tree import clock_overhead_ratio, plan_clock_network, total_area_with_clock

BENCHES = ("adder", "c6288", "voter")


def main() -> None:
    print(f"{'bench':<8} {'flow':>5} {'area':>8} {'+clock':>8} {'clk%':>6} "
          f"{'E/cyc aJ':>9} {'P@20GHz uW':>11} {'ERSFQ uW':>9}")
    for name in BENCHES:
        net = build(name, "ci")
        for label, use_t1 in (("4phi", False), ("T1", True)):
            res = Pipeline.standard(
                n_phases=4, use_t1=use_t1, verify="none"
            ).run(net)
            nl = res.netlist
            with_clock = total_area_with_clock(nl)
            rep = estimate_energy(nl, frequency_ghz=20.0)
            ersfq = estimate_energy(
                nl, frequency_ghz=20.0, model=EnergyModel(ersfq=True)
            )
            print(
                f"{name:<8} {label:>5} {res.area_jj:>8} {with_clock:>8} "
                f"{100 * clock_overhead_ratio(nl):>5.1f}% "
                f"{rep.dynamic_energy_per_cycle_j * 1e18:>9.1f} "
                f"{rep.total_power_w * 1e6:>11.2f} "
                f"{ersfq.total_power_w * 1e6:>9.2f}"
            )
        print()

    net = build("adder", "ci")
    res = Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(net)
    print("clock plan for the T1 adder:")
    print(" ", plan_clock_network(res.netlist).summary())
    print("\nnote: static bias power dominates conventional RSFQ "
          "(the paper's two-to-three-orders-of-magnitude claim assumes "
          "cryocooler overhead is already included); ERSFQ removes it.")


if __name__ == "__main__":
    main()

"""Pulse-level exploration of the T1 flip-flop (Fig. 1 of the paper).

Three views of the same cell:

1. the raw state machine driven by a pulse train (Fig. 1b);
2. the synchronous full-adder readout (Fig. 1c truth table);
3. a mapped-and-scheduled 1-bit T1 full adder streaming operands at one
   result per clock cycle through the pipeline simulator, including a
   demonstration of the data hazard that input staggering prevents.

Run with::

    python examples/pulse_simulation.py
"""

import itertools

from repro.errors import HazardError
from repro.network import Gate, LogicNetwork
from repro.pipeline import Pipeline
from repro.sfq import (
    PulseSimulator,
    T1CellState,
    full_adder_cycle,
    simulate_pulse_train,
    waveform_ascii,
)


def fig1b() -> None:
    print("=" * 64)
    print("Fig. 1b: T1 cell pulse response (cycles: a | a,b | a,b,c)")
    print("=" * 64)
    events = [
        (0, "T"), (3, "R"),
        (4, "T"), (5, "T"), (7, "R"),
        (8, "T"), (9, "T"), (10, "T"), (11, "R"),
    ]
    print(waveform_ascii(simulate_pulse_train(events)))
    print("""
reading: 1 pulse  -> S fires at the clock (sum=1, carry=0)
         2 pulses -> C* fires on the second toggle (carry=1), no S
         3 pulses -> C* fires AND S fires (sum=1, carry=1)""")


def fig1c_truth_table() -> None:
    print("=" * 64)
    print("Fig. 1c: T1 cell as a full adder (synchronous view)")
    print("=" * 64)
    print(" a b c | sum carry or3")
    for a, b, c in itertools.product((0, 1), repeat=3):
        s, cy, q = full_adder_cycle(a, b, c)
        print(f" {a} {b} {c} |  {s}    {cy}    {q}")


def hazard_demo() -> None:
    print("=" * 64)
    print("Why staggering matters: overlapping T pulses merge")
    print("=" * 64)
    cell = T1CellState()
    cell.pulse_t(5)
    try:
        cell.pulse_t(5)  # second operand arrives at the same moment
    except HazardError as exc:
        print(f"HazardError: {exc}")


def streaming_full_adder() -> None:
    print("=" * 64)
    print("Streaming a mapped T1 full adder (one result per cycle)")
    print("=" * 64)
    net = LogicNetwork("fa")
    a, b, c = (net.add_pi(x) for x in "abc")
    net.add_po(net.add_xor(a, b, c), "sum")
    net.add_po(net.add_maj3(a, b, c), "carry")
    res = Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(net)
    t1 = next(res.netlist.t1_cells())
    arrivals = [res.netlist.driver_cell(s).stage for s in t1.fanins]
    print(f"T1 cell at stage {t1.stage}; input arrival stages {arrivals} "
          "(pairwise distinct = eq. 5)")

    waves = [[a_, b_, c_] for a_, b_, c_ in itertools.product((0, 1), repeat=3)]
    out = PulseSimulator(res.netlist).run(waves)
    print(" wave  a b c | sum carry")
    for w, (a_, b_, c_) in enumerate(waves):
        s, cy = out.po_values[w]
        print(f"  {w:>3}  {a_} {b_} {c_} |  {s}    {cy}")


if __name__ == "__main__":
    fig1b()
    print()
    fig1c_truth_table()
    print()
    hazard_demo()
    print()
    streaming_full_adder()

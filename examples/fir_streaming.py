"""Streaming DSP on a gate-level-pipelined SFQ FIR filter.

The paper's intro motivates RSFQ for high-throughput stationary computing;
this example shows the end-to-end story on an application kernel:

1. build a 4-tap FIR datapath (shift-and-add constant multipliers — a
   full-adder fabric the T1 flow compresses heavily);
2. run the T1 flow, export the mapped design as SFQ structural Verilog;
3. stream a signal through the pulse-level simulator at one sample per
   clock cycle and compare against the software filter.

Run with::

    python examples/fir_streaming.py
"""

import random

from repro.circuits.fir import fir_filter, fir_reference
from repro.pipeline import Pipeline
from repro.io import dumps_sfq_verilog
from repro.sfq import PulseSimulator, estimate_energy

COEFFS = [3, 5, 7, 2]   # low-pass-ish integer taps
BITS = 8


def main() -> None:
    net = fir_filter(COEFFS, sample_bits=BITS)
    print(f"FIR datapath: {len(COEFFS)} taps x {BITS} bits, "
          f"{net.num_gates()} gates")

    base = Pipeline.standard(n_phases=4, use_t1=False, verify="none").run(net)
    res = Pipeline.standard(n_phases=4, use_t1=True, verify="cec").run(net)
    print(f"T1 cells used: {res.t1_used}; area {res.area_jj} JJ "
          f"(vs {base.area_jj} without T1 -> "
          f"{100 * (1 - res.area_jj / base.area_jj):.0f}% saved)")
    print(f"pipeline depth: {res.depth_cycles} cycles "
          f"(throughput: 1 sample/cycle regardless)")
    print(f"energy: {estimate_energy(res.netlist).summary()}")

    # streaming: a noisy step signal through the filter delay line
    rng = random.Random(42)
    signal = [0] * 4 + [200] * 8
    signal = [max(0, min(255, s + rng.randint(-9, 9))) for s in signal]
    window = [0, 0, 0, 0]
    stimulus, expected = [], []
    for sample in signal:
        window = [sample] + window[:-1]
        row = []
        for s in window:
            row.extend((s >> i) & 1 for i in range(BITS))
        stimulus.append(row)
        expected.append(fir_reference(window, COEFFS, BITS))

    out = PulseSimulator(res.netlist).run(stimulus)

    def val(bits):
        v = 0
        for i, b in enumerate(bits):
            v |= b << i
        return v

    print("\n cycle  input  filtered (hw)  filtered (sw)")
    for w, sample in enumerate(signal):
        hw = val(out.po_values[w])
        assert hw == expected[w]
        print(f" {w:>5}  {sample:>5}  {hw:>13}  {expected[w]:>13}")
    print("\nhardware == software for every sample; one result per cycle.")

    verilog = dumps_sfq_verilog(res.netlist)
    with open("fir_t1.v", "w") as fh:
        fh.write(verilog)
    print(f"wrote fir_t1.v ({len(verilog.splitlines())} lines of SFQ netlist)")


if __name__ == "__main__":
    main()

"""The per-node simulation loop — the grouped kernel's oracle."""

from typing import List, Sequence

from repro.network.gates import Gate, eval_gate, is_t1_tap
from repro.network.simulation import _seed_values


def simulate_nodewise(net, pi_values: Sequence[int], width: int) -> List[int]:
    """Per-node reference engine: one ``eval_gate`` dispatch per node.

    Bit-identical to :func:`repro.network.simulate`; the grouped kernel
    is fuzzed against it.
    """
    values, mask = _seed_values(net, pi_values, width)
    gates = net.gates
    fanins = net.fanins
    for node in net.topological_order():
        g = gates[node]
        if g in (Gate.CONST0, Gate.CONST1, Gate.PI):
            continue
        if g is Gate.T1_CELL:
            continue  # multi-output block; taps read its fanins directly
        if is_t1_tap(g):
            cell = fanins[node][0]
            fin_vals = [values[f] for f in fanins[cell]]
        else:
            fin_vals = [values[f] for f in fanins[node]]
        values[node] = eval_gate(g, fin_vals, mask)
    return values

"""The per-node simulation loop — the grouped kernel's oracle — and the
cone simulator the cut truth tables are checked against."""

from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.network.gates import Gate, eval_gate, is_t1_tap
from repro.network.logic_network import LogicNetwork
from repro.network.simulation import _seed_values, exhaustive_pi_patterns
from repro.network.truth_table import TruthTable


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


def node_function_on_leaves(
    net: LogicNetwork,
    root: int,
    leaves: Sequence[int],
    values_cache: Optional[Dict[int, int]] = None,
) -> TruthTable:
    """Truth table of *root* as a function of the given *leaves*.

    Simulates the cone between the leaves and the root; the cone must not
    reach a source node (PI/const) that is not listed as a leaf — constants
    are fine and keep their value.
    """
    k = len(leaves)
    width = 1 << k
    mask = (1 << width) - 1
    values: Dict[int, int] = {} if values_cache is None else values_cache
    patterns = exhaustive_pi_patterns(k)
    for i, leaf in enumerate(leaves):
        values[leaf] = patterns[i]
    values[0] = 0
    values[1] = mask

    gates = net.gates
    fanins = net.fanins

    def value_of(u: int) -> int:
        if u in values:
            return values[u]
        g = gates[u]
        if g is Gate.PI:
            raise SimulationError(
                f"cone of node {root} escapes leaves {tuple(leaves)} at PI {u}"
            )
        if is_t1_tap(g):
            cell = fanins[u][0]
            fins = fanins[cell]
        else:
            fins = fanins[u]
        # iterative DFS to avoid recursion limits on deep cones
        stack = [(u, g, fins, 0)]
        while stack:
            node, gate, nf, idx = stack[-1]
            advanced = False
            for j in range(idx, len(nf)):
                f = nf[j]
                if f not in values:
                    fg = gates[f]
                    if fg is Gate.PI:
                        raise SimulationError(
                            f"cone of node {root} escapes leaves at PI {f}"
                        )
                    if is_t1_tap(fg):
                        stack[-1] = (node, gate, nf, j)
                        stack.append((f, fg, fanins[fanins[f][0]], 0))
                    else:
                        stack[-1] = (node, gate, nf, j)
                        stack.append((f, fg, fanins[f], 0))
                    advanced = True
                    break
            if advanced:
                continue
            values[node] = eval_gate(gate, [values[f] for f in nf], mask)
            stack.pop()
        return values[u]

    return TruthTable(value_of(root) & mask, k)

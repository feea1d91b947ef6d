"""Network cleanup: dead-node sweeping, structural hashing, simplification.

``sweep`` compacts a network after substitutions (e.g. T1 replacement);
``strash`` additionally merges structurally identical nodes and folds
trivial gates (constant fanins, single-fanin AND/OR/XOR, double
negation).

Both are thin layers over the kernel since the incremental-network
refactor: ``sweep`` clones and calls
:meth:`~repro.network.logic_network.LogicNetwork.compact` (use
``compact`` directly for true in-place cleanup of a working copy), and
``strash`` replays the live nodes into a network constructed with
``hash_cons=True`` — the kernel's hash-consed ``add_gate`` performs the
folding and node merging that used to live here.  Id remaps are reported
as :class:`~repro.network.nodemap.NodeMap` events.
"""

from __future__ import annotations

from typing import Tuple

from repro.network.gates import (
    CODE_BY_GATE,
    GATES_BY_CODE,
    Gate,
    T1_TAP_CODES,
)
from repro.network.logic_network import CONST0, CONST1, LogicNetwork
from repro.network.nodemap import NodeMap
from repro.network.traversal import live_nodes

_C_PI = CODE_BY_GATE[Gate.PI]
_C_T1_CELL = CODE_BY_GATE[Gate.T1_CELL]


def sweep(net: LogicNetwork) -> Tuple[LogicNetwork, NodeMap]:
    """Copy only live nodes into a fresh network.

    Returns ``(new_net, old_to_new)``.  PIs are preserved in order even if
    unused; POs keep their order and names.  The input is left untouched;
    to clean a working copy without the clone, call ``net.compact()``.
    """
    out = net.clone()
    remap = out.compact()
    return out, remap


def strash(net: LogicNetwork) -> Tuple[LogicNetwork, NodeMap]:
    """Structural hashing + local simplification + dead-node removal.

    Commutative gates sort their fanins so permuted duplicates merge.
    NOT(NOT(x)) collapses.  Runs a :func:`sweep` pass implicitly (the
    output contains only nodes reachable from POs).
    """
    order = net.topological_order()
    live = live_nodes(net)
    codes = net.gate_codes
    fanins = net.fanins
    out = LogicNetwork(net.name, hash_cons=True)
    mapping = {CONST0: CONST0, CONST1: CONST1}

    for pi in net.pis:
        mapping[pi] = out.add_pi(net.get_name(pi))

    # the replay loop reads gate codes and fanin tuples directly — no
    # per-node Gate lookups on what is the inner loop of every rewrite
    # pass
    for node in order:
        if node in mapping or node not in live:
            continue
        c = codes[node]
        if c == _C_PI:
            continue
        fins = tuple([mapping[f] for f in fanins[node]])
        if c == _C_T1_CELL:
            mapping[node] = out.add_t1_cell(*fins)
        elif c in T1_TAP_CODES:
            mapping[node] = out.add_t1_tap(fins[0], GATES_BY_CODE[c])
        else:
            mapping[node] = out.add_gate(GATES_BY_CODE[c], fins)
    for po, name in zip(net.pos, net.po_names):
        out.add_po(mapping[po], name)
    final_map = out.compact()
    # downstream passes mutate the result in place (T1 substitution,
    # balancing); they expect plain append semantics, so consing stays a
    # construction-time tool
    out.set_hash_cons(False)
    return out, NodeMap(
        {k: final_map[v] for k, v in mapping.items() if v in final_map}
    )

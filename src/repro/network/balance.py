"""Associative tree balancing — a depth-optimisation pass.

In gate-level-pipelined SFQ, logic depth is not just latency: every level
of depth difference between reconvergent paths turns into path-balancing
DFFs.  Rebalancing associative chains (AND/OR/XOR trees built as linear
chains) therefore reduces *area*, not only delay.

The pass collects maximal single-fanout chains of one associative gate
kind and rebuilds them as depth-minimal trees whose arity matches the
target library (3-input AND/OR/XOR cells exist, so the trees are
ternary).  Leaf arrival levels are respected: a Huffman-style merge
always combines the currently-shallowest subtrees, which is optimal for
max-depth.

This is an *extension* beyond the paper (its flow maps the networks as
given); the ``bench_ablation_balance`` harness measures the interaction
with T1 detection.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.network.gates import CODE_BY_GATE, GATES_BY_CODE, Gate
from repro.network.logic_network import LogicNetwork
from repro.network.nodemap import NodeMap

_ASSOCIATIVE = (Gate.AND, Gate.OR, Gate.XOR)
_ASSOC_CODES = frozenset(CODE_BY_GATE[g] for g in _ASSOCIATIVE)


def _collect_chain(
    codes: bytearray,
    fanins: List[Tuple[int, ...]],
    root: int,
    code: int,
    fanout_counts: List[int],
) -> Tuple[List[int], List[int]]:
    """Maximal operator tree under *root*; returns (leaves, absorbed).

    Walks the network's gate codes and fanin tuples directly."""
    leaves: List[int] = []
    absorbed: List[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        for f in fanins[u]:
            if codes[f] == code and fanout_counts[f] == 1:
                absorbed.append(f)
                stack.append(f)
            else:
                leaves.append(f)
    return leaves, absorbed


def balance(
    net: LogicNetwork, max_arity: int = 3
) -> Tuple[LogicNetwork, NodeMap]:
    """Rebalance associative chains into depth-minimal trees.

    Returns ``(new_network, old_to_new map)``; the result is functionally
    equivalent (same PO functions) with depth less than or equal to the
    input's.
    """
    # all four analyses come from the kernel's maintained/cached indices —
    # no per-pass rescans
    order = net.topological_order()
    lvl = net.levels()
    fanout_counts = net.compute_fanout_counts()
    fanouts = net.compute_fanouts()
    codes = net.gate_codes
    fanins = net.fanins
    assoc_codes = _ASSOC_CODES
    out = net.clone()
    replaced: Dict[int, int] = {}

    for node in order:
        code = codes[node]
        if code not in assoc_codes:
            continue
        gate = GATES_BY_CODE[code]
        # only rebalance tree roots (their fanout is not absorbed upward)
        parent_absorbs = fanout_counts[node] == 1 and any(
            codes[p] == code for p in fanouts[node]
        )
        if parent_absorbs:
            continue
        leaves, absorbed = _collect_chain(
            codes, fanins, node, code, fanout_counts
        )
        if len(absorbed) < 1 or len(leaves) <= max_arity:
            continue
        # Huffman-style arity-k merge on (level, node); pad so that the
        # final merge is full (standard k-ary Huffman padding)
        resolved = [replaced.get(leaf, leaf) for leaf in leaves]
        heap = [(lvl[leaf], resolved[i]) for i, leaf in enumerate(leaves)]
        heapq.heapify(heap)
        k = max_arity
        while (len(heap) - 1) % (k - 1) != 0:
            k_eff = (len(heap) - 1) % (k - 1) + 1
            if k_eff < 2:
                break
            parts = [heapq.heappop(heap) for _ in range(k_eff)]
            merged = out.add_gate(gate, tuple(p[1] for p in parts))
            heapq.heappush(heap, (max(p[0] for p in parts) + 1, merged))
        while len(heap) > 1:
            take = min(k, len(heap))
            parts = [heapq.heappop(heap) for _ in range(take)]
            merged = out.add_gate(gate, tuple(p[1] for p in parts))
            heapq.heappush(heap, (max(p[0] for p in parts) + 1, merged))
        new_root = heap[0][1]
        out.substitute(node, new_root)
        replaced[node] = new_root

    # `out` is our private working copy: compact it in place instead of
    # paying sweep's second full clone
    mapping = out.compact()
    final = {}
    for old in range(net.num_nodes()):
        tgt = replaced.get(old, old)
        if tgt in mapping:
            final[old] = mapping[tgt]
    return out, NodeMap(final)

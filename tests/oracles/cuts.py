"""The seed per-candidate cut enumeration — the cut kernel's oracle.

Also the baseline the mapping and scale benchmarks measure the kernel
against.
"""

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.network.cuts import Cut, CutDatabase, leaf_signature
from repro.network.gates import Gate, eval_gate, is_t1_tap
from repro.network.traversal import topological_order
from repro.network.truth_table import TruthTable


def _compose_table(
    net,
    gate: Gate,
    fanin_cuts: Sequence[Cut],
    leaves: Tuple[int, ...],
) -> TruthTable:
    """Truth table of ``gate`` over *leaves* from its fanins' cut tables.

    The seed composition through :class:`TruthTable` methods, so the
    oracle exercises none of the kernel's int fast paths."""
    k = len(leaves)
    pos = {leaf: i for i, leaf in enumerate(leaves)}
    mask = (1 << (1 << k)) - 1
    fanin_tts = []
    for cut in fanin_cuts:
        positions = [pos[leaf] for leaf in cut.leaves]
        fanin_tts.append(cut.table.remap(positions, k).bits)
    return TruthTable(eval_gate(gate, fanin_tts, mask) & mask, k)


def enumerate_cuts_reference(
    net,
    k: int = 3,
    cuts_per_node: int = 8,
    include_trivial: bool = True,
    order: Optional[Sequence[int]] = None,
) -> CutDatabase:
    """The seed per-candidate enumeration — the kernel's differential oracle.

    Allocates a frozen dataclass pair per candidate, walks the tuple
    views and composes tables through :class:`TruthTable` methods;
    results are bit-identical to :func:`repro.network.enumerate_cuts`.
    """
    if k < 1:
        raise NetworkError("cut size k must be >= 1")
    if order is None:
        order = topological_order(net)
    n = net.num_nodes()
    db: List[List[Cut]] = [[] for _ in range(n)]
    gates = net.gates
    fanins = net.fanins
    tt_var0 = TruthTable.var(0, 1)

    for node in order:
        g = gates[node]
        if g in (Gate.CONST0, Gate.CONST1):
            db[node] = [Cut((), TruthTable.const(g is Gate.CONST1, 0))]
            continue
        if g is Gate.PI or g is Gate.T1_CELL or is_t1_tap(g):
            db[node] = [Cut((node,), tt_var0)]
            continue

        fins = fanins[node]
        fanin_cut_sets = [db[f] for f in fins]

        chosen: Dict[Tuple[int, ...], Tuple[Cut, ...]] = {}
        for combo in itertools.product(*fanin_cut_sets):
            leaves_set = set()
            ok = True
            for c in combo:
                leaves_set.update(c.leaves)
                if len(leaves_set) > k:
                    ok = False
                    break
            if not ok:
                continue
            key = tuple(sorted(leaves_set))
            if key not in chosen:
                chosen[key] = combo

        keys = sorted(chosen.keys(), key=lambda t: (len(t), t))
        kept: List[Tuple[Tuple[int, ...], set, int]] = []
        for key in keys:
            sig = leaf_signature(key)
            ks = None
            dominated = False
            for _prev_key, prev_set, prev_sig in kept:
                if prev_sig & ~sig:
                    continue
                if ks is None:
                    ks = set(key)
                if prev_set <= ks:
                    dominated = True
                    break
            if dominated:
                continue
            kept.append((key, set(key), sig))
        kept = kept[:cuts_per_node]

        result = [
            Cut(key, _compose_table(net, g, chosen[key], key), sig)
            for key, _ks, sig in kept
        ]
        if include_trivial:
            result.append(Cut((node,), tt_var0))
        db[node] = result

    rstart: List[int] = []
    rcount: List[int] = []
    row_leaves: List[Tuple[int, ...]] = []
    row_bits: List[int] = []
    for node_cuts in db:
        rstart.append(len(row_bits))
        rcount.append(len(node_cuts))
        for c in node_cuts:
            row_leaves.append(c.leaves)
            row_bits.append(c.table.bits)
    return CutDatabase(
        rstart,
        rcount,
        row_leaves,
        row_bits,
        k,
        epoch=net.epoch,
        cuts_per_node=cuts_per_node,
        include_trivial=include_trivial,
    )

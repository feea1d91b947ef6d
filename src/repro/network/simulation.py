"""Bit-parallel simulation of logic networks.

Each node value is a Python integer used as a *W*-bit vector: bit ``j`` is
the node's value under input pattern ``j``.  Python's big integers make
this both simple and fast (a single ``&`` simulates W patterns at once),
and exhaustive simulation of a k-input network is just ``W = 2**k``.

:func:`simulate` is the **gate-grouped kernel**: nodes are bucketed by
(topological level, gate kind) into a schedule of flat ``array('q')``
lanes, and each bucket runs one tight zip loop of a single Boolean
operation over the big-int value list.  Within a level every node
depends only on strictly lower levels (T1 taps read their *cell's*
fanins, which sit below the cell's level), so buckets at the same
level are order-independent.  The schedule is cached on the network
per mutation epoch, so the multi-round CEC and signature engines pay
the grouping once and then run dispatch-free rounds.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.network.gates import (
    CODE_BY_GATE,
    GATES_BY_CODE,
    Gate,
    is_t1_tap,
)
from repro.network.logic_network import LogicNetwork
from repro.network.truth_table import TruthTable

# -- gate-grouped schedule ---------------------------------------------------
#
# Every single-output node kind reduces to a (family, inverted) pair over
# its evaluation fanins; T1 taps evaluate their family over the *cell's*
# three fanins.  CONST*/PI/T1_CELL produce no lane (sources are seeded,
# the cell is a multi-output block whose taps carry the values).

_FAMILY_BY_GATE: Dict[Gate, Tuple[str, bool]] = {
    Gate.BUF: ("copy", False),
    Gate.NOT: ("copy", True),
    Gate.AND: ("and", False),
    Gate.NAND: ("and", True),
    Gate.OR: ("or", False),
    Gate.NOR: ("or", True),
    Gate.XOR: ("xor", False),
    Gate.XNOR: ("xor", True),
    Gate.MAJ3: ("maj", False),
    Gate.T1_S: ("xor", False),
    Gate.T1_C: ("maj", False),
    Gate.T1_Q: ("or", False),
    Gate.T1_CN: ("maj", True),
    Gate.T1_QN: ("or", True),
}
_FAMILY_BY_CODE = tuple(_FAMILY_BY_GATE.get(g) for g in GATES_BY_CODE)
_TAP_CODES = frozenset(CODE_BY_GATE[g] for g in _FAMILY_BY_GATE if is_t1_tap(g))


def _r_copy(values, mask, tg, a):
    for t, x in zip(tg, a):
        values[t] = values[x]


def _r_not(values, mask, tg, a):
    for t, x in zip(tg, a):
        values[t] = values[x] ^ mask


def _r_and2(values, mask, tg, a, b):
    for t, x, y in zip(tg, a, b):
        values[t] = values[x] & values[y]


def _r_nand2(values, mask, tg, a, b):
    for t, x, y in zip(tg, a, b):
        values[t] = (values[x] & values[y]) ^ mask


def _r_or2(values, mask, tg, a, b):
    for t, x, y in zip(tg, a, b):
        values[t] = values[x] | values[y]


def _r_nor2(values, mask, tg, a, b):
    for t, x, y in zip(tg, a, b):
        values[t] = (values[x] | values[y]) ^ mask


def _r_xor2(values, mask, tg, a, b):
    for t, x, y in zip(tg, a, b):
        values[t] = values[x] ^ values[y]


def _r_xnor2(values, mask, tg, a, b):
    for t, x, y in zip(tg, a, b):
        values[t] = values[x] ^ values[y] ^ mask


def _r_and3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        values[t] = values[x] & values[y] & values[z]


def _r_nand3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        values[t] = (values[x] & values[y] & values[z]) ^ mask


def _r_or3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        values[t] = values[x] | values[y] | values[z]


def _r_nor3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        values[t] = (values[x] | values[y] | values[z]) ^ mask


def _r_xor3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        values[t] = values[x] ^ values[y] ^ values[z]


def _r_xnor3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        values[t] = values[x] ^ values[y] ^ values[z] ^ mask


def _r_maj3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        va = values[x]
        vb = values[y]
        vc = values[z]
        values[t] = (va & vb) | (va & vc) | (vb & vc)


def _r_nmaj3(values, mask, tg, a, b, c):
    for t, x, y, z in zip(tg, a, b, c):
        va = values[x]
        vb = values[y]
        vc = values[z]
        values[t] = ((va & vb) | (va & vc) | (vb & vc)) ^ mask


def _r_andv(values, mask, tg, fins):
    for t, nf in zip(tg, fins):
        acc = values[nf[0]]
        for f in nf[1:]:
            acc &= values[f]
        values[t] = acc


def _r_nandv(values, mask, tg, fins):
    for t, nf in zip(tg, fins):
        acc = values[nf[0]]
        for f in nf[1:]:
            acc &= values[f]
        values[t] = acc ^ mask


def _r_orv(values, mask, tg, fins):
    for t, nf in zip(tg, fins):
        acc = values[nf[0]]
        for f in nf[1:]:
            acc |= values[f]
        values[t] = acc


def _r_norv(values, mask, tg, fins):
    for t, nf in zip(tg, fins):
        acc = values[nf[0]]
        for f in nf[1:]:
            acc |= values[f]
        values[t] = acc ^ mask


def _r_xorv(values, mask, tg, fins):
    for t, nf in zip(tg, fins):
        acc = values[nf[0]]
        for f in nf[1:]:
            acc ^= values[f]
        values[t] = acc


def _r_xnorv(values, mask, tg, fins):
    for t, nf in zip(tg, fins):
        acc = values[nf[0]]
        for f in nf[1:]:
            acc ^= values[f]
        values[t] = acc ^ mask


#: (family, inverted, arity class) -> lane runner; arity class 0 = variadic
_RUNNERS = {
    ("copy", False, 1): _r_copy,
    ("copy", True, 1): _r_not,
    ("and", False, 2): _r_and2,
    ("and", True, 2): _r_nand2,
    ("or", False, 2): _r_or2,
    ("or", True, 2): _r_nor2,
    ("xor", False, 2): _r_xor2,
    ("xor", True, 2): _r_xnor2,
    ("and", False, 3): _r_and3,
    ("and", True, 3): _r_nand3,
    ("or", False, 3): _r_or3,
    ("or", True, 3): _r_nor3,
    ("xor", False, 3): _r_xor3,
    ("xor", True, 3): _r_xnor3,
    ("maj", False, 3): _r_maj3,
    ("maj", True, 3): _r_nmaj3,
    ("and", False, 0): _r_andv,
    ("and", True, 0): _r_nandv,
    ("or", False, 0): _r_orv,
    ("or", True, 0): _r_norv,
    ("xor", False, 0): _r_xorv,
    ("xor", True, 0): _r_xnorv,
}


def _build_schedule(net: LogicNetwork) -> List[tuple]:
    """Bucket all evaluable nodes into (level, gate-kind) lanes.

    Returns a list of ``(runner, columns)`` pairs in ascending level
    order; each runner performs one Boolean operation over flat
    ``array('q')`` target/fanin columns, read from the network's raw
    ``gate_codes`` / ``fanins``.
    """
    order = net.topological_order()
    lvl = net.levels()
    codes = net.gate_codes
    fanins = net.fanins
    family_by_code = _FAMILY_BY_CODE
    tap_codes = _TAP_CODES
    groups: Dict[tuple, tuple] = {}
    for node in order:
        c = codes[node]
        fam = family_by_code[c]
        if fam is None:
            continue  # const/PI (seeded) or T1_CELL (taps carry values)
        family, inverted = fam
        fins = fanins[node]
        if c in tap_codes:  # taps evaluate over the cell's fanins
            fins = fanins[fins[0]]
        d = len(fins)
        aclass = d if d <= 3 else 0
        key = (lvl[node], family, inverted, aclass)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = tuple([] for _ in range((aclass or 1) + 1))
        entry[0].append(node)
        if aclass:
            for i, f in enumerate(fins):
                entry[i + 1].append(f)
        else:
            entry[1].append(fins)
    schedule: List[tuple] = []
    for key in sorted(groups):
        _level, family, inverted, aclass = key
        entry = groups[key]
        if aclass:
            cols = tuple(array("q", col) for col in entry)
        else:
            cols = (array("q", entry[0]), entry[1])
        schedule.append((_RUNNERS[(family, inverted, aclass)], cols))
    return schedule


def _sim_schedule(net: LogicNetwork) -> List[tuple]:
    """The network's grouped schedule, cached per mutation epoch."""
    if (
        getattr(net, "_sim_schedule", None) is not None
        and getattr(net, "_sim_schedule_epoch", -1) == net.epoch
    ):
        return net._sim_schedule
    schedule = _build_schedule(net)
    net._sim_schedule = schedule
    net._sim_schedule_epoch = net.epoch
    return schedule


def _seed_values(
    net: LogicNetwork, pi_values: Sequence[int], width: int
) -> Tuple[List[int], int]:
    if len(pi_values) != len(net.pis):
        raise SimulationError(
            f"expected {len(net.pis)} PI vectors, got {len(pi_values)}"
        )
    if width <= 0:
        raise SimulationError("width must be positive")
    mask = (1 << width) - 1
    values: List[int] = [0] * net.num_nodes()
    values[1] = mask
    for pi, v in zip(net.pis, pi_values):
        values[pi] = v & mask
    return values, mask


def simulate(
    net: LogicNetwork,
    pi_values: Sequence[int],
    width: int,
) -> List[int]:
    """Simulate the whole network with the gate-grouped kernel.

    Parameters
    ----------
    pi_values:
        One W-bit integer per primary input, in ``net.pis`` order.
    width:
        Number of patterns W (defines the bit mask).

    Returns the list of node values (indexed by node id).
    """
    values, mask = _seed_values(net, pi_values, width)
    for runner, cols in _sim_schedule(net):
        runner(values, mask, *cols)
    return values


def simulate_pos(
    net: LogicNetwork,
    pi_values: Sequence[int],
    width: int,
) -> List[int]:
    """Like :func:`simulate` but returns only the PO vectors."""
    values = simulate(net, pi_values, width)
    return [values[po] for po in net.pos]


def exhaustive_pi_patterns(num_pis: int) -> List[int]:
    """The canonical exhaustive stimulus: PI i carries its projection table."""
    width = 1 << num_pis
    mask = (1 << width) - 1
    out = []
    for i in range(num_pis):
        block = 1 << i
        pattern = ((1 << block) - 1) << block
        word = 0
        shift = 0
        while shift < width:
            word |= pattern << shift
            shift += 2 * block
        out.append(word & mask)
    return out


def exhaustive_pi_patterns_chunk(
    num_pis: int, chunk_pis: int, chunk_index: int
) -> List[int]:
    """One chunk of the exhaustive stimulus: rows
    ``[chunk_index * 2**chunk_pis, (chunk_index + 1) * 2**chunk_pis)``.

    Splitting the ``2**num_pis`` exhaustive patterns into ``2**chunk_pis``
    -wide chunks bounds the peak big-int width at ``2**chunk_pis`` bits:
    within a chunk, PI ``i < chunk_pis`` carries its ordinary projection
    word and PI ``i >= chunk_pis`` is constant (bit ``i`` of the chunk's
    starting row).  Chunk 0 of a single-chunk split reproduces
    :func:`exhaustive_pi_patterns` exactly.
    """
    if chunk_pis > num_pis:
        chunk_pis = num_pis
    num_chunks = 1 << (num_pis - chunk_pis)
    if not 0 <= chunk_index < num_chunks:
        raise SimulationError(
            f"chunk {chunk_index} out of range for {num_chunks} chunks"
        )
    width = 1 << chunk_pis
    mask = (1 << width) - 1
    start = chunk_index << chunk_pis
    low = exhaustive_pi_patterns(chunk_pis)
    out = list(low)
    for i in range(chunk_pis, num_pis):
        out.append(mask if (start >> i) & 1 else 0)
    return out


def simulate_exhaustive(net: LogicNetwork) -> List[TruthTable]:
    """Truth table of every PO over all PIs (only for small PI counts)."""
    k = len(net.pis)
    if k > 20:
        raise SimulationError(f"{k} inputs is too many for exhaustive simulation")
    pos = simulate_pos(net, exhaustive_pi_patterns(k), 1 << k)
    return [TruthTable(v, k) for v in pos]


def random_patterns(num_pis: int, width: int, seed: int = 0) -> List[int]:
    """Deterministic random W-bit stimulus, one word per PI."""
    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(num_pis)]


def simulate_words(
    net: LogicNetwork, words: Iterable[Sequence[int]]
) -> List[List[int]]:
    """Simulate integer input rows (one assignment per row).

    Each row assigns one bit per PI; rows are packed into a single
    bit-parallel run.  Returns, per row, the list of PO bits.
    """
    rows = [tuple(r) for r in words]
    if not rows:
        return []
    npi = len(net.pis)
    for r in rows:
        if len(r) != npi:
            raise SimulationError("row width does not match PI count")
    width = len(rows)
    pi_vecs = [0] * npi
    for j, row in enumerate(rows):
        for i, bit in enumerate(row):
            if bit:
                pi_vecs[i] |= 1 << j
    po_vecs = simulate_pos(net, pi_vecs, width)
    return [
        [(v >> j) & 1 for v in po_vecs]
        for j in range(width)
    ]


def eval_int(
    net: LogicNetwork,
    assignment: Dict[int, int] | Sequence[int],
) -> Dict[int, int]:
    """Single-pattern evaluation; returns {po_node: bit}.

    ``assignment`` is either a dict {pi_node: bit} or a sequence aligned
    with ``net.pis``.
    """
    if isinstance(assignment, dict):
        row = [assignment[pi] for pi in net.pis]
    else:
        row = list(assignment)
    bits = simulate_words(net, [row])[0]
    return {po: bits[i] for i, po in enumerate(net.pos)}

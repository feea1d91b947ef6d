"""The seed T1 candidate search — the matcher kernel's oracle."""

from typing import Dict, List, Optional, Set, Tuple

from oracles.cuts import enumerate_cuts_reference
from repro.core.t1_detection import T1Candidate, _t1_area, node_area
from repro.core.t1_matching import OutputMatch, match_t1_output
from repro.network.cuts import CutDatabase
from repro.network.gates import Gate, is_t1_tap
from repro.network.logic_network import LogicNetwork
from repro.network.mffc import MffcComputer
from repro.network.truth_table import TruthTable
from repro.sfq.cell_library import CellLibrary, default_library


def find_candidates_reference(
    net: LogicNetwork,
    library: Optional[CellLibrary] = None,
    cuts_per_node: int = 8,
    min_outputs: int = 2,
    max_outputs: int = 5,
    cut_db: Optional[CutDatabase] = None,
) -> List[T1Candidate]:
    """The seed candidate search.

    Rebuilds a dict-of-lists per group, probes all eight polarities per
    node through :func:`match_t1_output` and recomputes MFFC areas from
    scratch; results are bit-identical to
    :func:`repro.core.t1_detection.find_candidates`.
    """
    library = library or default_library()
    if cut_db is None:
        cut_db = enumerate_cuts_reference(net, k=3, cuts_per_node=cuts_per_node)

    groups: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}
    for node in net.nodes():
        if not net.is_logic(node):
            continue
        g = net.gates[node]
        if g is Gate.T1_CELL or is_t1_tap(g):
            continue
        for cut in cut_db[node]:
            if len(cut.leaves) != 3 or node in cut.leaves:
                continue
            groups.setdefault(tuple(cut.leaves), []).append(
                (node, cut.table.bits)
            )

    mffc = MffcComputer(net)
    candidates: List[T1Candidate] = []
    for leaves, members in groups.items():
        seen_nodes: Set[int] = set()
        uniq: List[Tuple[int, int]] = []
        for node, bits in members:
            if node not in seen_nodes:
                seen_nodes.add(node)
                uniq.append((node, bits))
        best: Optional[T1Candidate] = None
        for polarity in range(8):
            matched: List[Tuple[int, OutputMatch]] = []
            for node, bits in uniq:
                m = match_t1_output(TruthTable(bits, 3), polarity)
                if m is not None:
                    matched.append((node, m))
            if len(matched) < min_outputs:
                continue
            if len(matched) > max_outputs:
                matched.sort(
                    key=lambda nm: -sum(
                        node_area(net, x, library)
                        for x in mffc.mffc(nm[0], leaves)
                    )
                )
                matched = matched[:max_outputs]
            roots = [n for n, _m in matched]
            cone = mffc.mffc_union(roots, boundary=leaves)
            saved = sum(node_area(net, x, library) for x in cone)
            cost = _t1_area(polarity, matched, library)
            gain = saved - cost
            if gain <= 0:
                continue
            cand = T1Candidate(
                leaves=leaves,
                polarity=polarity,
                matches=tuple(matched),
                cone=cone,
                gain=gain,
            )
            if best is None or cand.gain > best.gain:
                best = cand
        if best is not None:
            candidates.append(best)
    candidates.sort(key=lambda c: (-c.gain, c.leaves))
    return candidates

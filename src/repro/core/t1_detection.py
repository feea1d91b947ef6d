"""T1-FF detection and substitution (§II-A of the paper).

Pipeline:

1. enumerate 3-feasible priority cuts (ref. [8]);
2. group cuts by their leaf triple; inside a group, Boolean-match every
   node's cut function against the five T1 outputs for each of the eight
   shared input polarities;
3. for each group pick the polarity with the best area gain

       ΔA = Σ A(MFFC(u_i))  −  A_T1(C)            (eq. 2)

   where the MFFC union is computed jointly (no double counting of shared
   cone nodes) with the leaves as boundary, and A_T1 adds a clocked
   inverter per negated input;
4. greedy conflict resolution by descending ΔA: a group is *used* when
   its cone is disjoint from every previously applied cone and its leaves
   are still alive — this yields the paper's "found" vs "used" columns;
5. substitution: a T1 block (cell + taps, negated taps for C*/Q*) replaces
   the matched nodes; dead cones are swept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.network.cuts import CutDatabase, cached_cut_database
from repro.network.gates import (
    CODE_BY_GATE,
    Gate,
    SOURCE_CODES,
    T1_TAP_CODES,
    is_t1_tap,
)
from repro.network.logic_network import LogicNetwork
from repro.network.mffc import MffcComputer
from repro.network.nodemap import NodeMap
from repro.sfq.cell_library import CellLibrary, default_library
from repro.core.t1_matching import (
    T1_OUTPUTS,
    OutputMatch,
    polarity_bits,
    t1_match_table,
)


@dataclass
class T1Candidate:
    """One replaceable group: a leaf triple plus matched nodes."""

    leaves: Tuple[int, int, int]
    polarity: int
    matches: Tuple[Tuple[int, OutputMatch], ...]  # (node, match)
    cone: Set[int]
    gain: int

    @property
    def roots(self) -> Tuple[int, ...]:
        return tuple(node for node, _m in self.matches)


@dataclass
class DetectionResult:
    """Outcome of a detection pass."""

    network: LogicNetwork
    found: int
    used: int
    candidates: List[T1Candidate] = field(default_factory=list)
    applied: List[T1Candidate] = field(default_factory=list)


def node_area(net: LogicNetwork, node: int, library: CellLibrary) -> int:
    """Library area of one logic node (0 for PIs, constants, taps, BUFs).

    Gates wider than any library cell (possible when detection runs on an
    undecomposed network) are costed as the balanced tree the mapper would
    build: one widest cell per (max_arity − 1) inputs absorbed.
    """
    g = net.gates[node]
    if g in (Gate.CONST0, Gate.CONST1, Gate.PI, Gate.BUF):
        return 0
    if g is Gate.T1_CELL:
        return library.t1.jj_count
    if is_t1_tap(g):
        return 0
    arity = len(net.fanins[node])
    if library.has_cell(g, arity):
        return library.gate_area(g, arity)
    import math

    base = {Gate.NAND: Gate.AND, Gate.NOR: Gate.OR, Gate.XNOR: Gate.XOR}.get(g, g)
    widest = library.max_arity(base)
    cells = math.ceil((arity - 1) / (widest - 1))
    est = cells * library.gate_area(base, widest)
    if g is not base:
        est += library.gate_area(Gate.NOT, 1)
    return est


def _t1_area(polarity: int, matches: Sequence[Tuple[int, OutputMatch]],
             library: CellLibrary) -> int:
    """A_T1(C): cell + input inverters + output inverters (eq. 2)."""
    area = library.t1.jj_count
    not_area = library.gate_area(Gate.NOT, 1)
    area += sum(polarity_bits(polarity)) * not_area
    area += sum(1 for _n, m in matches if m.negated) * not_area
    return area


#: roots one T1 cell can serve: one per output
MAX_OUTPUTS = len(T1_OUTPUTS)
#: roots a group needs before a T1 cell may replace it
MIN_OUTPUTS = 2

#: nodes the matcher never scans: sources, T1 cells, taps
_SKIP_MATCH_CODES = frozenset(
    SOURCE_CODES | {CODE_BY_GATE[Gate.T1_CELL]} | T1_TAP_CODES
)


def find_candidates(
    net: LogicNetwork,
    library: Optional[CellLibrary] = None,
    cuts_per_node: int = 8,
    cut_db: Optional[CutDatabase] = None,
) -> List[T1Candidate]:
    """All positive-gain candidate groups (the paper's "found" set).

    A group needs at least :data:`MIN_OUTPUTS` roots and keeps at most
    :data:`MAX_OUTPUTS`, those with the largest individual MFFC area.

    When *cut_db* is omitted the enumeration is shared through
    :func:`~repro.network.cuts.cached_cut_database`: repeated detection
    over the same (unmutated) network reuses one database.
    """
    library = library or default_library()
    if cut_db is None:
        cut_db = cached_cut_database(net, k=3, cuts_per_node=cuts_per_node)

    # group matchable (node, matches) rows by leaf triple.  The complete
    # inverse table maps a cut function to every (polarity, output) match
    # in one lookup, so unmatchable cuts cost one dict miss and the
    # 8-polarity probe loop of the seed is gone.  Parallel arrays avoid
    # rebuilding a dict-of-lists per group.
    match_table = t1_match_table()
    group_of: Dict[Tuple[int, int, int], int] = {}
    group_leaves: List[Tuple[int, int, int]] = []
    # per group, per member: (node, ((polarity, match), ...))
    group_members: List[List[Tuple[int, Tuple[Tuple[int, OutputMatch], ...]]]] = []
    codes = net.gate_codes
    skip_codes = _SKIP_MATCH_CODES
    row_leaves, row_bits = cut_db.raw_rows()
    for node in net.nodes():
        if codes[node] in skip_codes:
            continue
        # kernel-enumerated databases hold distinct leaf tuples per node,
        # but hand-built ones may not — a node must join a group once
        seen_leaves: Set[Tuple[int, ...]] = set()
        for ri in cut_db.node_rows(node):
            leaves = row_leaves[ri]
            if len(leaves) != 3 or node in leaves:
                continue
            if leaves in seen_leaves:
                continue
            seen_leaves.add(leaves)
            pms = match_table.get(row_bits[ri])
            if pms is None:
                continue
            gi = group_of.get(leaves)
            if gi is None:
                gi = len(group_leaves)
                group_of[leaves] = gi
                group_leaves.append(leaves)
                group_members.append([])
            group_members[gi].append((node, pms))

    # one MFFC engine and one area memo serve every group (the network
    # is frozen during detection, so per-node areas never change)
    mffc = MffcComputer(net)
    area_memo: Dict[int, int] = {}

    def area_of(x: int) -> int:
        a = area_memo.get(x)
        if a is None:
            a = node_area(net, x, library)
            area_memo[x] = a
        return a

    candidates: List[T1Candidate] = []
    for gi, leaves in enumerate(group_leaves):
        members = group_members[gi]
        # bucket the precomputed matches by polarity (member order is
        # node order, as in the seed's per-polarity scan)
        per_polarity: List[List[Tuple[int, OutputMatch]]] = [
            [] for _ in range(8)
        ]
        for node, pms in members:
            for polarity, m in pms:
                per_polarity[polarity].append((node, m))
        best: Optional[T1Candidate] = None
        indiv_area: Dict[int, int] = {}
        cone_memo: Dict[Tuple[int, ...], Tuple[Set[int], int]] = {}
        for polarity in range(8):
            matched = per_polarity[polarity]
            if len(matched) < MIN_OUTPUTS:
                continue
            if len(matched) > MAX_OUTPUTS:
                # keep the most valuable roots (largest individual MFFC)
                for node, _m in matched:
                    if node not in indiv_area:
                        indiv_area[node] = sum(
                            area_of(x) for x in mffc.mffc(node, leaves)
                        )
                matched = sorted(matched, key=lambda nm: -indiv_area[nm[0]])
                matched = matched[:MAX_OUTPUTS]
            roots = tuple(n for n, _m in matched)
            cached = cone_memo.get(roots)
            if cached is None:
                cone = mffc.mffc_union(roots, boundary=leaves)
                saved = sum(area_of(x) for x in cone)
                cone_memo[roots] = (cone, saved)
            else:
                cone, saved = cached
            cost = _t1_area(polarity, matched, library)
            gain = saved - cost
            if gain <= 0:
                continue
            if best is None or gain > best.gain:
                best = T1Candidate(
                    leaves=leaves,
                    polarity=polarity,
                    matches=tuple(matched),
                    cone=cone,
                    gain=gain,
                )
        if best is not None:
            candidates.append(best)
    candidates.sort(key=lambda c: (-c.gain, c.leaves))
    return candidates


def select_candidates(candidates: Sequence[T1Candidate]) -> List[T1Candidate]:
    """Greedy conflict resolution (the paper's "used" set).

    A candidate is applied when (a) no node of its cone was claimed by an
    earlier (higher-gain) candidate and (b) none of its leaves is an
    *interior* node of an earlier cone (roots are fine — they get taps).

    The claimed / removed-interior state is maintained incrementally
    across the scan and probed with early-exit disjointness tests — no
    per-candidate rescan of previously applied cones, no intermediate
    intersection sets.
    """
    claimed: Set[int] = set()
    removed_interior: Set[int] = set()
    out: List[T1Candidate] = []
    for cand in candidates:
        if not claimed.isdisjoint(cand.cone):
            continue
        if not removed_interior.isdisjoint(cand.leaves):
            continue
        out.append(cand)
        claimed.update(cand.cone)
        removed_interior.update(cand.cone.difference(cand.roots))
    return out


def apply_candidates(
    net: LogicNetwork, selected: Sequence[T1Candidate]
) -> Tuple[LogicNetwork, NodeMap]:
    """Substitute every selected group by a T1 block and compact in place.

    Each ``substitute`` costs O(fanout) via the kernel's maintained fanout
    index, and the dead cones are removed by one in-place ``compact`` that
    emits the ``old_to_new`` id remap.  Returns ``(new_network, remap)``.
    """
    work = net.clone()
    # a root replaced by an earlier group may serve as a leaf of a later
    # one; route such leaves to the live tap instead of the dead node
    repl: Dict[int, int] = {}

    def resolve(node: int) -> int:
        while node in repl:
            node = repl[node]
        return node

    for cand in selected:
        a, b, c = (resolve(leaf) for leaf in cand.leaves)
        na, nb, nc = polarity_bits(cand.polarity)
        ia = work.add_not(a) if na else a
        ib = work.add_not(b) if nb else b
        ic = work.add_not(c) if nc else c
        cell = work.add_t1_cell(ia, ib, ic)
        taps: Dict[Gate, int] = {}
        for node, match in cand.matches:
            tap = taps.get(match.tap_gate)
            if tap is None:
                tap = work.add_t1_tap(cell, match.tap_gate)
                taps[match.tap_gate] = tap
            work.substitute(node, tap)
            repl[node] = tap
    remap = work.compact()
    return work, remap


def detect_and_replace(
    net: LogicNetwork,
    library: Optional[CellLibrary] = None,
    cuts_per_node: int = 8,
) -> DetectionResult:
    """Full §II-A pass: find, select, substitute."""
    library = library or default_library()
    candidates = find_candidates(
        net, library=library, cuts_per_node=cuts_per_node
    )
    selected = select_candidates(candidates)
    new_net, _mapping = apply_candidates(net, selected)
    return DetectionResult(
        network=new_net,
        found=len(candidates),
        used=len(selected),
        candidates=list(candidates),
        applied=selected,
    )

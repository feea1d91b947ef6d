"""Network transforms: AIG normal form and cut-based refactoring.

Two passes that mimic what a logic-synthesis frontend (ABC / mockturtle)
does to a netlist before technology mapping:

* :func:`to_aig_form` — decompose every gate into 2-input ANDs and
  inverters (the And-Inverter-Graph normal form) with structural hashing.
  The EPFL/ISCAS benchmarks the paper evaluates are distributed and
  optimised in this form; converting our structural generators to it
  reproduces the paper's *starting point* (see ablation A5: T1 detection
  finds different group counts on AIG-form networks, which explains the
  found/used differences against the published table).
* :func:`refactor` — classic MFFC refactoring: for each node, compute the
  function of its largest ≤ k-leaf cut, resynthesise it as a
  Minato-Morreale ISOP (AND-OR-NOT), and accept when that is smaller
  than the cone it replaces.  Equivalence-preserving by construction;
  validated by CEC in the tests.

:func:`refactor` is the *rewrite kernel*: one topological sweep over
the network.  Every node's candidate rewrites are scored up front — cut
function, memoised ISOP cover (:func:`~repro.network.isop.cached_sop`)
and gain — then the sweep visits the scored nodes in topological order
and applies each node's best candidate whose leaves and cone avoid the
nodes claimed by earlier acceptances.  The tests pin it
**bit-identical** to the seed single sweep, which scored every cut
against the live claimed-set: identical accepted rewrites, identical
strashed result.  Iterated refactoring is repeated calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.cleanup import strash
from repro.network.cuts import cached_cut_database
from repro.network.gates import CODE_BY_GATE, Gate, T1_TAP_CODES, is_t1_tap
from repro.network.isop import cached_sop_bits, synthesize_sop
from repro.network.logic_network import CONST0, CONST1, LogicNetwork
from repro.network.mffc import MffcComputer


def to_aig_form(net: LogicNetwork) -> LogicNetwork:
    """Decompose into 2-input AND + NOT (structural AIG) and strash."""
    out = LogicNetwork(net.name)
    mapping: Dict[int, int] = {CONST0: CONST0, CONST1: CONST1}
    for pi in net.pis:
        mapping[pi] = out.add_pi(net.get_name(pi))

    def aig_and(a: int, b: int) -> int:
        return out.add_and(a, b)

    def aig_or(a: int, b: int) -> int:
        return out.add_not(out.add_and(out.add_not(a), out.add_not(b)))

    def aig_xor(a: int, b: int) -> int:
        na, nb = out.add_not(a), out.add_not(b)
        return aig_or(out.add_and(a, nb), out.add_and(na, b))

    def reduce_pairs(fn, values: List[int]) -> int:
        acc = values[0]
        for v in values[1:]:
            acc = fn(acc, v)
        return acc

    for node in net.topological_order():
        if node in mapping:
            continue
        g = net.gates[node]
        if g is Gate.PI:
            continue
        fins = [mapping[f] for f in net.fanins[node]]
        if g is Gate.T1_CELL:
            mapping[node] = out.add_t1_cell(*fins)
        elif is_t1_tap(g):
            mapping[node] = out.add_t1_tap(fins[0], g)
        elif g is Gate.BUF:
            mapping[node] = fins[0]
        elif g is Gate.NOT:
            mapping[node] = out.add_not(fins[0])
        elif g is Gate.AND:
            mapping[node] = reduce_pairs(aig_and, fins)
        elif g is Gate.NAND:
            mapping[node] = out.add_not(reduce_pairs(aig_and, fins))
        elif g is Gate.OR:
            mapping[node] = reduce_pairs(aig_or, fins)
        elif g is Gate.NOR:
            mapping[node] = out.add_not(reduce_pairs(aig_or, fins))
        elif g is Gate.XOR:
            mapping[node] = reduce_pairs(aig_xor, fins)
        elif g is Gate.XNOR:
            mapping[node] = out.add_not(reduce_pairs(aig_xor, fins))
        elif g is Gate.MAJ3:
            a, b, c = fins
            mapping[node] = aig_or(
                aig_or(out.add_and(a, b), out.add_and(a, c)),
                out.add_and(b, c),
            )
        else:  # pragma: no cover - exhaustive
            raise AssertionError(g)
    for po, name in zip(net.pos, net.po_names):
        out.add_po(mapping[po], name)
    hashed, _ = strash(out)
    return hashed


#: skip gates that are free, interface or already-mapped
_SKIP_GATES = (Gate.PI, Gate.CONST0, Gate.CONST1, Gate.BUF)

#: code-level twins for the array-native kernel: nodes the sweep never
#: scores (free/interface/mapped) and nodes a cone counts as free
_SKIP_CODES = frozenset(
    {CODE_BY_GATE[g] for g in _SKIP_GATES} | {CODE_BY_GATE[Gate.T1_CELL]}
    | T1_TAP_CODES
)
_FREE_CODES = frozenset(
    CODE_BY_GATE[g] for g in (Gate.BUF, Gate.PI, Gate.CONST0, Gate.CONST1)
)


def _score_node(codes, row_leaves, row_bits, rows, mffc, node) -> List[tuple]:
    """All positive-gain candidates of *node*, in cut order.

    Each entry is ``(gain, cut_index, leaves, cubes, cone)``, scored
    against an empty claimed-set; the sweep re-applies the live
    claimed-set through :func:`_pick_unblocked`.
    Reads the cut database's flat row storage (*rows* indexes into the
    shared *row_leaves*/*row_bits* stores) and the gate-code bytearray —
    no ``Cut``/``TruthTable`` boxes, SOP covers keyed by raw ints.
    """
    cands = []
    free = _FREE_CODES
    for idx, ri in enumerate(rows):
        leaves = row_leaves[ri]
        if len(leaves) < 2 or node in leaves:
            continue
        cone = mffc.mffc(node, boundary=leaves)
        old_cost = 0
        for n in cone:
            if codes[n] not in free:
                old_cost += 1
        cubes, new_cost = cached_sop_bits(row_bits[ri], len(leaves))
        gain = old_cost - new_cost
        if gain > 0:
            cands.append((gain, idx, leaves, cubes, cone))
    return cands


def _pick_unblocked(cands, claimed) -> Optional[tuple]:
    """Best candidate whose leaves and cone avoid *claimed*.

    First-max in cut order (strict ``>`` keeps the earliest cut
    achieving the maximum gain).
    """
    best = None
    for cand in cands:
        leaves = cand[2]
        blocked = False
        for leaf in leaves:
            if leaf in claimed:
                blocked = True
                break
        if blocked or claimed & cand[4]:
            continue
        if best is None or cand[0] > best[0]:
            best = cand
    return best


_STAT_KEYS = ("accepted", "scored_nodes", "dropped_blocked")


def refactor(
    net: LogicNetwork,
    cut_size: int = 4,
    cuts_per_node: int = 8,
    stats: Optional[Dict[str, int]] = None,
) -> Tuple[LogicNetwork, int]:
    """One topological rewrite sweep; returns ``(new_network, accepted_rewrites)``.

    Pass a dict as
    ``stats`` to receive kernel counters (``accepted``, ``scored_nodes``
    and ``dropped_blocked``: scored nodes whose every candidate was
    blocked by an earlier acceptance); counts add to any values already
    in the dict.
    """
    st: Dict[str, int] = stats if stats is not None else {}
    for key in _STAT_KEYS:
        st.setdefault(key, 0)

    db = cached_cut_database(net, k=cut_size, cuts_per_node=cuts_per_node)
    mffc = MffcComputer(net)
    work = net.clone()
    codes = net.gate_codes
    row_leaves, row_bits = db.raw_rows()
    scored: List[Tuple[int, List[tuple]]] = []
    for node in net.topological_order():
        if codes[node] in _SKIP_CODES:
            continue
        cands = _score_node(
            codes, row_leaves, row_bits, db.node_rows(node), mffc, node
        )
        if cands:
            scored.append((node, cands))
    st["scored_nodes"] += len(scored)

    # a node claimed by an acceptance lies in that acceptance's fan-in
    # cone, which the topological sweep has already passed
    claimed: set = set()
    accepted = 0
    for node, cands in scored:
        best = _pick_unblocked(cands, claimed)
        if best is None:
            st["dropped_blocked"] += 1
            continue
        _gain, _idx, leaves, cubes, cone = best
        new_root = synthesize_sop(work, list(leaves), cubes)
        work.substitute(node, new_root)
        claimed |= cone
        claimed.add(node)
        accepted += 1
    st["accepted"] += accepted
    swept, _ = strash(work)
    return swept, accepted

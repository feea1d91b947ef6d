"""The seed single-sweep refactoring — the rewrite kernel's oracle."""

from typing import Optional, Tuple

from repro.network.cleanup import strash
from repro.network.cuts import cached_cut_database
from repro.network.gates import Gate, is_t1_tap
from repro.network.isop import isop, sop_gate_count, synthesize_sop
from repro.network.logic_network import LogicNetwork
from repro.network.mffc import MffcComputer
from repro.network.transforms import _SKIP_GATES


def _cone_cost(net: LogicNetwork, nodes) -> int:
    """Gate count of a cone (BUFs free)."""
    return sum(
        1
        for n in nodes
        if net.gates[n] not in (Gate.BUF, Gate.PI, Gate.CONST0, Gate.CONST1)
    )


def refactor_reference(
    net: LogicNetwork,
    cut_size: int = 4,
    cuts_per_node: int = 8,
) -> Tuple[LogicNetwork, int]:
    """The seed single-sweep refactoring.

    Visits nodes in topological order; for each, every cut is scored
    against the *current* claimed-set (unmemoised ISOP per candidate)
    and the best positive-gain rewrite is applied immediately.
    :func:`repro.network.refactor` is pinned bit-identical to this (same accepted
    count, same strashed result).
    """
    work = net.clone()
    # all analysis (cuts, MFFC, costs) runs on the frozen original; the
    # claimed-set keeps rewrites disjoint so the analysis stays valid,
    # and the epoch-cached database is shared with any other pass that
    # enumerated the same (unmutated) network
    db = cached_cut_database(net, k=cut_size, cuts_per_node=cuts_per_node)
    mffc = MffcComputer(net)
    accepted = 0
    claimed: set = set()

    for node in net.topological_order():
        g = net.gates[node]
        if g in _SKIP_GATES:
            continue
        if g is Gate.T1_CELL or is_t1_tap(g):
            continue
        if node in claimed:
            continue
        best: Optional[Tuple[int, tuple, list, set]] = None
        for cut in db[node]:
            if len(cut.leaves) < 2 or node in cut.leaves:
                continue
            if any(leaf in claimed for leaf in cut.leaves):
                continue
            cone = mffc.mffc(node, boundary=cut.leaves)
            if claimed & cone:
                continue
            old_cost = _cone_cost(net, cone)
            cubes = isop(cut.table)
            new_cost = sop_gate_count(cubes)
            gain = old_cost - new_cost
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, cut.leaves, cubes, cone)
        if best is None:
            continue
        _gain, leaves, cubes, cone = best
        new_root = synthesize_sop(work, list(leaves), cubes)
        work.substitute(node, new_root)
        claimed |= cone
        claimed.add(node)
        accepted += 1

    swept, _ = strash(work)
    return swept, accepted

"""Topological traversal, levels and cone extraction.

The heavy analyses (topological order, levels, fanout lists) live on the
:class:`~repro.network.logic_network.LogicNetwork` kernel itself, which
caches them per mutation epoch.  The free functions here are thin,
API-stable wrappers: repeated calls on an unchanged network are O(1).
Treat returned lists as immutable — they are shared with the kernel
cache.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from repro.network.gates import is_t1_tap
from repro.network.logic_network import LogicNetwork


def topological_order(net: LogicNetwork) -> List[int]:
    """All nodes in a fanin-before-fanout order (Kahn's algorithm).

    Includes dead nodes; raises :class:`CycleError` on combinational loops.
    Cached on the network per mutation epoch.
    """
    return net.topological_order()


def levels(net: LogicNetwork, order: Sequence[int] | None = None) -> List[int]:
    """Logic level of every node.

    Constants and PIs are level 0.  T1 taps inherit the level of their cell
    (the cell is the clocked element; taps are free output ports).  With the
    default ``order=None`` the kernel's per-epoch cache is used.
    """
    if order is None:
        return net.levels()
    lvl = [0] * net.num_nodes()
    for node in order:
        fins = net.fanins[node]
        if not fins:
            lvl[node] = 0
        elif is_t1_tap(net.gates[node]):
            lvl[node] = lvl[fins[0]]
        else:
            lvl[node] = 1 + max(lvl[f] for f in fins)
    return lvl


def depth(net: LogicNetwork) -> int:
    """Maximum level over primary outputs."""
    return net.depth()


def transitive_fanin(net: LogicNetwork, roots: Iterable[int]) -> Set[int]:
    """All nodes in the cone of influence of *roots* (roots included)."""
    fanins = net.fanins
    seen: Set[int] = set()
    stack = list(roots)
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(fanins[u])
    return seen


def transitive_fanout(net: LogicNetwork, roots: Iterable[int]) -> Set[int]:
    """All nodes reachable from *roots* following fanout edges."""
    fanouts = net.compute_fanouts()
    seen: Set[int] = set()
    stack = list(roots)
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(fanouts[u])
    return seen


def live_nodes(net: LogicNetwork) -> Set[int]:
    """Nodes reachable from the POs, plus constants, PIs and T1 siblings.

    A T1 cell is live if any of its taps is live; a live cell keeps all its
    fanins alive.  PIs are always retained (interface stability).
    """
    return net.live_nodes()

"""Maximum fanout-free cone (MFFC) computation.

The MFFC of a node *u* is the set of nodes that are used exclusively
(transitively) by *u*: removing *u* makes the whole cone dead.  Its total
cell area is the area recovered when *u* is replaced — the ΔA term of
eq. (2) in the paper.

Implementation: classic reference-counting walk.  Dereference the fanins
of *u*; every fanin whose count drops to zero joins the cone and is
dereferenced recursively; then all counts are restored.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from repro.network.gates import (
    CODE_BY_GATE,
    Gate,
    SOURCE_CODES,
    T1_TAP_CODES,
)
from repro.network.logic_network import LogicNetwork

#: gate codes a cone walk may absorb: plain logic only — sources
#: (const/PI) always stop it, T1 cells and taps are the result of a
#: previous mapping decision and are treated as atomic
_ABSORBABLE = frozenset(
    c
    for c in range(len(CODE_BY_GATE))
    if c not in SOURCE_CODES
    and c not in T1_TAP_CODES
    and c != CODE_BY_GATE[Gate.T1_CELL]
)


class MffcComputer:
    """Reusable MFFC engine over a frozen network snapshot.

    Walks the gate-code bytearray and the fanin tuples straight off
    the network — no per-node ``Gate`` lookups on the hot path.
    """

    def __init__(self, net: LogicNetwork):
        self.net = net
        # a private mutable copy seeded from the kernel's maintained
        # reference counts (no edge rescan); the walk below mutates and
        # restores it
        self.refs = net.compute_fanout_counts()
        self._codes = net.gate_codes
        self._fanins = net.fanins

    def mffc(self, root: int, boundary: Iterable[int] = ()) -> Set[int]:
        """MFFC of *root*; *boundary* nodes are never absorbed.

        Returns the set of cone nodes (root included).  T1 blocks are
        treated as atomic: taps and cells are never absorbed (they are the
        result of a previous mapping decision).
        """
        return self.mffc_union([root], boundary)

    def mffc_union(
        self, roots: Sequence[int], boundary: Iterable[int] = ()
    ) -> Set[int]:
        """Union MFFC of several roots, counted jointly.

        The nodes of the union become dead when *all* roots are removed,
        which is exactly the situation when a T1 cell replaces a group of
        matched nodes.  Computed by dereferencing all roots together, so
        shared internal nodes are absorbed once (no double counting).
        """
        refs = self.refs
        codes = self._codes
        fanins = self._fanins
        absorbable = _ABSORBABLE
        stop = set(boundary)
        roots = [r for r in roots if codes[r] in absorbable]
        cone: Set[int] = set(roots)
        touched: List[int] = []
        worklist = list(roots)

        while worklist:
            u = worklist.pop()
            for f in fanins[u]:
                refs[f] -= 1
                touched.append(f)
                if (
                    refs[f] == 0
                    and f not in stop
                    and f not in cone
                    and codes[f] in absorbable
                ):
                    cone.add(f)
                    worklist.append(f)
        for f in touched:
            refs[f] += 1
        return cone


def mffc(net: LogicNetwork, root: int, boundary: Iterable[int] = ()) -> Set[int]:
    """One-shot MFFC (builds a fresh reference count)."""
    return MffcComputer(net).mffc(root, boundary)

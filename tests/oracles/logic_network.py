"""The retained seed network kernel — the production kernel's oracle.

This is the seed :class:`~repro.network.LogicNetwork` implementation,
kept verbatim (``gates`` as a ``List[Gate]``, ``fanins`` as a
``List[Tuple[int, ...]]``, compaction by list rebuild) so the kernel in
:mod:`repro.network.logic_network` (byte gate codes, free-list
compaction, cached analyses) has a differential oracle: the randomized
fuzz in ``tests/network/test_flat_core.py`` replays identical mutator
sequences (``add_gate`` / ``substitute`` / ``replace_fanin`` /
``compact`` / ``clone``) against both kernels and asserts identical
gates, fanins, ``NodeMap`` events and ``structural_hash``.

Tests and benchmarks only.  :attr:`ReferenceLogicNetwork.gate_codes`
builds a one-shot snapshot of the production kernel's gate-code array;
with the ``fanins`` list, that is all the code-native passes (cut
enumeration, MFFC, balance, simulation) read, so they run on this kernel
too.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CycleError, NetworkError
from repro.network.gates import CODE_BY_GATE, Gate, check_arity, is_t1_tap
from repro.network.logic_network import (
    CONST0,
    CONST1,
    _COMMUTATIVE,
    fold_gate,
)
from repro.network.nodemap import NodeMap


class ReferenceLogicNetwork:
    """A combinational logic network with maintained analysis indices.

    Attributes
    ----------
    gates:
        ``gates[i]`` is the :class:`Gate` kind of node ``i``.
    fanins:
        ``fanins[i]`` is the tuple of fanin node ids of node ``i``.
    epoch:
        Mutation counter; bumped by every structural change.  Analyses
        cached against an epoch stay valid while it is unchanged.
    """

    def __init__(self, name: str = "top", *, hash_cons: bool = False):
        self.name = name
        self.gates: List[Gate] = [Gate.CONST0, Gate.CONST1]
        self.fanins: List[Tuple[int, ...]] = [(), ()]
        self._pis: List[int] = []
        self._pos: List[int] = []
        self._po_names: List[Optional[str]] = []
        self._names: Dict[int, str] = {}
        # maintained indices ---------------------------------------------------
        self._fanout: List[Dict[int, int]] = [{}, {}]  # consumer -> multiplicity
        self._struct_refs: List[int] = [0, 0]  # fanin references (POs excluded)
        self._po_pos: Dict[int, List[int]] = {}  # node -> indices into _pos
        self._epoch: int = 0
        # per-epoch analysis caches -------------------------------------------
        self._topo_cache: Optional[List[int]] = None
        self._topo_epoch: int = -1
        self._levels_cache: Optional[List[int]] = None
        self._levels_epoch: int = -1
        self._fanout_lists_cache: Optional[List[List[int]]] = None
        self._fanout_lists_epoch: int = -1
        self._shash_cache: Optional[str] = None
        self._shash_key: Optional[Tuple] = None
        # hash-consing ---------------------------------------------------------
        self._hash_cons: bool = hash_cons
        self._hash_table: Dict[Tuple, int] = {}

    # -- size / iteration ----------------------------------------------------

    @property
    def epoch(self) -> int:
        """Mutation counter (structure only; names/POs excluded)."""
        return self._epoch

    @property
    def hash_cons(self) -> bool:
        """Whether ``add_gate`` deduplicates and folds at creation."""
        return self._hash_cons

    def set_hash_cons(self, enabled: bool) -> None:
        """Toggle hash-consed construction.

        Enabling (re)builds the structural hash table from the current
        nodes (first id wins for duplicates already present).
        """
        self._hash_cons = enabled
        if enabled:
            self._rebuild_hash_table()
        else:
            self._hash_table = {}

    def num_nodes(self) -> int:
        """Total node count including constants, PIs and taps."""
        return len(self.gates)

    def nodes(self) -> Iterator[int]:
        return iter(range(len(self.gates)))

    def num_gates(self) -> int:
        """Count of logic nodes (excludes constants, PIs and T1 taps)."""
        skip = (Gate.CONST0, Gate.CONST1, Gate.PI)
        return sum(
            1
            for g in self.gates
            if g not in skip and not is_t1_tap(g)
        )

    @property
    def pis(self) -> Tuple[int, ...]:
        return tuple(self._pis)

    @property
    def pos(self) -> Tuple[int, ...]:
        return tuple(self._pos)

    @property
    def po_names(self) -> Tuple[Optional[str], ...]:
        return tuple(self._po_names)

    # -- construction ----------------------------------------------------------

    def _append_node(self, gate: Gate, fanins: Tuple[int, ...]) -> int:
        """Unconditionally append one node and maintain the indices."""
        self.gates.append(gate)
        self.fanins.append(fanins)
        self._fanout.append({})
        self._struct_refs.append(0)
        node = len(self.gates) - 1
        for f in fanins:
            out = self._fanout[f]
            out[node] = out.get(node, 0) + 1
            self._struct_refs[f] += 1
        self._epoch += 1
        return node

    def _new_node(self, gate: Gate, fanins: Tuple[int, ...]) -> int:
        check_arity(gate, len(fanins))
        for f in fanins:
            if not 0 <= f < len(self.gates):
                raise NetworkError(f"fanin {f} does not exist")
        return self._append_node(gate, fanins)

    def _emit_hashed(self, gate: Gate, fins: Tuple[int, ...]) -> int:
        """Fold/canonicalise/dedupe one gate (the strash ``emit`` rules)."""
        while True:
            res = fold_gate(gate, fins)
            if res is None:
                break
            kind, payload = res
            if kind == "const":
                return CONST1 if payload else CONST0
            if kind == "alias":
                return payload  # type: ignore[return-value]
            gate, fins = payload  # type: ignore[assignment]
        if gate is Gate.NOT and self.gates[fins[0]] is Gate.NOT:
            return self.fanins[fins[0]][0]  # double negation
        if gate in _COMMUTATIVE:
            fins = tuple(sorted(fins))
        key = (gate, fins)
        existing = self._hash_table.get(key)
        if existing is not None:
            return existing
        node = self._append_node(gate, fins)
        self._hash_table[key] = node
        return node

    def add_pi(self, name: Optional[str] = None) -> int:
        node = self._new_node(Gate.PI, ())
        self._pis.append(node)
        if name is not None:
            self._names[node] = name
        return node

    def add_gate(self, gate: Gate, fanins: Sequence[int]) -> int:
        """Append a logic node; *gate* must not be PI/const.

        With ``hash_cons`` enabled this may instead return an existing
        node id (duplicate structure), an alias fanin (folded BUF /
        single-input gate / double negation) or a constant.
        """
        if gate in (Gate.PI, Gate.CONST0, Gate.CONST1):
            raise NetworkError(f"use add_pi()/constants for {gate.name}")
        if gate is Gate.T1_CELL:
            raise NetworkError("use add_t1_cell() for T1 blocks")
        fins = tuple(fanins)
        check_arity(gate, len(fins))
        for f in fins:
            if not 0 <= f < len(self.gates):
                raise NetworkError(f"fanin {f} does not exist")
        if is_t1_tap(gate):
            cell = fins[0]
            if self.gates[cell] is not Gate.T1_CELL:
                raise NetworkError("T1 tap fanin must be a T1_CELL node")
            if self._hash_cons:
                key = (gate, fins)
                existing = self._hash_table.get(key)
                if existing is not None:
                    return existing
                node = self._append_node(gate, fins)
                self._hash_table[key] = node
                return node
            return self._append_node(gate, fins)
        if self._hash_cons:
            return self._emit_hashed(gate, fins)
        return self._append_node(gate, fins)

    def add_t1_cell(self, a: int, b: int, c: int) -> int:
        """Append a T1 cell block over leaves (a, b, c); returns the cell id."""
        fins = (a, b, c)
        for f in fins:
            if not 0 <= f < len(self.gates):
                raise NetworkError(f"fanin {f} does not exist")
        if self._hash_cons:
            key = (Gate.T1_CELL, fins)
            existing = self._hash_table.get(key)
            if existing is not None:
                return existing
            node = self._append_node(Gate.T1_CELL, fins)
            self._hash_table[key] = node
            return node
        return self._new_node(Gate.T1_CELL, fins)

    def add_t1_tap(self, cell: int, tap: Gate) -> int:
        if not is_t1_tap(tap):
            raise NetworkError(f"{tap.name} is not a T1 tap")
        return self.add_gate(tap, (cell,))

    # convenience builders used heavily by circuit generators -----------------

    def add_not(self, a: int) -> int:
        return self.add_gate(Gate.NOT, (a,))

    def add_buf(self, a: int) -> int:
        return self.add_gate(Gate.BUF, (a,))

    def add_and(self, *fanins: int) -> int:
        return self.add_gate(Gate.AND, fanins)

    def add_or(self, *fanins: int) -> int:
        return self.add_gate(Gate.OR, fanins)

    def add_xor(self, *fanins: int) -> int:
        return self.add_gate(Gate.XOR, fanins)

    def add_nand(self, *fanins: int) -> int:
        return self.add_gate(Gate.NAND, fanins)

    def add_nor(self, *fanins: int) -> int:
        return self.add_gate(Gate.NOR, fanins)

    def add_xnor(self, *fanins: int) -> int:
        return self.add_gate(Gate.XNOR, fanins)

    def add_maj3(self, a: int, b: int, c: int) -> int:
        return self.add_gate(Gate.MAJ3, (a, b, c))

    def add_mux(self, sel: int, d0: int, d1: int) -> int:
        """2:1 multiplexer out = sel ? d1 : d0, built from basic gates."""
        ns = self.add_not(sel)
        t0 = self.add_and(ns, d0)
        t1 = self.add_and(sel, d1)
        return self.add_or(t0, t1)

    def add_po(self, node: int, name: Optional[str] = None) -> int:
        """Mark *node* as a primary output; returns the PO index."""
        if not 0 <= node < len(self.gates):
            raise NetworkError(f"PO target {node} does not exist")
        if self.gates[node] is Gate.T1_CELL:
            raise NetworkError("a T1_CELL has no single output; tap it first")
        self._pos.append(node)
        self._po_names.append(name)
        index = len(self._pos) - 1
        self._po_pos.setdefault(node, []).append(index)
        return index

    # -- names ------------------------------------------------------------------

    def set_name(self, node: int, name: str) -> None:
        self._names[node] = name

    def get_name(self, node: int) -> Optional[str]:
        return self._names.get(node)

    # -- structure queries -------------------------------------------------------

    def gate(self, node: int) -> Gate:
        return self.gates[node]

    def fanin(self, node: int) -> Tuple[int, ...]:
        return self.fanins[node]

    @property
    def gate_codes(self) -> bytearray:
        """Snapshot of the per-node gate codes, as the flat core stores them."""
        return bytearray(CODE_BY_GATE[g] for g in self.gates)

    def is_pi(self, node: int) -> bool:
        return self.gates[node] is Gate.PI

    def is_const(self, node: int) -> bool:
        return node in (CONST0, CONST1)

    def is_logic(self, node: int) -> bool:
        g = self.gates[node]
        return g not in (Gate.CONST0, Gate.CONST1, Gate.PI)

    def t1_cells(self) -> List[int]:
        return [n for n in self.nodes() if self.gates[n] is Gate.T1_CELL]

    def t1_taps_of(self, cell: int) -> List[int]:
        return sorted(
            n
            for n in self._fanout[cell]
            if is_t1_tap(self.gates[n]) and self.fanins[n][0] == cell
        )

    # -- maintained fanout index ------------------------------------------------

    def fanout(self, node: int) -> Tuple[int, ...]:
        """Consumers of *node* (each repeated per fanin multiplicity)."""
        out: List[int] = []
        for consumer in sorted(self._fanout[node]):
            out.extend([consumer] * self._fanout[node][consumer])
        return tuple(out)

    def fanout_count(self, node: int) -> int:
        """Reference count of *node*: fanin references plus PO references."""
        return self._struct_refs[node] + len(self._po_pos.get(node, ()))

    def compute_fanouts(self) -> List[List[int]]:
        """``fanouts[u]`` = list of nodes having u as a fanin (with repeats).

        Materialised from the maintained index and cached per epoch —
        treat the result as immutable.
        """
        if (
            self._fanout_lists_cache is not None
            and self._fanout_lists_epoch == self._epoch
        ):
            return self._fanout_lists_cache
        fanouts: List[List[int]] = [[] for _ in range(len(self.gates))]
        for node, fins in enumerate(self.fanins):
            for f in fins:
                fanouts[f].append(node)
        self._fanout_lists_cache = fanouts
        self._fanout_lists_epoch = self._epoch
        return fanouts

    def compute_fanout_counts(self) -> List[int]:
        """Per-node reference counts (fanins + POs); a fresh mutable list."""
        counts = list(self._struct_refs)
        for po in self._pos:
            counts[po] += 1
        return counts

    # -- cached analyses ---------------------------------------------------------

    def topological_order(self) -> List[int]:
        """All nodes in a fanin-before-fanout order (Kahn's algorithm).

        Includes dead nodes; raises :class:`CycleError` on combinational
        loops.  Cached per mutation epoch — treat the result as immutable.
        """
        if self._topo_cache is not None and self._topo_epoch == self._epoch:
            return self._topo_cache
        n = len(self.gates)
        fanouts = self.compute_fanouts()
        indeg = [len(fins) for fins in self.fanins]
        queue = [node for node in range(n) if indeg[node] == 0]
        order: List[int] = []
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order.append(u)
            for v in fanouts[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != n:
            raise CycleError("network contains a combinational cycle")
        self._topo_cache = order
        self._topo_epoch = self._epoch
        return order

    def levels(self) -> List[int]:
        """Logic level of every node (constants/PIs are 0; taps inherit).

        Cached per mutation epoch — treat the result as immutable.
        """
        if self._levels_cache is not None and self._levels_epoch == self._epoch:
            return self._levels_cache
        order = self.topological_order()
        lvl = [0] * len(self.gates)
        gates = self.gates
        fanins = self.fanins
        for node in order:
            fins = fanins[node]
            if not fins:
                lvl[node] = 0
            elif is_t1_tap(gates[node]):
                lvl[node] = lvl[fins[0]]
            else:
                lvl[node] = 1 + max(lvl[f] for f in fins)
        self._levels_cache = lvl
        self._levels_epoch = self._epoch
        return lvl

    def depth(self) -> int:
        """Maximum level over primary outputs."""
        if not self._pos:
            return 0
        lvl = self.levels()
        return max(lvl[po] for po in self._pos)

    def structural_hash(self) -> str:
        """Canonical content hash of the live network (64-hex SHA-256).

        The hash covers exactly the semantic content of the network as a
        function of its interface: gate kinds, fanin *structure*
        (commutative fanins contribute as an unordered multiset), the PI
        interface (count and positional identity) and the PO bindings in
        slot order.  It deliberately excludes node ids, node/PO names,
        dead nodes and construction order, so it is invariant under
        :meth:`clone` and the id renumbering of :meth:`compact` /
        ``sweep``, while any semantic edit (gate change, rewiring, PO
        re-binding or re-ordering, added output) produces a different
        hash.  Two networks with equal hashes compute the same functions
        through the same live structure.

        Built from SHA-256, not Python's ``hash()``, so the value is
        stable across processes and interpreter runs — it is the
        content-address the service layer keys its cross-run result
        cache on.  Cached per (mutation epoch, PO bindings); repeated
        calls on an unchanged network are O(1).
        """
        key = (self._epoch, tuple(self._pos), tuple(self._pis))
        if self._shash_cache is not None and self._shash_key == key:
            return self._shash_cache
        digests: List[Optional[bytes]] = [None] * len(self.gates)
        digests[CONST0] = hashlib.sha256(b"CONST0").digest()
        digests[CONST1] = hashlib.sha256(b"CONST1").digest()
        for index, pi in enumerate(self._pis):
            digests[pi] = hashlib.sha256(b"PI:%d" % index).digest()
        gates = self.gates
        fanins = self.fanins
        sha256 = hashlib.sha256
        for node in self.topological_order():
            if digests[node] is not None:
                continue
            gate = gates[node]
            fins = [digests[f] for f in fanins[node]]
            if gate in _COMMUTATIVE:
                fins.sort()
            digests[node] = sha256(
                gate.name.encode() + b"(" + b"".join(fins) + b")"
            ).digest()
        h = sha256(b"NET:%d:%d|" % (len(self._pis), len(self._pos)))
        for po in self._pos:
            h.update(digests[po])
        result = h.hexdigest()
        self._shash_cache = result
        self._shash_key = key
        return result

    # -- mutation ------------------------------------------------------------------

    def substitute(self, old: int, new: int) -> int:
        """Redirect every reference to *old* (fanins and POs) to *new*.

        O(fanout of *old*) via the maintained index.  Returns the number
        of rewritten references.  The *old* node stays in the arrays until
        a :meth:`compact`; callers should not re-use it.
        """
        if old == new:
            return 0
        if not 0 <= new < len(self.gates):
            raise NetworkError(f"substitute target {new} does not exist")
        if not 0 <= old < len(self.gates):
            return 0
        rewritten = 0
        consumers = self._fanout[old]
        if consumers:
            moved = 0
            new_out = self._fanout[new]
            for node, mult in list(consumers.items()):
                fins = self.fanins[node]
                new_fins = tuple(new if f == old else f for f in fins)
                self._hash_retable(node, fins, new_fins)
                self.fanins[node] = new_fins
                new_out[node] = new_out.get(node, 0) + mult
                rewritten += mult
                moved += mult
            self._fanout[old] = {}
            self._struct_refs[old] -= moved
            self._struct_refs[new] += moved
            self._epoch += 1
        po_slots = self._po_pos.pop(old, None)
        if po_slots:
            for i in po_slots:
                self._pos[i] = new
            self._po_pos.setdefault(new, []).extend(po_slots)
            rewritten += len(po_slots)
        return rewritten

    def replace_fanin(self, node: int, old: int, new: int) -> None:
        """Rewrite one node's fanin tuple only (every occurrence of *old*)."""
        fins = self.fanins[node]
        if old not in fins:
            raise NetworkError(f"{old} is not a fanin of {node}")
        if not 0 <= new < len(self.gates):
            raise NetworkError(f"fanin {new} does not exist")
        if old == new:
            return
        mult = fins.count(old)
        new_fins = tuple(new if f == old else f for f in fins)
        self._hash_retable(node, fins, new_fins)
        self.fanins[node] = new_fins
        out = self._fanout[old]
        out[node] -= mult
        if out[node] == 0:
            del out[node]
        new_out = self._fanout[new]
        new_out[node] = new_out.get(node, 0) + mult
        self._struct_refs[old] -= mult
        self._struct_refs[new] += mult
        self._epoch += 1

    def _hash_retable(
        self, node: int, old_fins: Tuple[int, ...], new_fins: Tuple[int, ...]
    ) -> None:
        """Keep the structural hash table consistent across a fanin rewrite.

        The stale key is dropped (only if it still points at *node*) and
        the new key inserted unless another node already claims it — the
        first node keeps the slot, so lookups stay deterministic.
        """
        if not self._hash_cons:
            return
        gate = self.gates[node]
        old_key = (gate, tuple(sorted(old_fins)) if gate in _COMMUTATIVE else old_fins)
        if self._hash_table.get(old_key) == node:
            del self._hash_table[old_key]
        new_key = (gate, tuple(sorted(new_fins)) if gate in _COMMUTATIVE else new_fins)
        self._hash_table.setdefault(new_key, node)

    def _rebuild_hash_table(self) -> None:
        table: Dict[Tuple, int] = {}
        for node, (gate, fins) in enumerate(zip(self.gates, self.fanins)):
            if gate in (Gate.CONST0, Gate.CONST1, Gate.PI):
                continue
            key = (gate, tuple(sorted(fins)) if gate in _COMMUTATIVE else fins)
            table.setdefault(key, node)
        self._hash_table = table

    # -- compaction -----------------------------------------------------------------

    def live_nodes(self) -> set:
        """Nodes reachable from the POs, plus constants and PIs.

        A T1 cell is live if any of its taps is live (the tap's fanin
        keeps it reachable); a live cell does not by itself keep dead
        sibling taps alive.  PIs are always retained (interface
        stability).
        """
        seen: set = set()
        stack = list(self._pos)
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self.fanins[u])
        seen.add(CONST0)
        seen.add(CONST1)
        seen.update(self._pis)
        return seen

    def compact(self) -> NodeMap:
        """Remove dead nodes in place; returns the old-id -> new-id remap.

        Live node ids are re-assigned as constants, then PIs in interface
        order, then the remaining live nodes in topological order (the
        same id discipline as a from-scratch ``sweep`` rebuild, so the two
        are interchangeable).  Dead nodes are absent from the returned
        :class:`~repro.network.nodemap.NodeMap`; their names are dropped.
        """
        order = self.topological_order()
        live = self.live_nodes()
        remap: Dict[int, int] = {CONST0: CONST0, CONST1: CONST1}
        seq: List[int] = [CONST0, CONST1]
        for pi in self._pis:
            remap[pi] = len(seq)
            seq.append(pi)
        for node in order:
            if node in remap or node not in live:
                continue
            remap[node] = len(seq)
            seq.append(node)
        self.gates = [self.gates[o] for o in seq]
        self.fanins = [
            tuple(remap[f] for f in self.fanins[o]) for o in seq
        ]
        self._pis = [remap[pi] for pi in self._pis]
        self._pos = [remap[po] for po in self._pos]
        self._po_pos = {}
        for i, po in enumerate(self._pos):
            self._po_pos.setdefault(po, []).append(i)
        self._names = {
            remap[n]: name for n, name in self._names.items() if n in remap
        }
        # rebuild the maintained indices from the compacted arrays
        self._fanout = [{} for _ in seq]
        self._struct_refs = [0] * len(seq)
        for node, fins in enumerate(self.fanins):
            for f in fins:
                out = self._fanout[f]
                out[node] = out.get(node, 0) + 1
                self._struct_refs[f] += 1
        self._epoch += 1
        if self._hash_cons:
            self._rebuild_hash_table()
        return NodeMap(remap)

    # -- invariants ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the maintained indices match a from-scratch recomputation.

        Used by the differential tests and the benchmark harness; raises
        :class:`~repro.errors.NetworkError` on any divergence.
        """
        n = len(self.gates)
        if not (
            len(self.fanins) == len(self._fanout) == len(self._struct_refs) == n
        ):
            raise NetworkError("kernel arrays out of sync")
        if len(self._pos) != len(self._po_names):
            raise NetworkError("PO name list out of sync")
        fresh_fanout: List[Dict[int, int]] = [{} for _ in range(n)]
        fresh_refs = [0] * n
        for node, fins in enumerate(self.fanins):
            for f in fins:
                if not 0 <= f < n:
                    raise NetworkError(f"fanin {f} of node {node} out of range")
                d = fresh_fanout[f]
                d[node] = d.get(node, 0) + 1
                fresh_refs[f] += 1
        for node in range(n):
            if fresh_fanout[node] != self._fanout[node]:
                raise NetworkError(
                    f"fanout index stale at node {node}: "
                    f"{self._fanout[node]} != {fresh_fanout[node]}"
                )
        if fresh_refs != self._struct_refs:
            raise NetworkError("reference counts stale")
        fresh_po_pos: Dict[int, List[int]] = {}
        for i, po in enumerate(self._pos):
            fresh_po_pos.setdefault(po, []).append(i)
        mine = {k: sorted(v) for k, v in self._po_pos.items() if v}
        if mine != fresh_po_pos:
            raise NetworkError("PO index stale")
        if (
            self._fanout_lists_cache is not None
            and self._fanout_lists_epoch == self._epoch
        ):
            cached_lists = self._fanout_lists_cache
            self._fanout_lists_cache = None
            if self.compute_fanouts() != cached_lists:
                raise NetworkError("cached fanout lists stale or mutated")
        if self._topo_cache is not None and self._topo_epoch == self._epoch:
            cached = self._topo_cache
            self._topo_cache = None
            fresh = self.topological_order()
            if fresh != cached:
                raise NetworkError("cached topological order stale")
        if self._levels_cache is not None and self._levels_epoch == self._epoch:
            cached_lvl = self._levels_cache
            self._levels_cache = None
            fresh_lvl = self.levels()
            if fresh_lvl != cached_lvl:
                raise NetworkError("cached levels stale")
        if self._hash_cons:
            for key, node in self._hash_table.items():
                gate, fins = key
                if self.gates[node] is not gate:
                    raise NetworkError(f"hash table gate mismatch at {node}")
                actual = self.fanins[node]
                canon = (
                    tuple(sorted(actual)) if gate in _COMMUTATIVE else actual
                )
                if canon != fins:
                    raise NetworkError(f"hash table fanin mismatch at {node}")

    # -- misc -----------------------------------------------------------------------

    def clone(self) -> "ReferenceLogicNetwork":
        out = ReferenceLogicNetwork(self.name)
        out.gates = list(self.gates)
        out.fanins = list(self.fanins)
        out._pis = list(self._pis)
        out._pos = list(self._pos)
        out._po_names = list(self._po_names)
        out._names = dict(self._names)
        out._fanout = [dict(d) for d in self._fanout]
        out._struct_refs = list(self._struct_refs)
        out._po_pos = {k: list(v) for k, v in self._po_pos.items()}
        out._epoch = self._epoch
        # analysis caches are immutable-by-convention: share them
        out._topo_cache = self._topo_cache
        out._topo_epoch = self._topo_epoch
        out._levels_cache = self._levels_cache
        out._levels_epoch = self._levels_epoch
        out._fanout_lists_cache = self._fanout_lists_cache
        out._fanout_lists_epoch = self._fanout_lists_epoch
        out._shash_cache = self._shash_cache
        out._shash_key = self._shash_key
        out._hash_cons = self._hash_cons
        out._hash_table = dict(self._hash_table)
        return out

    def stats(self) -> Dict[str, int]:
        from collections import Counter

        counter = Counter(g.name for g in self.gates)
        return {
            "nodes": self.num_nodes(),
            "gates": self.num_gates(),
            "pis": len(self._pis),
            "pos": len(self._pos),
            "t1_cells": counter.get("T1_CELL", 0),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"ReferenceLogicNetwork(name={self.name!r}, gates={s['gates']}, "
            f"pis={s['pis']}, pos={s['pos']}, t1={s['t1_cells']})"
        )

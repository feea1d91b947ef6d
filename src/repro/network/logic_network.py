"""Mutable gate-level logic network (DAG of single-output nodes).

Design notes
------------
* Nodes are integer handles into **per-node storage**: gate kinds live
  in one ``bytearray`` of :data:`~repro.network.gates.CODE_BY_GATE`
  codes, fanins in one list of per-node fanin-id tuples, and reference
  counts in a parallel ``array('q')``.  Node 0 is CONST0 and node 1 is
  CONST1; they always exist.
* ``net.gates`` is a **live view** over the code bytearray:
  ``net.gates[i]`` is the :class:`Gate` enum member, and the view
  compares / iterates like the list it replaced.  ``net.fanins`` *is*
  the fanin store: ``net.fanins[i]`` is node *i*'s tuple of fanin ids.
  Treat both as read-only; mutate through the kernel mutators.
* Fanin tuples are rewritten via :meth:`substitute` /
  :meth:`replace_fanin`; unreferenced nodes are removed by
  :meth:`compact` (id fix-up over the codes and fanin tuples, emitting
  a :class:`~repro.network.nodemap.NodeMap`) or by the
  :func:`repro.network.cleanup.sweep` wrapper.
* **Incrementally maintained indices**: the kernel keeps a fanout index
  (consumer -> multiplicity per node) and structural reference counts in
  sync across every mutation, so :meth:`substitute` costs O(fanout of the
  replaced node) instead of a full network scan, and fanout queries never
  rescan the edge list.  A maintained **free-list** (the exact set of
  zero-fanout non-source nodes) seeds :meth:`compact`'s liveness cascade,
  so dead-node removal is refcount propagation over int arrays rather
  than a reachability set walk.
* **Mutation epoch + cached analyses**: every structural mutation bumps
  ``epoch``; topological order, levels and materialised fanout lists are
  cached per epoch, so repeated :meth:`topological_order` /
  :meth:`levels` / :meth:`depth` calls on an unchanged network are O(1).
  Treat the returned lists as immutable — they are shared with the
  cache.
* **Bulk construction**: :meth:`add_gates_bulk` appends (and with
  ``hash_cons=True`` hash-conses) a whole netlist in one call — one epoch
  bump, no per-call dispatch — and is what the scalable circuit
  generators and the ``.bench``/``.blif`` readers feed.
* **Hash-consed construction** (``hash_cons=True``): ``add_gate`` folds
  constants/aliases (same rules as ``strash``), collapses double
  negation, canonicalises commutative fanins and returns the existing id
  for a duplicate ``(gate, fanins)`` pair.  This subsumes the node-merge
  half of :func:`repro.network.cleanup.strash` at creation time.  The
  default is off so structural generators reproduce networks node for
  node.
* Creation order is *not* required to be topological after substitutions;
  use :meth:`topological_order`.
* The T1 cell is a multi-output block: a ``T1_CELL`` node plus tap nodes
  (see :mod:`repro.network.gates`).

The seed kernel (``List[Gate]`` kinds, rebuild-based compaction) lives
on in the tests (``tests/oracles/logic_network.py``) and is pinned
against this implementation by randomized differential fuzz.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CycleError, NetworkError
from repro.network.gates import (
    CODE_BY_GATE,
    GATES_BY_CODE,
    Gate,
    SOURCE_CODES,
    T1_TAP_CODES,
    check_arity,
    is_t1_tap,
)
from repro.network.nodemap import NodeMap

CONST0 = 0
CONST1 = 1

#: gates whose fanin order is irrelevant (canonically sorted when hashing)
_COMMUTATIVE = frozenset(
    {Gate.AND, Gate.OR, Gate.XOR, Gate.NAND, Gate.NOR, Gate.XNOR, Gate.MAJ3}
)
_COMMUTATIVE_CODES = frozenset(CODE_BY_GATE[g] for g in _COMMUTATIVE)

_C_CONST0 = CODE_BY_GATE[Gate.CONST0]
_C_CONST1 = CODE_BY_GATE[Gate.CONST1]
_C_PI = CODE_BY_GATE[Gate.PI]
_C_NOT = CODE_BY_GATE[Gate.NOT]
_C_T1_CELL = CODE_BY_GATE[Gate.T1_CELL]
#: codes excluded from num_gates (sources and zero-area taps)
_NONGATE_CODES = SOURCE_CODES | T1_TAP_CODES


def fold_gate(gate: Gate, fins: Tuple[int, ...]) -> Optional[Tuple[str, object]]:
    """Constant folding / algebraic simplification of one node.

    Returns one of
      ("const", 0/1)   -- node is a constant
      ("alias", node)  -- node equals an existing node
      ("gate", (gate, fins)) -- simplified gate
      None             -- keep unchanged
    """
    if gate in (Gate.AND, Gate.OR, Gate.XOR, Gate.NAND, Gate.NOR, Gate.XNOR):
        base = {
            Gate.AND: Gate.AND,
            Gate.NAND: Gate.AND,
            Gate.OR: Gate.OR,
            Gate.NOR: Gate.OR,
            Gate.XOR: Gate.XOR,
            Gate.XNOR: Gate.XOR,
        }[gate]
        inverted = gate in (Gate.NAND, Gate.NOR, Gate.XNOR)
        vals = list(fins)
        if base is Gate.AND:
            if CONST0 in vals:
                return ("const", 1 if inverted else 0)
            vals = [v for v in vals if v != CONST1]
            vals = list(dict.fromkeys(vals))  # idempotence
        elif base is Gate.OR:
            if CONST1 in vals:
                return ("const", 0 if inverted else 1)
            vals = [v for v in vals if v != CONST0]
            vals = list(dict.fromkeys(vals))  # idempotence
        else:  # XOR: drop const0, toggle on const1, cancel duplicate pairs
            flips = vals.count(CONST1)
            vals = [v for v in vals if v not in (CONST0, CONST1)]
            if flips % 2:
                inverted = not inverted
            counts: Dict[int, int] = {}
            for v in vals:
                counts[v] = counts.get(v, 0) + 1
            vals = [v for v, c in counts.items() if c % 2]
        if not vals:
            identity = 0 if base in (Gate.OR, Gate.XOR) else 1
            return ("const", identity ^ (1 if inverted else 0))
        if len(vals) == 1:
            if inverted:
                return ("gate", (Gate.NOT, (vals[0],)))
            return ("alias", vals[0])
        if base is Gate.AND and len(set(vals)) == 1:
            v = vals[0]
            return ("gate", (Gate.NOT, (v,))) if inverted else ("alias", v)
        if base is Gate.OR and len(set(vals)) == 1:
            v = vals[0]
            return ("gate", (Gate.NOT, (v,))) if inverted else ("alias", v)
        out_gate = {
            (Gate.AND, False): Gate.AND,
            (Gate.AND, True): Gate.NAND,
            (Gate.OR, False): Gate.OR,
            (Gate.OR, True): Gate.NOR,
            (Gate.XOR, False): Gate.XOR,
            (Gate.XOR, True): Gate.XNOR,
        }[(base, inverted)]
        new_fins = tuple(vals)
        if out_gate == gate and new_fins == fins:
            return None
        return ("gate", (out_gate, new_fins))
    if gate is Gate.NOT:
        if fins[0] == CONST0:
            return ("const", 1)
        if fins[0] == CONST1:
            return ("const", 0)
    if gate is Gate.BUF:
        return ("alias", fins[0])
    if gate is Gate.MAJ3:
        a, b, c = fins
        if a == b:
            return ("alias", a)
        if a == c:
            return ("alias", a)
        if b == c:
            return ("alias", b)
        if CONST0 in fins:
            rest = tuple(f for f in fins if f != CONST0)
            if len(rest) == 2:
                return ("gate", (Gate.AND, rest))
        if CONST1 in fins:
            rest = tuple(f for f in fins if f != CONST1)
            if len(rest) == 2:
                return ("gate", (Gate.OR, rest))
    return None


class GateView:
    """Sequence view of the gate-code bytearray as :class:`Gate` members.

    Backed directly by the network's storage: always current, zero-copy.
    Supports indexing (int and slice), iteration, ``len`` and equality
    against any sequence of gates — the operations the old
    ``List[Gate]`` attribute supported for readers.  It is not a list:
    do not append to it or assign elements (mutate the network through
    its mutators instead).
    """

    __slots__ = ("_codes",)

    def __init__(self, codes: bytearray):
        self._codes = codes

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [GATES_BY_CODE[c] for c in self._codes[index]]
        return GATES_BY_CODE[self._codes[index]]

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[Gate]:
        return map(GATES_BY_CODE.__getitem__, self._codes)

    def __eq__(self, other) -> bool:
        if isinstance(other, GateView):
            return self._codes == other._codes
        try:
            if len(other) != len(self._codes):
                return False
            return all(a is b for a, b in zip(self, other))
        except TypeError:
            return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable view, like a list

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GateView({list(self)!r})"


class LogicNetwork:
    """A combinational logic network with maintained analysis indices.

    Attributes
    ----------
    gates:
        :class:`GateView`; ``gates[i]`` is the :class:`Gate` kind of node
        ``i`` (stored as one byte code).
    fanins:
        The fanin store itself: ``fanins[i]`` is the tuple of fanin node
        ids of node ``i``.
    epoch:
        Mutation counter; bumped by every structural change.  Analyses
        cached against an epoch stay valid while it is unchanged.
    """

    def __init__(self, name: str = "top", *, hash_cons: bool = False):
        self.name = name
        # per-node storage ---------------------------------------------------
        # NOTE: these containers are mutated in place and never rebound —
        # the gates view and callers holding ``net.fanins`` alias them for
        # the network's lifetime.
        self._codes: bytearray = bytearray((_C_CONST0, _C_CONST1))
        self._fanins: List[Tuple[int, ...]] = [(), ()]
        self._gate_view = GateView(self._codes)
        self._pis: List[int] = []
        self._pos: List[int] = []
        self._po_names: List[Optional[str]] = []
        self._names: Dict[int, str] = {}
        # maintained indices ---------------------------------------------------
        self._fanout: List[Dict[int, int]] = [{}, {}]  # consumer -> multiplicity
        self._struct_refs: array = array("q", (0, 0))  # fanin refs (POs excluded)
        self._po_pos: Dict[int, List[int]] = {}  # node -> indices into _pos
        #: free-list: exact set of nodes with zero fanout_count that are
        #: not sources (constants/PIs are never collectable) — the seeds
        #: of compact()'s liveness cascade
        self._free: Set[int] = set()
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
        # gate-grouped simulation schedule (built by repro.network.simulation)
        self._sim_schedule: Optional[list] = None
        self._sim_schedule_epoch: int = -1
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

    @property
    def gates(self) -> GateView:
        """Per-node gate kinds (live :class:`GateView` over the byte codes)."""
        return self._gate_view

    @property
    def fanins(self) -> List[Tuple[int, ...]]:
        """Per-node fanin tuples — the store itself; treat it as read-only."""
        return self._fanins

    @property
    def gate_codes(self) -> bytearray:
        """Raw per-node gate codes (see :data:`repro.network.gates.GATES_BY_CODE`).

        Array-native consumers may read this directly; treat it as
        immutable.
        """
        return self._codes

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
        return len(self._codes)

    def nodes(self) -> Iterator[int]:
        return iter(range(len(self._codes)))

    def num_gates(self) -> int:
        """Count of logic nodes (excludes constants, PIs and T1 taps)."""
        nongate = _NONGATE_CODES
        return sum(1 for c in self._codes if c not in nongate)

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
        code = CODE_BY_GATE[gate]
        node = len(self._codes)
        self._codes.append(code)
        self._fanins.append(fanins)
        self._fanout.append({})
        self._struct_refs.append(0)
        free = self._free
        if code != _C_PI:
            free.add(node)
        refs = self._struct_refs
        for f in fanins:
            out = self._fanout[f]
            out[node] = out.get(node, 0) + 1
            refs[f] += 1
            free.discard(f)
        self._epoch += 1
        return node

    def _new_node(self, gate: Gate, fanins: Tuple[int, ...]) -> int:
        check_arity(gate, len(fanins))
        n = len(self._codes)
        for f in fanins:
            if not 0 <= f < n:
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
        if gate is Gate.NOT and self._codes[fins[0]] == _C_NOT:
            return self._fanins[fins[0]][0]  # double negation
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
        n = len(self._codes)
        for f in fins:
            if not 0 <= f < n:
                raise NetworkError(f"fanin {f} does not exist")
        if is_t1_tap(gate):
            cell = fins[0]
            if self._codes[cell] != _C_T1_CELL:
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

    def add_gates_bulk(
        self, items: Iterable[Tuple[Gate, Sequence[int]]]
    ) -> List[int]:
        """Append a whole netlist of nodes in one call.

        ``items`` yields ``(gate, fanins)`` pairs; a fanin id ``>= the
        node count at entry`` refers to the *j*-th batch item's result
        (``j = id - base``), i.e. the id it would receive without
        hash-consing — so generators can precompute ids and the batch
        stays a plain data structure.  ``Gate.PI`` entries (empty
        fanins) and T1 cells/taps are allowed; POs are not (bind them
        after the call).

        Returns the resolved node id per item.  Without ``hash_cons``
        this is the fast path: the batch accumulates in local buffers
        and commits with a handful of bulk extends and one epoch bump,
        producing a network node-for-node identical to the equivalent
        ``add_gate``/``add_pi`` loop — and the batch is atomic: a bad
        item leaves the network untouched.  With ``hash_cons`` items are folded/
        deduped exactly as ``add_gate`` would (per-item, not atomic),
        and the returned ids reflect the folding.
        """
        out_ids: List[int] = []
        base = len(self._codes)
        if self._hash_cons:
            for gate, fins in items:
                tfins = tuple(
                    out_ids[f - base] if f >= base else f for f in fins
                )
                if gate is Gate.PI:
                    if tfins:
                        raise NetworkError("PI takes no fanins")
                    out_ids.append(self.add_pi())
                elif gate is Gate.T1_CELL:
                    check_arity(gate, len(tfins))
                    out_ids.append(self.add_t1_cell(*tfins))
                else:
                    out_ids.append(self.add_gate(gate, tfins))
            return out_ids

        codes = self._codes
        fout = self._fanout
        refs = self._struct_refs
        code_by_gate = CODE_BY_GATE
        tap_codes = T1_TAP_CODES
        # batch accumulators — committed with bulk extends on success
        acc_codes = bytearray()
        acc_fanins: List[Tuple[int, ...]] = []
        new_fout: List[Dict[int, int]] = []
        new_pis: List[int] = []
        #: pre-batch fanin -> {consumer: multiplicity}; merged at commit
        #: so a failed batch leaves the maintained indices untouched
        pre_fout: Dict[int, Dict[int, int]] = {}
        #: batch index -> duplicate-edge surplus, so commit can compute
        #: refcounts with ``len(fanout_dict)`` instead of summing values
        dup_refs: Dict[int, int] = {}
        # per-enum memos: id() keys hash in C, Gate.__hash__ does not;
        # (gate, arity) validation shares the same int-keyed set
        code_memo: Dict[int, int] = {}
        arity_ok: Set[int] = set()
        put_code = acc_codes.append
        put_fanins = acc_fanins.append
        put_fout = new_fout.append
        get_code = code_memo.get
        node = base
        try:
            for gate, fins in items:
                nf = len(fins)
                gkey = id(gate)
                code = get_code(gkey)
                if code is None:
                    code = code_memo[gkey] = code_by_gate[gate]
                akey = (gkey << 5) | nf  # arity <= MAX_VARIADIC_ARITY < 32
                if akey not in arity_ok:
                    check_arity(gate, nf)
                    arity_ok.add(akey)
                if code in tap_codes:
                    t = fins[0]
                    tcode = acc_codes[t - base] if t >= base else codes[t]
                    if tcode != _C_T1_CELL:
                        raise NetworkError(
                            "T1 tap fanin must be a T1_CELL node"
                        )
                # per-edge effects; out-of-range batch refs (forward or
                # self) surface as IndexError on the accumulator lists.
                # Refcounts and free status of batch nodes are derived
                # from the fanout dicts at commit, not tracked per edge.
                for f in fins:
                    if f >= base:
                        j = f - base
                        dj = new_fout[j]
                        if node in dj:
                            dj[node] += 1
                            dup_refs[j] = dup_refs.get(j, 0) + 1
                        else:
                            dj[node] = 1
                    elif f >= 0:
                        df = pre_fout.get(f)
                        if df is None:
                            df = pre_fout[f] = {}
                        df[node] = df.get(node, 0) + 1
                    else:
                        raise NetworkError(f"fanin {f} does not exist")
                put_code(code)
                put_fanins(tuple(fins))
                put_fout({})
                if code == _C_PI:
                    new_pis.append(node)
                node += 1
        except IndexError:
            raise NetworkError(
                "batch fanin references this or a later batch item"
            ) from None
        if node == base:
            return out_ids
        out_ids = list(range(base, node))
        # commit
        codes.extend(acc_codes)
        self._fanins.extend(acc_fanins)
        fout.extend(new_fout)
        refs.extend(map(len, new_fout))
        for j, extra in dup_refs.items():
            refs[base + j] += extra
        for f, edges in pre_fout.items():
            df = fout[f]
            total = 0
            for consumer, mult in edges.items():
                df[consumer] = df.get(consumer, 0) + mult
                total += mult
            refs[f] += total
        self._pis.extend(new_pis)
        free = self._free
        free.difference_update(pre_fout)
        pi_code = _C_PI
        free.update(
            base + j
            for j, d in enumerate(new_fout)
            if not d and acc_codes[j] != pi_code
        )
        self._epoch += 1
        return out_ids

    def add_t1_cell(self, a: int, b: int, c: int) -> int:
        """Append a T1 cell block over leaves (a, b, c); returns the cell id."""
        fins = (a, b, c)
        n = len(self._codes)
        for f in fins:
            if not 0 <= f < n:
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
        if not 0 <= node < len(self._codes):
            raise NetworkError(f"PO target {node} does not exist")
        if self._codes[node] == _C_T1_CELL:
            raise NetworkError("a T1_CELL has no single output; tap it first")
        self._pos.append(node)
        self._po_names.append(name)
        index = len(self._pos) - 1
        self._po_pos.setdefault(node, []).append(index)
        self._free.discard(node)
        return index

    # -- names ------------------------------------------------------------------

    def set_name(self, node: int, name: str) -> None:
        self._names[node] = name

    def get_name(self, node: int) -> Optional[str]:
        return self._names.get(node)

    # -- structure queries -------------------------------------------------------

    def gate(self, node: int) -> Gate:
        return GATES_BY_CODE[self._codes[node]]

    def fanin(self, node: int) -> Tuple[int, ...]:
        return self._fanins[node]

    def is_pi(self, node: int) -> bool:
        return self._codes[node] == _C_PI

    def is_const(self, node: int) -> bool:
        return node in (CONST0, CONST1)

    def is_logic(self, node: int) -> bool:
        return self._codes[node] not in SOURCE_CODES

    def t1_cells(self) -> List[int]:
        cell = _C_T1_CELL
        return [n for n, c in enumerate(self._codes) if c == cell]

    def t1_taps_of(self, cell: int) -> List[int]:
        codes = self._codes
        fanins = self._fanins
        tap_codes = T1_TAP_CODES
        return sorted(
            n
            for n in self._fanout[cell]
            if codes[n] in tap_codes and fanins[n][0] == cell
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

        Materialised from the fanin tuples and cached per epoch — treat
        the result as immutable.
        """
        if (
            self._fanout_lists_cache is not None
            and self._fanout_lists_epoch == self._epoch
        ):
            return self._fanout_lists_cache
        fanouts: List[List[int]] = [[] for _ in range(len(self._codes))]
        for node, fins in enumerate(self._fanins):
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

        Runs over a counting-sorted fanout index and an int worklist.
        Includes dead nodes; raises
        :class:`CycleError` on combinational loops.  Cached per mutation
        epoch — treat the result as immutable.
        """
        if self._topo_cache is not None and self._topo_epoch == self._epoch:
            return self._topo_cache
        n = len(self._codes)
        fanins = self._fanins
        # flat fanout index by counting sort — consumer ids ascending per
        # driver, multiplicities adjacent, same order the fanout-list
        # materialisation produces
        counts = [0] * n
        for fins in fanins:
            for f in fins:
                counts[f] += 1
        starts = [0] * (n + 1)
        s = 0
        for i in range(n):
            starts[i] = s
            s += counts[i]
        starts[n] = s
        fo = [0] * s
        ptr = starts[:n]
        for v, fins in enumerate(fanins):
            for f in fins:
                fo[ptr[f]] = v
                ptr[f] += 1
        indeg = list(map(len, fanins))
        order = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for j in range(starts[u], starts[u + 1]):
                v = fo[j]
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
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
        lvl = [0] * len(self._codes)
        codes = self._codes
        fanins = self._fanins
        tap_codes = T1_TAP_CODES
        for node in order:
            fins = fanins[node]
            if not fins:
                continue  # lvl already 0
            if codes[node] in tap_codes:
                lvl[node] = lvl[fins[0]]
            else:
                best = 0
                for f in fins:
                    v = lvl[f]
                    if v > best:
                        best = v
                lvl[node] = best + 1
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
        digests: List[Optional[bytes]] = [None] * len(self._codes)
        digests[CONST0] = hashlib.sha256(b"CONST0").digest()
        digests[CONST1] = hashlib.sha256(b"CONST1").digest()
        for index, pi in enumerate(self._pis):
            digests[pi] = hashlib.sha256(b"PI:%d" % index).digest()
        codes = self._codes
        fanins = self._fanins
        commutative = _COMMUTATIVE_CODES
        gates_by_code = GATES_BY_CODE
        sha256 = hashlib.sha256
        for node in self.topological_order():
            if digests[node] is not None:
                continue
            c = codes[node]
            fins = [digests[f] for f in fanins[node]]
            if c in commutative:
                fins.sort()
            digests[node] = sha256(
                gates_by_code[c].name.encode() + b"(" + b"".join(fins) + b")"
            ).digest()
        h = sha256(b"NET:%d:%d|" % (len(self._pis), len(self._pos)))
        for po in self._pos:
            h.update(digests[po])
        result = h.hexdigest()
        self._shash_cache = result
        self._shash_key = key
        return result

    # -- mutation ------------------------------------------------------------------

    def _update_free(self, node: int) -> None:
        """Re-derive one node's free-list membership from its counts."""
        if (
            self._struct_refs[node] == 0
            and not self._po_pos.get(node)
            and self._codes[node] not in SOURCE_CODES
        ):
            self._free.add(node)
        else:
            self._free.discard(node)

    def substitute(self, old: int, new: int) -> int:
        """Redirect every reference to *old* (fanins and POs) to *new*.

        O(fanout of *old*) via the maintained index.  Returns the number
        of rewritten references.  The *old* node stays in the arrays until
        a :meth:`compact`; callers should not re-use it.
        """
        if old == new:
            return 0
        n = len(self._codes)
        if not 0 <= new < n:
            raise NetworkError(f"substitute target {new} does not exist")
        if not 0 <= old < n:
            return 0
        rewritten = 0
        consumers = self._fanout[old]
        fanins = self._fanins
        if consumers:
            moved = 0
            new_out = self._fanout[new]
            for node, mult in list(consumers.items()):
                fins = fanins[node]
                new_fins = tuple(new if f == old else f for f in fins)
                self._hash_retable(node, fins, new_fins)
                fanins[node] = new_fins
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
        if rewritten:
            self._update_free(old)
            self._update_free(new)
        return rewritten

    def replace_fanin(self, node: int, old: int, new: int) -> None:
        """Rewrite one node's fanin tuple only (every occurrence of *old*)."""
        fins = self._fanins[node]
        if old not in fins:
            raise NetworkError(f"{old} is not a fanin of {node}")
        if not 0 <= new < len(self._codes):
            raise NetworkError(f"fanin {new} does not exist")
        if old == new:
            return
        mult = fins.count(old)
        new_fins = tuple(new if f == old else f for f in fins)
        self._hash_retable(node, fins, new_fins)
        self._fanins[node] = new_fins
        out = self._fanout[old]
        out[node] -= mult
        if out[node] == 0:
            del out[node]
        new_out = self._fanout[new]
        new_out[node] = new_out.get(node, 0) + mult
        self._struct_refs[old] -= mult
        self._struct_refs[new] += mult
        self._update_free(old)
        self._update_free(new)
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
        gate = GATES_BY_CODE[self._codes[node]]
        old_key = (gate, tuple(sorted(old_fins)) if gate in _COMMUTATIVE else old_fins)
        if self._hash_table.get(old_key) == node:
            del self._hash_table[old_key]
        new_key = (gate, tuple(sorted(new_fins)) if gate in _COMMUTATIVE else new_fins)
        self._hash_table.setdefault(new_key, node)

    def _rebuild_hash_table(self) -> None:
        table: Dict[Tuple, int] = {}
        fanins = self._fanins
        source = SOURCE_CODES
        for node, c in enumerate(self._codes):
            if c in source:
                continue
            gate = GATES_BY_CODE[c]
            fins = fanins[node]
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
        fanins = self._fanins
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(fanins[u])
        seen.add(CONST0)
        seen.add(CONST1)
        seen.update(self._pis)
        return seen

    def _dead_nodes(self) -> bytearray:
        """Per-node dead flags by refcount cascade from the free-list.

        Seeds are the maintained free set (the exact zero-fanout
        non-source nodes); each death propagates fanin-reference
        decrements, so the result equals the complement of
        :meth:`live_nodes` on any DAG — pure int-array work, no
        reachability set.
        """
        n = len(self._codes)
        dead = bytearray(n)
        counts = self.compute_fanout_counts()
        codes = self._codes
        fanins = self._fanins
        source = SOURCE_CODES
        stack = list(self._free)
        while stack:
            u = stack.pop()
            if dead[u]:
                continue
            dead[u] = 1
            for f in fanins[u]:
                counts[f] -= 1
                if counts[f] == 0 and not dead[f] and codes[f] not in source:
                    stack.append(f)
        return dead

    def compact(self) -> NodeMap:
        """Remove dead nodes in place; returns the old-id -> new-id remap.

        Live node ids are re-assigned as constants, then PIs in interface
        order, then the remaining live nodes in topological order (the
        same id discipline as a from-scratch ``sweep`` rebuild, so the two
        are interchangeable).  Dead nodes are found by the free-list
        refcount cascade and squeezed out by id fix-up over the codes and
        fanin tuples; they are absent from the returned
        :class:`~repro.network.nodemap.NodeMap` and their names are
        dropped.
        """
        order = self.topological_order()
        n = len(self._codes)
        dead = self._dead_nodes()
        remap: Dict[int, int] = {CONST0: CONST0, CONST1: CONST1}
        seq: List[int] = [CONST0, CONST1]
        for pi in self._pis:
            remap[pi] = len(seq)
            seq.append(pi)
        for node in order:
            if node in remap or dead[node]:
                continue
            remap[node] = len(seq)
            seq.append(node)
        new_of = [0] * n
        for old, new in remap.items():
            new_of[old] = new
        renumber = new_of.__getitem__
        # id fix-up, in place (the gates view and holders of net.fanins
        # alias these containers)
        codes = self._codes
        fanins = self._fanins
        new_n = len(seq)
        codes[:] = bytes([codes[old] for old in seq])
        fanins[:] = [tuple(map(renumber, fanins[old])) for old in seq]
        self._pis = [remap[pi] for pi in self._pis]
        self._pos = [remap[po] for po in self._pos]
        self._po_pos = {}
        for i, po in enumerate(self._pos):
            self._po_pos.setdefault(po, []).append(i)
        self._names = {
            remap[u]: name for u, name in self._names.items() if u in remap
        }
        # rebuild the maintained indices from the compacted fanins
        self._fanout[:] = [dict() for _ in range(new_n)]
        self._struct_refs[:] = array("q", bytes(8 * new_n))
        fout = self._fanout
        refs = self._struct_refs
        for node, fins in enumerate(fanins):
            for f in fins:
                out = fout[f]
                out[node] = out.get(node, 0) + 1
                refs[f] += 1
        # every surviving non-source node is referenced (that is what
        # liveness means), so the free-list empties
        self._free.clear()
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
        n = len(self._codes)
        if not (
            len(self._fanins) == len(self._fanout) == len(self._struct_refs) == n
        ):
            raise NetworkError("kernel arrays out of sync")
        if len(self._pos) != len(self._po_names):
            raise NetworkError("PO name list out of sync")
        fresh_fanout: List[Dict[int, int]] = [{} for _ in range(n)]
        fresh_refs = [0] * n
        for node, fins in enumerate(self._fanins):
            # hashable fanins: cut enumeration and hash-consing key on them
            if not isinstance(fins, tuple):
                raise NetworkError(f"fanins of node {node} are not a tuple")
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
        if fresh_refs != list(self._struct_refs):
            raise NetworkError("reference counts stale")
        fresh_po_pos: Dict[int, List[int]] = {}
        for i, po in enumerate(self._pos):
            fresh_po_pos.setdefault(po, []).append(i)
        mine = {k: sorted(v) for k, v in self._po_pos.items() if v}
        if mine != fresh_po_pos:
            raise NetworkError("PO index stale")
        fresh_free = {
            node
            for node in range(n)
            if fresh_refs[node] == 0
            and not fresh_po_pos.get(node)
            and self._codes[node] not in SOURCE_CODES
        }
        if fresh_free != self._free:
            raise NetworkError(
                f"free-list stale: {sorted(self._free)} != {sorted(fresh_free)}"
            )
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
        try:
            dead = self._dead_nodes()
        except Exception:  # cyclic out-of-band edits: liveness undefined
            dead = None
        if dead is not None:
            live = self.live_nodes()
            cascade_live = {node for node in range(n) if not dead[node]}
            if cascade_live != live:
                raise NetworkError(
                    "free-list liveness cascade diverges from PO reachability"
                )
        if self._hash_cons:
            for key, node in self._hash_table.items():
                gate, fins = key
                if self._codes[node] != CODE_BY_GATE[gate]:
                    raise NetworkError(f"hash table gate mismatch at {node}")
                actual = self._fanins[node]
                canon = (
                    tuple(sorted(actual)) if gate in _COMMUTATIVE else actual
                )
                if canon != fins:
                    raise NetworkError(f"hash table fanin mismatch at {node}")

    # -- misc -----------------------------------------------------------------------

    def clone(self) -> "LogicNetwork":
        out = LogicNetwork(self.name)
        # in-place copies: the clone's gates view aliases its code array
        out._codes[:] = self._codes
        out._fanins[:] = self._fanins
        out._pis = list(self._pis)
        out._pos = list(self._pos)
        out._po_names = list(self._po_names)
        out._names = dict(self._names)
        out._fanout[:] = [dict(d) for d in self._fanout]
        out._struct_refs[:] = self._struct_refs
        out._po_pos = {k: list(v) for k, v in self._po_pos.items()}
        out._free = set(self._free)
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
        out._sim_schedule = self._sim_schedule
        out._sim_schedule_epoch = self._sim_schedule_epoch
        out._hash_cons = self._hash_cons
        out._hash_table = dict(self._hash_table)
        return out

    def stats(self) -> Dict[str, int]:
        from collections import Counter

        counter = Counter(GATES_BY_CODE[c].name for c in self._codes)
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
            f"LogicNetwork(name={self.name!r}, gates={s['gates']}, "
            f"pis={s['pis']}, pos={s['pos']}, t1={s['t1_cells']})"
        )


"""k-feasible priority cut enumeration with cut truth tables.

Follows Cong et al. (FPGA'99, ref. [8] of the paper): the cut set of a
node is built by merging the cut sets of its fanins, keeping only cuts
with at most *k* leaves, filtering dominated cuts, and pruning to the
``cuts_per_node`` best (smaller first) to bound the blow-up.

Each cut carries the truth table of the node over the cut leaves — this
is what Boolean matching consumes.  The enumeration kernel reads gates
and fanins straight off the network (``net.gate_codes`` /
``net.fanins``) and stores every node's cuts as **flat parallel row
arrays** — one offset/count span per node into a shared row-major
``(leaf tuple, table bits)`` store — instead of per-node ``Cut`` lists.
``Cut`` / ``TruthTable`` objects are materialised lazily, only for the
nodes a consumer actually touches; the hot consumers (T1 matching, the
rewrite scorer) read the raw rows directly.

The merge/dominance loop works on sorted leaf tuples with early
subsumption exits (``|A∪B| == |A|`` proves ``B ⊆ A`` without sorting),
dedups through a dict keyed by the merged tuple, and is memoised per
fanin tuple — it never depends on the gate, so e.g. the XOR/AND node
pairs of half-adders share one pass.  Table composition expands each
fanin table to the union leaf set through :func:`_spread_bits` (insert
irrelevant variables, lowest position first), memoised under a single
packed int key — no tuple hashing on the hot path.

Whole databases are cached per network mutation epoch by
:func:`cached_cut_database`.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.network.gates import (
    CODE_BY_GATE,
    GATES_BY_CODE,
    Gate,
    T1_TAP_CODES,
)
from repro.network.logic_network import LogicNetwork
from repro.network.traversal import topological_order
from repro.network.truth_table import TruthTable

_C_CONST0 = CODE_BY_GATE[Gate.CONST0]
_C_CONST1 = CODE_BY_GATE[Gate.CONST1]
_C_PI = CODE_BY_GATE[Gate.PI]
_C_T1_CELL = CODE_BY_GATE[Gate.T1_CELL]
#: nodes that get only the trivial cut ``{node}``
_TRIVIAL_ONLY_CODES = frozenset({_C_PI, _C_T1_CELL} | T1_TAP_CODES)
#: table bits of the trivial cut's identity function (x0 over one var)
_TT_VAR0_BITS = TruthTable.var(0, 1).bits


def leaf_signature(leaves: Tuple[int, ...]) -> int:
    """64-bit hashed bitmask of a leaf set (bit ``leaf % 64`` per leaf).

    ``sig(A) & ~sig(B) != 0`` proves A ⊄ B, so consumers (e.g. the T1
    matcher) can reject most non-subset pairs with two int ops and only
    fall back to an exact set comparison on a signature hit (the classic
    ABC filter).  Bounded at 64 bits on purpose: a ``1 << node_id`` exact
    mask would make every cut carry a multi-KB big int on 20k-node
    networks.  The enumeration kernel itself does not use hashed
    signatures — it merges sorted leaf tuples directly, which cannot
    collide.
    """
    sig = 0
    for leaf in leaves:
        sig |= 1 << (leaf & 63)
    return sig


@dataclass(frozen=True)
class Cut:
    """A cut of some node: sorted leaf tuple + function over those leaves.

    ``signature`` is the precomputed :func:`leaf_signature` of the
    leaves, consumed by the dominance filter.
    """

    leaves: Tuple[int, ...]
    table: TruthTable
    signature: int = field(default=-1, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.signature < 0:
            object.__setattr__(self, "signature", leaf_signature(self.leaves))

    def dominates(self, other: "Cut") -> bool:
        """True if this cut's leaves are a subset of the other's."""
        if self.signature & ~other.signature:
            return False
        return set(self.leaves) <= set(other.leaves)

    def __len__(self) -> int:
        return len(self.leaves)


class _CutsView(Sequence):
    """Read-only per-node view over a database's flat row storage.

    Backwards-compatible stand-in for the old ``List[List[Cut]]``
    attribute: ``len`` is the node count, ``view[node]`` materialises
    (and caches) that node's ``Cut`` list.
    """

    __slots__ = ("_db",)

    def __init__(self, db: "CutDatabase"):
        self._db = db

    def __len__(self) -> int:
        return len(self._db._rcount)

    def __getitem__(self, node: int) -> List[Cut]:
        return self._db._node_cuts(node)

    def __iter__(self) -> Iterator[List[Cut]]:
        mat = self._db._node_cuts
        return (mat(n) for n in range(len(self)))


class CutDatabase:
    """Cut sets for every node of a network, stored as flat row arrays.

    Internally each node owns a contiguous span (``offset`` + ``count``,
    ``array('q')``) of a row-major store holding one ``(sorted leaf
    tuple, table bits)`` pair per cut — no per-node list objects, no
    eager ``Cut``/``TruthTable`` boxes.  The object API is unchanged:
    ``db[node]`` (and the ``db.cuts`` view) materialises a node's
    ``Cut`` list on first touch and caches it, so repeated access keeps
    identity (``db[node][i] is db[node][i]``).  Raw-row consumers use
    :meth:`node_rows` / :meth:`raw_rows` and never allocate cut objects.

    ``epoch`` records the network mutation epoch the cuts were
    enumerated at (``-1`` for hand-built databases);
    :func:`cached_cut_database` uses it to decide reuse.
    """

    def __init__(
        self,
        rstart: Sequence[int],
        rcount: Sequence[int],
        row_leaves: List[Tuple[int, ...]],
        row_bits: List[int],
        k: int,
        epoch: int = -1,
        cuts_per_node: int = 8,
        include_trivial: bool = True,
    ):
        """Adopt flat row storage: node ``i`` owns rows
        ``rstart[i] : rstart[i] + rcount[i]`` of *row_leaves*/*row_bits*."""
        self._rstart = array("q", rstart)
        self._rcount = array("q", rcount)
        self._row_leaves = row_leaves
        self._row_bits = row_bits
        self.k = k
        self.epoch = epoch
        self.cuts_per_node = cuts_per_node
        self.include_trivial = include_trivial
        #: lazily materialised per-node Cut lists (identity-stable)
        self._mat: Dict[int, List[Cut]] = {}

    @property
    def cuts(self) -> _CutsView:
        """Per-node ``List[Cut]`` view (lazily materialised)."""
        return _CutsView(self)

    def _node_cuts(self, node: int) -> List[Cut]:
        got = self._mat.get(node)
        if got is None:
            lo = self._rstart[node]
            rl = self._row_leaves
            rb = self._row_bits
            got = [
                Cut(rl[i], TruthTable(rb[i], len(rl[i])))
                for i in range(lo, lo + self._rcount[node])
            ]
            self._mat[node] = got
        return got

    def __getitem__(self, node: int) -> List[Cut]:
        return self._node_cuts(node)

    def node_rows(self, node: int) -> range:
        """Row indices of *node*'s cuts (index into :meth:`raw_rows`)."""
        lo = self._rstart[node]
        return range(lo, lo + self._rcount[node])

    def raw_rows(self) -> Tuple[List[Tuple[int, ...]], List[int]]:
        """The shared ``(leaf tuples, table bits)`` row stores.

        Zero-copy access for kernel consumers (T1 matching, rewrite
        scoring); treat both lists as immutable.
        """
        return self._row_leaves, self._row_bits

    def nbytes(self) -> int:
        """Approximate byte size of the flat cut storage.

        Counts the span arrays, the two row containers, and every row's
        leaf tuple and table-bits int.  Shared leaf integers and lazily
        materialised ``Cut`` boxes are excluded — this reports the cost
        of the database itself, which bench_scale puts next to
        tracemalloc peaks.
        """
        gs = sys.getsizeof
        total = (
            gs(self._rstart) + gs(self._rcount)
            + gs(self._row_leaves) + gs(self._row_bits)
        )
        for t in self._row_leaves:
            total += gs(t)
        for b in self._row_bits:
            total += gs(b)
        return total


def _spread_bits(bits: int, pmask: int, k: int) -> int:
    """Expand *bits* to a table over ``k`` variables.

    *bits* is a function of the variables at the set positions of
    *pmask* (taken in ascending order — leaf tuples are sorted, and a
    fanin cut's leaves are a subsequence of the union's, so the variable
    order never permutes).  Missing positions are inserted lowest-first:
    when position ``p`` is inserted every position below it is already
    present, so the insertion duplicates each block of ``2**p`` table
    rows in place.
    """
    miss = ((1 << k) - 1) & ~pmask
    n = pmask.bit_count()
    while miss:
        low = miss & -miss
        miss ^= low
        block = low  # == 1 << p, and 2**p rows per duplicated block
        width = 1 << n
        bmask = (1 << block) - 1
        out = 0
        src = 0
        dst = 0
        while src < width:
            piece = (bits >> src) & bmask
            out |= (piece | (piece << block)) << dst
            src += block
            dst += block << 1
        bits = out
        n += 1
    return bits


# -- gate evaluation over raw table ints, dispatched by gate code ------------

def _e_buf(v, m):
    return v[0]


def _e_not(v, m):
    return v[0] ^ m


def _e_and(v, m):
    if len(v) == 2:
        return v[0] & v[1]
    out = v[0]
    for x in v[1:]:
        out &= x
    return out


def _e_nand(v, m):
    return _e_and(v, m) ^ m


def _e_or(v, m):
    if len(v) == 2:
        return v[0] | v[1]
    out = v[0]
    for x in v[1:]:
        out |= x
    return out


def _e_nor(v, m):
    return _e_or(v, m) ^ m


def _e_xor(v, m):
    if len(v) == 2:
        return v[0] ^ v[1]
    out = v[0]
    for x in v[1:]:
        out ^= x
    return out


def _e_xnor(v, m):
    return _e_xor(v, m) ^ m


def _e_maj3(v, m):
    a, b, c = v
    return (a & b) | (a & c) | (b & c)


#: gate code -> table evaluator; None for gates cut composition never sees
_EVAL_BY_CODE = tuple(
    {
        Gate.BUF: _e_buf,
        Gate.NOT: _e_not,
        Gate.AND: _e_and,
        Gate.NAND: _e_nand,
        Gate.OR: _e_or,
        Gate.NOR: _e_nor,
        Gate.XOR: _e_xor,
        Gate.XNOR: _e_xnor,
        Gate.MAJ3: _e_maj3,
    }.get(g)
    for g in GATES_BY_CODE
)


def _merge_spans(
    spans: Sequence[Tuple[int, int]],
    row_leaves: List[Tuple[int, ...]],
    k: int,
    cap: int,
) -> List[Tuple[Tuple[int, ...], int, Tuple[Tuple[int, int], ...]]]:
    """Merged, dominance-filtered, pruned leaf sets of one node.

    *spans* gives each fanin's ``(lo, hi)`` row range in the shared
    *row_leaves* store.  Returns at most *cap* entries ``(leaf tuple,
    len, parts)`` in canonical ``(len, tuple)`` order, where *parts*
    records per fanin the chosen row index and the dense position mask
    of that row's leaves within the merged tuple (what table composition
    spreads on).  Which combo wins a dedup tie does not matter for the
    composed table — the node function over a fixed leaf set is unique.

    All set work runs on sorted leaf tuples: ``|A∪B| == |A|`` proves
    ``B ⊆ A`` (the union is already canonical — no sort), dedup is a
    dict on tuples, dominance a subset probe against the kept antichain.
    """
    chosen: Dict[Tuple[int, ...], Tuple[int, ...]]
    if len(spans) == 2:
        # the dominant shape after decomposition: a hand-rolled double loop
        (alo, ahi), (blo, bhi) = spans
        chosen = {}
        for ria in range(alo, ahi):
            ta = row_leaves[ria]
            sa = set(ta)
            na = len(ta)
            for rib in range(blo, bhi):
                tb = row_leaves[rib]
                u = sa.union(tb)
                lu = len(u)
                if lu == na:
                    key = ta
                elif lu == len(tb):
                    key = tb
                elif lu > k:
                    continue
                else:
                    key = tuple(sorted(u))
                if key not in chosen:
                    chosen[key] = (ria, rib)
    else:
        # wider gates: fold the fanin lists pairwise, pruning and
        # deduping the intermediate unions.  Unions are associative and
        # monotone in size, so dropping an infeasible or duplicate
        # prefix never loses a feasible final leaf set — this turns the
        # full cut-set product (|cuts|^arity combos) into
        # |intermediates| * |cuts| work per level.
        lo0, hi0 = spans[0]
        acc: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [
            (row_leaves[ri], (ri,)) for ri in range(lo0, hi0)
        ]
        for lo, hi in spans[1:]:
            seen = set()
            nxt: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
            for ta, combo in acc:
                sa = set(ta)
                na = len(ta)
                for ri in range(lo, hi):
                    tb = row_leaves[ri]
                    u = sa.union(tb)
                    lu = len(u)
                    if lu == na:
                        key = ta
                    elif lu == len(tb):
                        key = tb
                    elif lu > k:
                        continue
                    else:
                        key = tuple(sorted(u))
                    if key in seen:
                        continue
                    seen.add(key)
                    nxt.append((key, combo + (ri,)))
            acc = nxt
        chosen = dict(acc)

    # dominance filter over the canonical (len, tuple) order; kept
    # entries form the minimal antichain
    entries = sorted(chosen.items(), key=lambda e: (len(e[0]), e[0]))
    kept_raw: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    kept_sets: List[set] = []
    for key, combo in entries:
        ks = set(key)
        dominated = False
        for prev in kept_sets:
            if prev <= ks:
                dominated = True
                break
        if dominated:
            continue
        kept_raw.append((key, combo))
        kept_sets.append(ks)
    del kept_raw[cap:]

    # attach, per surviving row, the position mask of each fanin cut's
    # leaves inside the merged tuple (what _spread_bits expands on)
    kept: List[Tuple[Tuple[int, ...], int, Tuple[Tuple[int, int], ...]]] = []
    for key, combo in kept_raw:
        kk = len(key)
        full = (1 << kk) - 1
        idx = key.index
        parts = []
        for ri in combo:
            ta = row_leaves[ri]
            if len(ta) == kk:
                pm = full
            else:
                pm = 0
                for leaf in ta:
                    pm |= 1 << idx(leaf)
            parts.append((ri, pm))
        kept.append((key, kk, tuple(parts)))
    return kept


def _compose_kept(
    evalf,
    kept: Sequence[Tuple[Tuple[int, ...], int, Tuple[Tuple[int, int], ...]]],
    row_bits: List[int],
    spread_memo: Dict[int, int],
) -> List[Tuple[Tuple[int, ...], int]]:
    """``(leaves, table bits)`` rows from merged entries.

    Each fanin table is spread onto the union leaf set; the spread is
    memoised under a packed ``(bits, pmask, k)`` int key (the distinct
    combinations number a few thousand at k<=4, so nearly every lookup
    is a dict hit).
    """
    rows: List[Tuple[Tuple[int, ...], int]] = []
    for key, kk, parts in kept:
        full = (1 << kk) - 1
        tts = []
        for ri, pm in parts:
            bits = row_bits[ri]
            if pm == full:
                tts.append(bits)
            elif kk < 16:
                mkey = ((bits << kk) | pm) << 5 | kk
                t = spread_memo.get(mkey)
                if t is None:
                    t = _spread_bits(bits, pm, kk)
                    spread_memo[mkey] = t
                tts.append(t)
            else:  # huge cuts: skip the memo, keys would not pack
                tts.append(_spread_bits(bits, pm, kk))
        rows.append((key, evalf(tts, (1 << (1 << kk)) - 1)))
    return rows


def enumerate_cuts(
    net: LogicNetwork,
    k: int = 3,
    cuts_per_node: int = 8,
    include_trivial: bool = True,
    order: Optional[Sequence[int]] = None,
) -> CutDatabase:
    """Enumerate priority cuts for every node.

    Parameters
    ----------
    k:
        Maximum number of cut leaves.
    cuts_per_node:
        Priority-cut limit (smallest cuts kept); the trivial cut ``{node}``
        is always kept in addition so merges never starve.

    T1 blocks: the cell and its taps get only trivial cuts (they are
    already mapped; re-matching inside them is pointless).

    Reads gate codes and fanin tuples straight off the network and
    stores results as flat row arrays, without allocating any ``Cut`` /
    ``TruthTable`` objects.
    """
    if k < 1:
        raise NetworkError("cut size k must be >= 1")
    if order is None:
        order = topological_order(net)
    codes = net.gate_codes
    fanins = net.fanins
    n = net.num_nodes()
    rstart = [0] * n
    rcount = [0] * n
    row_leaves: List[Tuple[int, ...]] = []
    row_bits: List[int] = []
    merge_memo: Dict[Tuple[int, ...], tuple] = {}
    spread_memo: Dict[int, int] = {}
    evals = _EVAL_BY_CODE
    trivial_only = _TRIVIAL_ONLY_CODES
    c0 = _C_CONST0
    c1 = _C_CONST1
    var0 = _TT_VAR0_BITS
    append_leaves = row_leaves.append
    append_bits = row_bits.append

    for node in order:
        c = codes[node]
        start = len(row_bits)
        rstart[node] = start
        if c == c0 or c == c1:
            append_leaves(())
            append_bits(1 if c == c1 else 0)
            rcount[node] = 1
            continue
        if c in trivial_only:
            append_leaves((node,))
            append_bits(var0)
            rcount[node] = 1
            continue

        fins = fanins[node]
        kept = merge_memo.get(fins)
        if kept is None:
            spans = [(rstart[f], rstart[f] + rcount[f]) for f in fins]
            kept = _merge_spans(spans, row_leaves, k, cuts_per_node)
            merge_memo[fins] = kept
        for key, bits in _compose_kept(evals[c], kept, row_bits, spread_memo):
            append_leaves(key)
            append_bits(bits)
        if include_trivial:
            append_leaves((node,))
            append_bits(var0)
        rcount[node] = len(row_bits) - start

    return CutDatabase(
        rstart, rcount, row_leaves, row_bits,
        k, net.epoch, cuts_per_node, include_trivial,
    )


def cached_cut_database(
    net: LogicNetwork,
    k: int = 3,
    cuts_per_node: int = 8,
    include_trivial: bool = True,
) -> CutDatabase:
    """Enumerate cuts once per ``(network epoch, parameters)``.

    The database is cached on the network object and reused while
    ``net.epoch`` is unchanged; any structural mutation (``substitute``,
    ``replace_fanin``, ``compact``, ``add_gate``, ...) bumps the epoch
    and invalidates it on the next call.  Treat the returned database as
    immutable — it is shared between callers.

    ``net.clone()`` does not carry the cache over (the clone starts
    cold), so caches never alias across network copies.
    """
    cache: Optional[Dict] = getattr(net, "_cut_db_cache", None)
    if cache is None:
        cache = {}
        net._cut_db_cache = cache  # type: ignore[attr-defined]
    key = (k, cuts_per_node, include_trivial)
    db = cache.get(key)
    if db is not None and db.epoch == net.epoch:
        return db
    db = enumerate_cuts(
        net, k=k, cuts_per_node=cuts_per_node, include_trivial=include_trivial
    )
    cache[key] = db
    return db


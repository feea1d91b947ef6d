"""Incremental schedule kernel (§II-B): delta-evaluated stage moves.

The coordinate-descent heuristic of :mod:`repro.core.phase_assignment`
optimises the *true* insertion cost

    Σ_nets  max_v ⌈(σ_v − σ_d)/n⌉ − 1    (shared per-net chains, eq. 5)
  + Σ_T1    c_T1(σ_T1, fanin stages)     (staggering cost, eq. 4)
  + PO balancing against the boundary σ_max + 1.

The seed implementation re-summed every incident term from scratch for
every candidate stage of every cell.  :class:`StageSchedule` maintains
the cost terms instead, exploiting two structural facts:

* a net's chain cost is **monotone in its consumer stages** —
  ``max_v edge_dffs(σ_v − σ_d, n) == edge_dffs(max_v σ_v − σ_d, n)`` and
  feasibility only needs ``min_v σ_v − σ_d ≥ 1`` — so one min/max
  multiset of consumer stages per net prices a *driver* move in O(1) and
  a *consumer* move in amortised O(1);
* the PO boundary is ``max stage + 1``, so a maintained stage histogram
  keeps it current across moves instead of once per sweep (the seed's
  per-sweep snapshot let `local_cost` price PO balancing against a stale
  boundary);
* a boundary shift b0 → b1 reprices *every* PO net, but the sum of the
  feasible PO-net terms depends only on b once the stages are fixed.
  The kernel caches that sum, ``P(b)``, per boundary value it has been
  asked about and keeps each entry current across moves, so a probe
  that shifts the boundary adds ``P(b1) − P(b0)`` instead of looping
  over all #PO nets.

:meth:`cost_if_moved` prices a candidate without mutating anything;
:meth:`apply_move` commits it.  A probe touches only the terms incident
to the moved cell, so a sweep costs O(moves × changed terms) instead of
O(moves × candidates × incident-edges); an applied move additionally
restores the stored PO terms when it shifts the boundary.

Every committed schedule is feasible: the constructor and
:meth:`apply_move` raise :class:`~repro.errors.TimingError` rather than
store an infeasible term, so the running total is one finite float and
only a probe can return INF.

The T1 staggering cost is memoised *per kernel instance* (the memo dies
with the schedule).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dff_insertion import t1_input_cost
from repro.errors import TimingError
from repro.sfq.netlist import CellKind, NetlistStructure, SFQNetlist, Signal

INF = float("inf")


def t1_lower_bound(fanin_stages: Sequence[int]) -> int:
    """Eq. 3: σ(T1) ≥ max(σ(i1)+3, σ(i2)+2, σ(i3)+1), fanins sorted."""
    s = sorted(fanin_stages)
    return max(s[0] + 3, s[1] + 2, s[2] + 1)


def asap_stages(structure: NetlistStructure) -> List[Optional[int]]:
    """Earliest feasible stage per cell (PIs at 0)."""
    nl = structure.netlist
    stages: List[Optional[int]] = [None] * len(nl.cells)
    for idx in structure.order:
        cell = nl.cells[idx]
        if cell.kind is CellKind.PI:
            stages[idx] = 0
            continue
        if not cell.clocked:
            continue
        fin = [stages[d] for d in structure.fanin_drivers[idx]]
        if any(f is None for f in fin):
            raise TimingError(f"cell {idx} depends on an unstaged cell")
        if structure.is_t1[idx]:
            stages[idx] = t1_lower_bound(fin)  # type: ignore[arg-type]
        else:
            stages[idx] = (max(fin) + 1) if fin else 1  # type: ignore[arg-type]
    return stages


class _StageBag:
    """Multiset of consumer stages with maintained min/max.

    ``add``/``remove`` are O(1) except when an extreme value drains,
    which rescans the (few) distinct stage values; ``peek_moved`` prices
    a move without mutating.
    """

    __slots__ = ("counts", "mn", "mx")

    def __init__(self, stages: Sequence[int] = ()):
        self.counts: Dict[int, int] = {}
        self.mn: Optional[int] = None
        self.mx: Optional[int] = None
        for s in stages:
            self.add(s)

    def add(self, s: int, k: int = 1) -> None:
        c = self.counts
        c[s] = c.get(s, 0) + k
        if self.mx is None or s > self.mx:
            self.mx = s
        if self.mn is None or s < self.mn:
            self.mn = s

    def remove(self, s: int, k: int = 1) -> None:
        c = self.counts
        left = c[s] - k
        if left:
            c[s] = left
            return
        del c[s]
        if not c:
            self.mn = self.mx = None
            return
        if s == self.mx:
            self.mx = max(c)
        if s == self.mn:
            self.mn = min(c)

    def peek_moved(self, old: int, new: int, k: int = 1) -> Tuple[int, int]:
        """(min, max) after moving *k* occurrences of *old* to *new*."""
        c = self.counts
        drained = c.get(old, 0) == k
        mx = self.mx
        if new >= mx:  # type: ignore[operator]
            mx = new
        elif old == mx and drained:
            mx = new
            for v in c:
                if v != old and v > mx:
                    mx = v
        mn = self.mn
        if new <= mn:  # type: ignore[operator]
            mn = new
        elif old == mn and drained:
            mn = new
            for v in c:
                if v != old and v < mn:
                    mn = v
        return mn, mx  # type: ignore[return-value]


def _net_term_cost(
    ds: int, mn: Optional[int], mx: Optional[int], boundary: Optional[int], n: int
) -> float:
    """Shared-chain DFFs of one net from its consumer-stage extremes.

    INF when any consumer is not strictly later than the driver; the PO
    *boundary* (None for a net that drives no PO) contributes only when
    it lies past the driver (matching the seed's `_net_cost`).  A gap
    g >= 1 costs ``(g - 1) // n`` DFFs, as
    :func:`~repro.sfq.multiphase.edge_dffs` without its gap check.
    """
    worst = 0
    if mx is not None:
        if mn - ds < 1:  # type: ignore[operator]
            return INF
        worst = (mx - ds - 1) // n
    if boundary is not None:
        gap = boundary - ds
        if gap >= 1:
            w = (gap - 1) // n
            if w > worst:
                worst = w
    return float(worst)


class StageSchedule:
    """Maintained stage vector + per-net / per-T1 cost terms.

    Owns ``stages`` (read it freely, mutate only through
    :meth:`apply_move`), the running total cost and the PO boundary,
    kept current across every move.
    """

    def __init__(
        self,
        netlist: SFQNetlist,
        *,
        stages: Optional[Sequence[Optional[int]]] = None,
        structure: Optional[NetlistStructure] = None,
    ):
        st = structure if structure is not None else netlist.structure()
        self.netlist = netlist
        self.st = st
        self.n = st.n
        self.stages: List[Optional[int]] = (
            list(stages) if stages is not None else asap_stages(st)
        )
        self.moves_evaluated = 0
        self.moves_applied = 0
        self._t1_memo: Dict[Tuple[Tuple[int, ...], int], float] = {}
        # P(b) per probed PO boundary b (see _po_total)
        self._po_totals: Dict[int, float] = {}

        cells = netlist.cells
        # consumer-stage multiset per net + consumer multiplicity per net
        self._bags: Dict[Signal, _StageBag] = {}
        self._net_mult: Dict[Signal, Dict[int, int]] = {}
        for sig, cons in st.nets.items():
            mult: Dict[int, int] = {}
            for c in cons:
                mult[c] = mult.get(c, 0) + 1
            self._net_mult[sig] = mult
            self._bags[sig] = _StageBag(
                [self.stages[c] for c in cons]  # type: ignore[list-item]
            )
        # per-cell: nets consumed as an ordinary consumer, with multiplicity
        self._consumed: List[Dict[Signal, int]] = [{} for _ in cells]
        for sig, mult in self._net_mult.items():
            for c, k in mult.items():
                self._consumed[c][sig] = k
        # stage histogram of the clocked cells -> live PO boundary
        counts: Dict[int, int] = {}
        for i in range(len(cells)):
            s = self.stages[i]
            if st.clocked[i] and s is not None:
                counts[s] = counts.get(s, 0) + 1
        self._stage_counts = counts
        self._max_clocked = max(counts) if counts else 0
        # cost terms and running total
        self._net_cost: Dict[Signal, float] = {}
        self._t1_cost: Dict[int, float] = {}
        self._total = 0.0
        b = self.boundary()
        for sig, bag in self._bags.items():
            ds = self.stages[sig[0]]
            if ds is None:
                raise TimingError(f"net driver {sig[0]} has no stage")
            cost = _net_term_cost(
                ds, bag.mn, bag.mx, b if sig in st.po_signals else None, self.n
            )
            if cost == INF:
                raise TimingError(f"net {sig}: a consumer is not after its driver")
            self._net_cost[sig] = cost
            self._total += cost
        for i, is_t1 in enumerate(st.is_t1):
            if not is_t1:
                continue
            cost = self._t1(
                self.stages[i],  # type: ignore[arg-type]
                [self.stages[d] for d in st.fanin_drivers[i]],  # type: ignore[misc]
            )
            if cost == INF:
                raise TimingError(f"T1 {i}: no feasible input staggering")
            self._t1_cost[i] = cost
            self._total += cost

    # -- cost primitives ----------------------------------------------------

    def _t1(self, t_stage: int, fanin_stages: Sequence[int]) -> float:
        """Memoised staggering cost of one T1 term (eq. 4).

        The cost depends only on the sorted gaps and on the window head
        ``min(σ_T1, n)`` (a T1 closer than n stages to stage 0 has a
        clipped freshness window), so the T1 is priced translated to that
        head; its fanins may land below 0 there, as insertion's chains
        start wherever the driver sits.
        """
        gaps = tuple(sorted(t_stage - s for s in fanin_stages))
        if gaps[0] < 1:
            return INF
        head = min(t_stage, self.n)
        key = (gaps, head)
        memo = self._t1_memo
        cost = memo.get(key)
        if cost is None:
            cost = t1_input_cost(head, [head - g for g in gaps], self.n)
            memo[key] = cost
        return cost

    def total(self) -> float:
        """The maintained schedule cost (always finite)."""
        return self._total

    def boundary(self) -> int:
        """The live PO-balancing boundary (max clocked stage + 1)."""
        return self._max_clocked + 1

    def _peek_max_clocked(self, s0: int, s: int) -> int:
        """Max clocked stage after moving one clocked cell s0 -> s."""
        mx = self._max_clocked
        if s >= mx:
            return s
        counts = self._stage_counts
        if s0 == mx and counts[s0] == 1:
            m = s
            for v in counts:
                if v != s0 and v > m:
                    m = v
            return m
        return mx

    # -- move evaluation ----------------------------------------------------

    def cost_if_moved(self, x: int, s: int) -> float:
        """Total schedule cost if cell *x* moved to stage *s* (no mutation).

        INF as soon as one incident term would be infeasible.  O(terms
        incident to x).  A move that shifts the PO boundary from b0 to b1
        prices every PO net it does not touch through the cached
        per-boundary totals, ``P(b1) − P(b0)``, so it costs amortised
        O(terms incident to x) as well rather than O(#PO nets).
        """
        s0 = self.stages[x]
        if s == s0:
            return self._total
        self.moves_evaluated += 1
        return self._probe(x, s0, s)  # type: ignore[arg-type]

    def _probe(self, x: int, s0: int, s: int) -> float:
        """:meth:`cost_if_moved` for s != s0, without counting the probe."""
        st = self.st
        stages = self.stages
        n = self.n
        net_cost = self._net_cost
        bags = self._bags
        fin = self._total
        b0 = self.boundary()
        b1 = b0
        if st.clocked[x]:
            b1 = self._peek_max_clocked(s0, s) + 1
        po_signals = st.po_signals
        driven = st.signals_of_cell[x]
        consumed = self._consumed[x]
        # nets driven by x: only the driver stage changes
        for sig in driven:
            bag = bags[sig]
            new = _net_term_cost(
                s, bag.mn, bag.mx, b1 if sig in po_signals else None, n
            )
            if new == INF:
                return INF
            fin += new - net_cost[sig]
        # nets x consumes: one consumer entry moves in the stage multiset
        for sig, k in consumed.items():
            bag = bags[sig]
            mn, mx = bag.peek_moved(s0, s, k)
            new = _net_term_cost(
                stages[sig[0]],  # type: ignore[arg-type]
                mn,
                mx,
                b1 if sig in po_signals else None,
                n,
            )
            if new == INF:
                return INF
            fin += new - net_cost[sig]
        # T1 terms fed by x (and x's own term when x is a T1)
        for t in st.t1_consumers[x]:
            fins = [s if d == x else stages[d] for d in st.fanin_drivers[t]]
            new = self._t1(stages[t], fins)  # type: ignore[arg-type]
            if new == INF:
                return INF
            fin += new - self._t1_cost[t]
        if st.is_t1[x]:
            fins = [stages[d] for d in st.fanin_drivers[x]]
            new = self._t1(s, fins)  # type: ignore[arg-type]
            if new == INF:
                return INF
            fin += new - self._t1_cost[x]
        # boundary shift: every PO net moves from its b0 term to its b1
        # term.  P(b1) − P(b0) covers them all; the nets repriced above
        # already counted their move, so take theirs back out.
        if b1 != b0:
            fin += self._po_total(b1) - self._po_total(b0)
            for sig in driven:
                if sig in po_signals:
                    bag = bags[sig]
                    fin -= (
                        _net_term_cost(s0, bag.mn, bag.mx, b1, n)  # type: ignore[arg-type]
                        - net_cost[sig]
                    )
            for sig in consumed:
                if sig in po_signals:
                    bag = bags[sig]
                    fin -= (
                        _net_term_cost(stages[sig[0]], bag.mn, bag.mx, b1, n)  # type: ignore[arg-type]
                        - net_cost[sig]
                    )
        return fin

    def _po_total(self, b: int) -> float:
        """P(b): the PO-net terms priced against boundary *b*.

        Computed once per boundary value and then kept current by
        :meth:`apply_move` (never cleared).  Terms are whole numbers, so
        the cached sum is exact whatever order it was accumulated in.
        """
        tot = self._po_totals.get(b)
        if tot is None:
            stages = self.stages
            bags = self._bags
            n = self.n
            tot = 0.0
            for sig in self.st.po_signals:
                bag = bags[sig]
                tot += _net_term_cost(
                    stages[sig[0]], bag.mn, bag.mx, b, n  # type: ignore[arg-type]
                )
            self._po_totals[b] = tot
        return tot

    def _shift_po_totals(self, sigs: Sequence[Signal], sign: float) -> None:
        """Add (sign=1) or remove (sign=-1) *sigs*' terms in every P(b)."""
        totals = self._po_totals
        stages = self.stages
        n = self.n
        for sig in sigs:
            bag = self._bags[sig]
            ds = stages[sig[0]]
            mn, mx = bag.mn, bag.mx
            for b in totals:
                totals[b] += sign * _net_term_cost(ds, mn, mx, b, n)  # type: ignore[arg-type]

    def apply_move(self, x: int, s: int) -> None:
        """Commit the move of cell *x* to stage *s*, updating every term.

        Raises :class:`TimingError`, leaving the schedule unchanged, when
        the move would make an incident term infeasible.
        """
        s0 = self.stages[x]
        if s == s0:
            return
        if self._probe(x, s0, s) == INF:  # type: ignore[arg-type]
            raise TimingError(f"moving cell {x} from stage {s0} to {s} is infeasible")
        self.moves_applied += 1
        st = self.st
        n = self.n
        b0 = self.boundary()
        if st.clocked[x]:
            counts = self._stage_counts
            counts[s] = counts.get(s, 0) + 1
            left = counts[s0] - 1  # type: ignore[index]
            if left:
                counts[s0] = left  # type: ignore[index]
            else:
                del counts[s0]  # type: ignore[arg-type]
            if s > self._max_clocked:
                self._max_clocked = s
            elif s0 == self._max_clocked and s0 not in counts:
                self._max_clocked = max(counts)
        b1 = self.boundary()
        po_signals = st.po_signals
        touched_po: List[Signal] = []
        if self._po_totals:
            touched_po = [sig for sig in st.signals_of_cell[x] if sig in po_signals]
            touched_po += [sig for sig in self._consumed[x] if sig in po_signals]
            self._shift_po_totals(touched_po, -1.0)
        self.stages[x] = s
        stages = self.stages
        for sig in st.signals_of_cell[x]:
            bag = self._bags[sig]
            self._set_net_cost(
                sig,
                _net_term_cost(
                    s, bag.mn, bag.mx, b1 if sig in po_signals else None, n
                ),
            )
        for sig, k in self._consumed[x].items():
            bag = self._bags[sig]
            bag.remove(s0, k)  # type: ignore[arg-type]
            bag.add(s, k)
            self._set_net_cost(
                sig,
                _net_term_cost(
                    stages[sig[0]],  # type: ignore[arg-type]
                    bag.mn,
                    bag.mx,
                    b1 if sig in po_signals else None,
                    n,
                ),
            )
        for t in st.t1_consumers[x]:
            fins = [stages[d] for d in st.fanin_drivers[t]]
            self._set_t1_cost(t, self._t1(stages[t], fins))  # type: ignore[arg-type]
        if st.is_t1[x]:
            fins = [stages[d] for d in st.fanin_drivers[x]]
            self._set_t1_cost(x, self._t1(s, fins))  # type: ignore[arg-type]
        self._shift_po_totals(touched_po, 1.0)
        if b1 != b0:
            # reprice the stored PO terms against the new boundary (the
            # touched nets already carry their b1 term: no-op for them)
            for sig in po_signals:
                bag = self._bags[sig]
                self._set_net_cost(
                    sig,
                    _net_term_cost(
                        stages[sig[0]], bag.mn, bag.mx, b1, n  # type: ignore[arg-type]
                    ),
                )

    def _set_term_cost(self, store: Dict, key, new: float) -> None:
        """Replace one cost term in *store*, adjusting the running total.

        :meth:`_probe` makes the same adjustment on a local accumulator;
        :meth:`check_invariants` catches any divergence between the two.
        """
        self._total += new - store[key]
        store[key] = new

    def _set_net_cost(self, sig: Signal, new: float) -> None:
        self._set_term_cost(self._net_cost, sig, new)

    def _set_t1_cost(self, t: int, new: float) -> None:
        self._set_term_cost(self._t1_cost, t, new)

    # -- verification / finalisation ----------------------------------------

    def _scratch_boundary(self) -> int:
        """The PO boundary recomputed from the stage vector."""
        st = self.st
        stages = self.stages
        mx = max(
            (
                stages[i]
                for i in range(len(self.netlist.cells))
                if st.clocked[i] and stages[i] is not None
            ),
            default=0,
        )
        return mx + 1  # type: ignore[operator]

    def recompute_total(self) -> float:
        """From-scratch recomputation of the schedule cost (test oracle)."""
        st = self.st
        stages = self.stages
        b = self._scratch_boundary()
        total = 0.0
        for sig, cons in st.nets.items():
            cs = [stages[c] for c in cons]
            total += _net_term_cost(
                stages[sig[0]],  # type: ignore[arg-type]
                min(cs) if cs else None,  # type: ignore[type-var]
                max(cs) if cs else None,  # type: ignore[type-var]
                b if sig in st.po_signals else None,
                self.n,
            )
        for i, is_t1 in enumerate(st.is_t1):
            if is_t1:
                total += self._t1(
                    stages[i],  # type: ignore[arg-type]
                    [stages[d] for d in st.fanin_drivers[i]],  # type: ignore[misc]
                )
        return total

    def check_invariants(self) -> None:
        """Raise TimingError when a maintained value diverged from scratch.

        Compares the running total, every net/T1 term, the stage
        histogram, the boundary and every cached PO total ``P(b)``
        against a from-scratch recomputation.
        """
        st = self.st
        stages = self.stages
        b = self.boundary()
        actual = self._scratch_boundary()
        if b != actual:
            raise TimingError(f"stale boundary: kept {b}, actual {actual}")
        for sig, cons in st.nets.items():
            cs = [stages[c] for c in cons]
            want = _net_term_cost(
                stages[sig[0]],  # type: ignore[arg-type]
                min(cs) if cs else None,  # type: ignore[type-var]
                max(cs) if cs else None,  # type: ignore[type-var]
                b if sig in st.po_signals else None,
                self.n,
            )
            if self._net_cost[sig] != want:
                raise TimingError(
                    f"net {sig}: kept cost {self._net_cost[sig]}, actual {want}"
                )
        for i, is_t1 in enumerate(st.is_t1):
            if is_t1:
                want = self._t1(
                    stages[i],  # type: ignore[arg-type]
                    [stages[d] for d in st.fanin_drivers[i]],  # type: ignore[misc]
                )
                if self._t1_cost[i] != want:
                    raise TimingError(
                        f"T1 {i}: kept cost {self._t1_cost[i]}, actual {want}"
                    )
        for pb, kept in self._po_totals.items():
            want = 0.0
            for sig in st.po_signals:
                cs = [stages[c] for c in st.nets[sig]]
                want += _net_term_cost(
                    stages[sig[0]],  # type: ignore[arg-type]
                    min(cs) if cs else None,  # type: ignore[type-var]
                    max(cs) if cs else None,  # type: ignore[type-var]
                    pb,
                    self.n,
                )
            if kept != want:
                raise TimingError(f"P({pb}): kept {kept}, actual {want}")
        want_total = self.recompute_total()
        if self.total() != want_total:
            raise TimingError(
                f"running total {self.total()} != recomputed {want_total}"
            )

    def write_stages(self) -> None:
        """Write the stage vector back onto the netlist's clocked cells."""
        for cell in self.netlist.cells:
            if cell.clocked or cell.kind is CellKind.PI:
                cell.stage = self.stages[cell.index]

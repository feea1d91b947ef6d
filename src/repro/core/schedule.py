"""Incremental schedule kernel (§II-B): delta-evaluated stage moves.

The coordinate-descent heuristic of :mod:`repro.core.phase_assignment`
optimises the *true* insertion cost

    Σ_nets  max_v ⌈(σ_v − σ_d)/n⌉ − 1    (shared per-net chains, eq. 5)
  + Σ_T1    c_T1(σ_T1, fanin stages)     (staggering cost, eq. 4)
  + PO balancing against the boundary σ_max + 1.

The seed implementation re-summed every incident term from scratch for
every candidate stage of every cell.  :class:`StageSchedule` maintains
the cost terms instead, exploiting these structural facts:

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
  over all #PO nets;
* a T1 fanin more than 2n stages back sits below every slot of the
  T1's freshness window, so n stages further back costs exactly one
  more DFF (each slot cost ``⌈(slot − σ)/n⌉`` rises by one).  The T1
  term is priced with each such gap reduced into (n, 2n] plus one DFF
  per epoch dropped, so the memo keys stay within gaps ≤ 2n at any depth.

**One pricer.** :meth:`best_stage` prices a whole visit of a cell x.  It
reads x's incident terms once — the consumer extremes of each net x
drives, the largest other consumer of each net x consumes, the other
fanins of each T1 x feeds, and the largest clocked stage other than
x's — and then scores the candidate stages in ascending order with
integer arithmetic.  :meth:`cost_if_moved` and the feasibility check of
:meth:`apply_move` are its one-candidate case.  Every PO-net term goes
through :func:`_po_term`, so its call count is the PO work per probe.

Every committed schedule is feasible: the constructor and
:meth:`apply_move` raise :class:`~repro.errors.TimingError` rather than
store an infeasible term, so the running total is one finite whole
number and only a probe can return INF.

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
    which rescans the (few) distinct stage values.
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

    def max_without(self, s: int, k: int) -> Optional[int]:
        """The max with *k* occurrences of *s* taken out (None if emptied)."""
        c = self.counts
        if s != self.mx or c[s] > k:
            return self.mx
        return max((v for v in c if v != s), default=None)


def _po_term(ds: int, mx: Optional[int], b: int, n: int) -> int:
    """Chain DFFs of a PO net priced against boundary *b*.

    *ds* is the driver stage and *mx* the latest consumer stage (None for
    a net that feeds no cell); every consumer must be after the driver.
    The boundary contributes only when it lies past the driver (matching
    the seed's `_net_cost`).  Every PO-net term the kernel prices goes
    through here.
    """
    w = (b - ds - 1) // n
    if mx is not None:
        c = (mx - ds - 1) // n
        if c > w:
            return c
    return w if w > 0 else 0


def _net_term_cost(
    ds: int, mn: Optional[int], mx: Optional[int], boundary: Optional[int], n: int
) -> float:
    """Shared-chain DFFs of one net from its consumer-stage extremes.

    INF when any consumer is not strictly later than the driver; the PO
    *boundary* is None for a net that drives no PO.  A gap g >= 1 costs
    ``(g - 1) // n`` DFFs, as :func:`~repro.sfq.multiphase.edge_dffs`
    without its gap check.
    """
    if mn is not None and mn - ds < 1:
        return INF
    if boundary is not None:
        return _po_term(ds, mx, boundary, n)
    return (mx - ds - 1) // n if mx is not None else 0


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
        # T1 cost per (reduced sorted gaps..., window head), see _t1_gaps
        self._t1_memo: Dict[Tuple[int, int, int, int], float] = {}
        # P(b) per probed PO boundary b (see _po_total)
        self._po_totals: Dict[int, int] = {}

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
        # cost terms (whole numbers) and running total
        self._net_cost: Dict[Signal, int] = {}
        self._t1_cost: Dict[int, int] = {}
        self._total = 0
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
            self._net_cost[sig] = cost  # type: ignore[assignment]
            self._total += cost  # type: ignore[assignment]
        for i, is_t1 in enumerate(st.is_t1):
            if not is_t1:
                continue
            cost = self._t1(
                self.stages[i],  # type: ignore[arg-type]
                [self.stages[d] for d in st.fanin_drivers[i]],  # type: ignore[misc]
            )
            if cost == INF:
                raise TimingError(f"T1 {i}: no feasible input staggering")
            self._t1_cost[i] = cost  # type: ignore[assignment]
            self._total += cost  # type: ignore[assignment]

    # -- cost primitives ----------------------------------------------------

    def _t1(self, t_stage: int, fanin_stages: Sequence[int]) -> float:
        """Staggering cost of one T1 term (eq. 4)."""
        return self._t1_gaps(
            [t_stage - s for s in fanin_stages], min(t_stage, self.n)
        )

    def _t1_gaps(self, gaps: List[int], head: int) -> float:
        """Memoised T1 cost from its fanin *gaps* (reordered in place).

        The cost depends only on the sorted gaps and on the window head
        ``min(σ_T1, n)`` (a T1 closer than n stages to stage 0 has a
        clipped freshness window), so the T1 is priced translated to that
        head; its fanins may land below 0 there, as insertion's chains
        start wherever the driver sits.  A gap g > 2n is reduced into
        (n, 2n] by whole epochs of n, and each epoch dropped adds one
        DFF back (module docstring).
        """
        n = self.n
        extra = 0
        for i, g in enumerate(gaps):
            if g < 1:
                return INF
            if g > 2 * n:
                e = (g - n - 1) // n
                extra += e
                gaps[i] = g - e * n
        gaps.sort()
        key = (gaps[0], gaps[1], gaps[2], head)
        memo = self._t1_memo
        cost = memo.get(key)
        if cost is None:
            cost = t1_input_cost(head, [head - g for g in gaps], n)
            if cost != INF:
                cost = int(cost)
            memo[key] = cost
        return cost + extra

    def total(self) -> float:
        """The maintained schedule cost (always finite)."""
        return float(self._total)

    def boundary(self) -> int:
        """The live PO-balancing boundary (max clocked stage + 1)."""
        return self._max_clocked + 1

    def _top_other(self, s0: int) -> float:
        """Max clocked stage with one cell at *s0* taken out (-INF if none).

        Read from the count at the maximum; only a cell alone at the top
        walks down to the next occupied stage.
        """
        mx = self._max_clocked
        counts = self._stage_counts
        if s0 != mx or counts[mx] > 1:
            return mx
        if len(counts) == 1:
            return -INF
        m = mx - 1
        while m not in counts:
            m -= 1
        return m

    # -- move evaluation ----------------------------------------------------

    def best_stage(self, x: int, cands: Sequence[int]) -> int:
        """The cheapest of *cands* for cell *x*, or x's stage if none improves.

        *cands* must be ascending and exclude x's own stage.  Returns the
        first (lowest) cheapest candidate when it is strictly below the
        current total, which is the strict-improvement scan's pick: ties
        keep the lower stage.  Counts each candidate in
        ``moves_evaluated``.
        """
        self.moves_evaluated += len(cands)
        costs = self._price(x, cands)
        best = min(costs)
        if best < self._total:
            return cands[costs.index(best)]
        return self.stages[x]  # type: ignore[return-value]

    def cost_if_moved(self, x: int, s: int) -> float:
        """Total schedule cost if cell *x* moved to stage *s* (no mutation).

        INF when an incident term would be infeasible; the one-candidate
        case of :meth:`best_stage`.
        """
        if s == self.stages[x]:
            return self.total()
        self.moves_evaluated += 1
        return float(self._price(x, (s,))[0])

    def _price(self, x: int, cands: Sequence[int]) -> List[float]:
        """The schedule cost of moving cell *x* to each of *cands*.

        INF where the move is infeasible.  Reads x's incident terms
        once, then prices each candidate s against them: the schedule
        total minus the terms x's move reprices, plus each repriced term
        at s.  A candidate that moves the boundary b0 → b1 adds the
        untouched PO nets' shift ``P(b1) − P(b0)`` (minus the touched PO
        nets' share, which they price themselves), once per b1.  Mutates
        nothing and counts nothing.
        """
        st = self.st
        stages = self.stages
        n = self.n
        bags = self._bags
        net_cost = self._net_cost
        t1_cost = self._t1_cost
        po_signals = st.po_signals
        s0: int = stages[x]  # type: ignore[assignment]
        base = self._total
        lo: float = -INF  # a candidate must lie above every driver of x ...
        hi: float = INF  # ... and below every consumer of x
        # nets x drives: x moves, their consumer extremes stay
        drv: List[int] = []  # latest consumer − 1, per net that drives no PO
        drv_po: List[Optional[int]] = []  # latest consumer, per PO net
        touched_po: List[Tuple[int, Optional[int], int]] = []
        for sig in st.signals_of_cell[x]:
            bag = bags[sig]
            base -= net_cost[sig]
            if bag.mn is not None and bag.mn < hi:
                hi = bag.mn
            if sig in po_signals:
                drv_po.append(bag.mx)
                touched_po.append((s0, bag.mx, net_cost[sig]))
            else:
                drv.append(bag.mx - 1)  # type: ignore[operator]
        # nets x consumes: x's entries move, the other consumers stay; an
        # emptied net's "other max" is ds + 1, below every feasible s
        con: List[Tuple[int, int]] = []  # (driver + 1, other max), no PO
        con_po: List[Tuple[int, int]] = []  # (driver, other max), PO nets
        for sig, k in self._consumed[x].items():
            bag = bags[sig]
            base -= net_cost[sig]
            ds: int = stages[sig[0]]  # type: ignore[assignment]
            if ds > lo:
                lo = ds
            mx = bag.max_without(s0, k)
            if mx is None:
                mx = ds + 1
            if sig in po_signals:
                con_po.append((ds, mx))
                touched_po.append((ds, bag.mx, net_cost[sig]))
            else:
                con.append((ds + 1, mx))
        # T1 terms: each T1 x feeds, with x's slots open, and x's own
        feeds: List[Tuple[int, int, List[int], int]] = []
        for t in st.t1_consumers[x]:
            base -= t1_cost[t]
            ts: int = stages[t]  # type: ignore[assignment]
            if ts < hi:
                hi = ts
            others = [ts - stages[d] for d in st.fanin_drivers[t] if d != x]  # type: ignore[operator]
            feeds.append((ts, min(ts, n), others, 3 - len(others)))
        own: Optional[List[int]] = None
        if st.is_t1[x]:
            base -= t1_cost[x]
            own = [stages[d] for d in st.fanin_drivers[x]]  # type: ignore[misc]
            top = max(own)
            if top > lo:
                lo = top
        b0 = self._max_clocked + 1
        clocked = st.clocked[x]
        top_other = self._top_other(s0) if clocked else -INF
        shifts: Dict[int, int] = {}
        t1_gaps = self._t1_gaps
        costs: List[float] = []
        for s in cands:
            if s <= lo or s >= hi:
                costs.append(INF)
                continue
            cost = base
            for ts, head, others, m in feeds:
                cost += t1_gaps(others + [ts - s] * m, head)
            if own is not None:
                cost += t1_gaps([s - f for f in own], s if s < n else n)
            if cost == INF:
                costs.append(INF)
                continue
            for a in drv:
                cost += (a - s) // n
            for d1, mx in con:
                cost += ((mx if mx > s else s) - d1) // n
            b1 = ((s if s > top_other else top_other) + 1) if clocked else b0
            for mx in drv_po:
                cost += _po_term(s, mx, b1, n)  # type: ignore[arg-type]
            for ds, mx in con_po:
                cost += _po_term(ds, mx if mx > s else s, b1, n)
            if b1 != b0:
                shift = shifts.get(b1)  # type: ignore[arg-type]
                if shift is None:
                    shift = self._po_total(b1) - self._po_total(b0)  # type: ignore[arg-type]
                    for d, mx, cur in touched_po:
                        shift -= _po_term(d, mx, b1, n) - cur  # type: ignore[arg-type]
                    shifts[b1] = shift  # type: ignore[index]
                cost += shift
            costs.append(cost)
        return costs

    def _po_total(self, b: int) -> int:
        """P(b): the PO-net terms priced against boundary *b*.

        Computed once per boundary value and then kept current by
        :meth:`apply_move` (never cleared).
        """
        tot = self._po_totals.get(b)
        if tot is None:
            stages = self.stages
            bags = self._bags
            n = self.n
            tot = 0
            for sig in self.st.po_signals:
                tot += _po_term(stages[sig[0]], bags[sig].mx, b, n)  # type: ignore[arg-type]
            self._po_totals[b] = tot
        return tot

    def _shift_po_totals(self, sigs: Sequence[Signal], sign: int) -> None:
        """Add (sign=1) or remove (sign=-1) *sigs*' terms in every P(b)."""
        totals = self._po_totals
        stages = self.stages
        n = self.n
        for sig in sigs:
            ds = stages[sig[0]]
            mx = self._bags[sig].mx
            for b in totals:
                totals[b] += sign * _po_term(ds, mx, b, n)  # type: ignore[arg-type]

    def apply_move(self, x: int, s: int) -> None:
        """Commit the move of cell *x* to stage *s*, updating every term.

        Raises :class:`TimingError`, leaving the schedule unchanged, when
        the move would make an incident term infeasible.
        """
        s0 = self.stages[x]
        if s == s0:
            return
        if self._price(x, (s,))[0] == INF:
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
            self._shift_po_totals(touched_po, -1)
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
        self._shift_po_totals(touched_po, 1)
        if b1 != b0:
            # reprice the stored PO terms against the new boundary (the
            # touched nets already carry their b1 term: no-op for them)
            for sig in po_signals:
                self._set_net_cost(
                    sig,
                    _po_term(stages[sig[0]], self._bags[sig].mx, b1, n),  # type: ignore[arg-type]
                )

    def _set_term_cost(self, store: Dict, key, new) -> None:
        """Replace one cost term in *store*, adjusting the running total.

        :meth:`_price` makes the same adjustment on a local accumulator;
        :meth:`check_invariants` catches any divergence between the two.
        """
        self._total += new - store[key]
        store[key] = new

    def _set_net_cost(self, sig: Signal, new) -> None:
        self._set_term_cost(self._net_cost, sig, new)

    def _set_t1_cost(self, t: int, new) -> None:
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

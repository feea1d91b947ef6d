"""Differential tests for the incremental schedule kernel (StageSchedule).

The kernel's contract: delta-evaluated move pricing and the maintained
running total must equal a from-scratch recomputation after *any*
feasible move sequence, an infeasible move must be priced INF and
refused without a trace, the live PO boundary must never go stale, the
kernel-based heuristic must reproduce the seed scan-and-rebuild sweeps
bit for bit from ASAP starts (pinned against the retained reference
implementation), and its final cost must be the DFF count insertion
places.
"""

import copy
import functools
import random

import pytest

from oracles.exact_stages import heuristic_vs_optimum, random_netlist
from oracles.phase_assignment import _net_cost, assign_stages_rescan_reference
from repro.circuits.registry import TABLE1_ORDER
from repro.core.dff_insertion import insert_dffs, t1_input_cost
from repro.core import phase_assignment as phase_module
from repro.core.phase_assignment import assign_stages_heuristic
from repro.core import schedule as schedule_module
from repro.core.schedule import INF, StageSchedule, t1_lower_bound
from repro.errors import TimingError
from repro.network.gates import Gate
from repro.sfq.netlist import OUT, SFQNetlist


def _mapped(source, name, n_phases=4, use_t1=True):
    """Run the standard pipeline up to (excluding) phase assignment."""
    from repro.pipeline import Pipeline
    from repro.pipeline.context import FlowContext

    pipe = Pipeline.standard(n_phases=n_phases, use_t1=use_t1, verify="none")
    ctx = FlowContext(source=source, name=name, verify="none")
    for p in pipe.passes:
        if p.name == "phase_assign":
            break
        ctx = p.run(ctx) or ctx
    return ctx.netlist


def mapped_registry_netlist(name, n_phases=4, use_t1=True):
    from repro.circuits import build

    return _mapped(build(name, "ci"), name, n_phases, use_t1)


@functools.lru_cache(maxsize=None)
def _mapped_datapath_template(n_nodes):
    from repro.circuits.synthetic import build_synthetic

    return _mapped(build_synthetic("datapath", n_nodes, 0), "datapath")


def mapped_datapath(n_nodes):
    """The mapped ``datapath`` synthetic (a fresh copy: callers mutate it)."""
    return copy.deepcopy(_mapped_datapath_template(n_nodes))


def fork_kernel(k):
    """Deep copy of a StageSchedule's mutable state.

    Shares only what the kernel never writes (the netlist, its
    structure, the per-cell consumed-net maps and the pure T1 memo);
    a plain ``copy.deepcopy`` would copy those too, at ~50 ms a probe
    on the 1k datapath.
    """
    twin = copy.copy(k)
    twin.stages = list(k.stages)
    twin._bags = {sig: copy.copy(bag) for sig, bag in k._bags.items()}
    for bag in twin._bags.values():
        bag.counts = dict(bag.counts)
    for name in ("_net_cost", "_t1_cost", "_stage_counts", "_po_totals"):
        setattr(twin, name, dict(getattr(k, name)))
    return twin


def snapshot(k):
    return list(k.stages), k.total(), k.boundary()


def apply_or_refuse(k, x, s):
    """Apply a move whose probe is finite and check the probe against the
    new total and a recomputation; check that a move probed INF is
    refused and leaves the kernel untouched.  Returns the probe."""
    probed = k.cost_if_moved(x, s)
    if probed == INF:
        before = snapshot(k)
        with pytest.raises(TimingError):
            k.apply_move(x, s)
        assert snapshot(k) == before
    else:
        k.apply_move(x, s)
        assert probed == k.total() == k.recompute_total()
    return probed


def boundary_biased_walk(nl, seed, steps=500):
    """Mixed probe/apply steps on a fresh kernel, biased toward boundary
    shifts; returns the kernel and the number of boundary-shifting probes."""
    k = StageSchedule(nl)
    st = k.st
    movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
    rng = random.Random(seed)
    shifted = 0
    for _ in range(steps):
        top = max(k.stages[i] for i in movable)
        deepest = [i for i in movable if k.stages[i] == top]
        r = rng.random()
        if r < 0.35 and len(deepest) == 1:
            # the unique deepest cell up or down
            x = deepest[0]
            s = top + rng.choice((-3, -2, -1, 1, 2))
        elif r < 0.65:
            # another cell past the max stage
            x = rng.choice(movable)
            s = top + rng.randint(1, 3)
        else:
            x = rng.choice(movable)
            s = k.stages[x] + rng.randint(-3, 3)
        s = max(1, s)
        if rng.random() < 0.6:
            moved = fork_kernel(k)
            if apply_or_refuse(moved, x, s) != INF and (
                moved.boundary() != k.boundary()
            ):
                shifted += 1
        else:
            apply_or_refuse(k, x, s)
            k.check_invariants()
    return k, shifted


class TestDeltaEquivalence:
    """Delta evaluation == from-scratch recomputation, always."""

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_random_move_sequences(self, n_phases):
        nl = random_netlist(7 + n_phases, n_phases)
        k = StageSchedule(nl)
        st = nl.structure()
        movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
        rng = random.Random(99)
        for _ in range(300):
            x = rng.choice(movable)
            s = max(1, k.stages[x] + rng.randint(-3, 3))
            apply_or_refuse(k, x, s)
        k.check_invariants()

    def test_registry_circuit_move_sequence(self):
        nl = mapped_registry_netlist("c6288")
        k = StageSchedule(nl)
        st = nl.structure()
        movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
        rng = random.Random(3)
        for i in range(400):
            x = rng.choice(movable)
            s = max(1, k.stages[x] + rng.randint(-2, 4))
            apply_or_refuse(k, x, s)
        k.check_invariants()

    def test_peek_does_not_mutate(self):
        nl = random_netlist(1, 4)
        k = StageSchedule(nl)
        before = snapshot(k)
        st = nl.structure()
        for x in range(len(nl.cells)):
            if st.clocked[x]:
                k.cost_if_moved(x, k.stages[x] + 2)
        assert snapshot(k) == before

    def test_infeasible_schedule_rejected(self):
        nl = random_netlist(3, 4)
        st = nl.structure()
        stages = list(StageSchedule(nl).stages)
        x = next(
            i for i in range(len(nl.cells)) if st.clocked[i] and st.fanin_drivers[i]
        )
        stages[x] = stages[st.fanin_drivers[x][0]]  # not after its driver
        with pytest.raises(TimingError):
            StageSchedule(nl, stages=stages)

    def test_asap_start_total_matches_recompute(self):
        for name in ("adder", "voter", "multiplier"):
            nl = mapped_registry_netlist(name)
            k = StageSchedule(nl)
            assert k.total() == k.recompute_total()
            k.check_invariants()


class TestLiveBoundary:
    """The PO boundary is maintained across moves, never per sweep."""

    def chain_with_dangler(self):
        # p -> g1 -> g2 -> g3 -> g4 (PO), plus h(g2) driving only a PO
        nl = SFQNetlist("bnd", n_phases=2)
        p = (nl.add_pi(), OUT)
        cur = p
        mids = []
        for _ in range(4):
            cur = (nl.add_gate(Gate.AND, [cur]), OUT)
            mids.append(cur)
        nl.add_po(cur)
        h = (nl.add_gate(Gate.AND, [mids[1]]), OUT)
        nl.add_po(h)
        return nl, cur[0], h[0]

    def test_boundary_tracks_max_stage(self):
        nl, g4, h = self.chain_with_dangler()
        k = StageSchedule(nl)
        assert k.boundary() == 5  # deepest cell g4 at stage 4
        k.apply_move(g4, 6)
        assert k.boundary() == 7
        k.check_invariants()
        k.apply_move(g4, 4)
        assert k.boundary() == 5
        k.check_invariants()

    def test_stale_boundary_mispriced_move(self):
        """Regression: the seed priced PO balancing against a boundary
        snapshotted at sweep start.  After a mid-sweep move deepens the
        schedule (boundary 5 -> 7), the snapshot still prices the
        dangler's PO chain at zero DFFs, while the true cost against the
        live boundary is one chain DFF — the kernel's delta and running
        total both account for it."""
        nl, g4, h = self.chain_with_dangler()
        k = StageSchedule(nl)
        stale_boundary = k.boundary()
        assert stale_boundary == 5
        assert k.stages[h] == 3  # ASAP: fed by g2 at stage 2
        before = k.total()
        # deepening g4 to 6 costs: +1 on the g3->g4 chain, +1 on h's PO
        # chain (live boundary 7) — the stale snapshot sees only the first
        assert k.cost_if_moved(g4, 6) - before == 2.0
        k.apply_move(g4, 6)
        assert k.boundary() == 7
        assert k.total() == k.recompute_total() == before + 2.0
        # the seed's pricing of h's PO net with the stale snapshot calls
        # the dangler's position free (boundary gap 2, n=2 -> 0 DFFs) ...
        assert _net_cost(k.stages[h], [], 2, stale_boundary) == 0.0
        # ... but against the live boundary it costs one chain DFF
        assert _net_cost(k.stages[h], [], 2, k.boundary()) == 1.0

    def test_heuristic_final_boundary_consistent(self):
        nl = mapped_registry_netlist("square")
        assign_stages_heuristic(nl)
        stages = [c.stage for c in nl.cells if c.clocked]
        k = StageSchedule(nl, stages=[c.stage for c in nl.cells])
        assert k.boundary() == max(stages) + 1


class TestBoundaryShiftProbes:
    """Wide-PO move sequences biased toward shifting the PO boundary.

    Boundary-shifting probes price the untouched PO nets through the
    cached per-boundary totals P(b); each probe must still equal the
    state reached by really applying the move, and every cached P(b)
    must equal a from-scratch sum after every apply.
    """

    @pytest.mark.parametrize("n_phases", [2, 4])
    def test_random_wide_po_netlist(self, n_phases):
        nl = random_netlist(
            31 + n_phases, n_phases, n_pi=6, n_gates=60, n_t1=4, n_po=40
        )
        assert len(nl.structure().po_signals) >= 20
        k, shifted = boundary_biased_walk(nl, seed=n_phases)
        assert shifted >= 50
        assert k._po_totals  # the cache was exercised and checked

    def test_mapped_datapath(self):
        nl = mapped_datapath(1000)
        k, shifted = boundary_biased_walk(nl, seed=5)
        assert shifted >= 50
        assert k._po_totals


class TestHeuristicEquivalence:
    """Kernel-based sweeps == the seed scan-and-rebuild reference."""

    @pytest.mark.parametrize("name", ["adder", "c6288", "voter", "square"])
    def test_registry_stage_vectors_identical(self, name):
        nl_kernel = mapped_registry_netlist(name)
        nl_ref = mapped_registry_netlist(name)
        assign_stages_heuristic(nl_kernel)
        assign_stages_rescan_reference(nl_ref)
        got = [c.stage for c in nl_kernel.cells]
        want = [c.stage for c in nl_ref.cells]
        assert got == want

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_random_netlists_identical(self, n_phases):
        for seed in range(12):
            nl_kernel = random_netlist(seed, n_phases)
            nl_ref = random_netlist(seed, n_phases)
            assign_stages_heuristic(nl_kernel, sweeps=5)
            assign_stages_rescan_reference(nl_ref, sweeps=5)
            assert [c.stage for c in nl_kernel.cells] == (
                [c.stage for c in nl_ref.cells]
            ), f"divergence at seed {seed}"

    @pytest.mark.parametrize("n_nodes", [1000, 2000])
    def test_datapath_stage_vectors_identical(self, n_nodes):
        nl_kernel = mapped_datapath(n_nodes)
        nl_ref = mapped_datapath(n_nodes)
        assign_stages_heuristic(nl_kernel)
        assign_stages_rescan_reference(nl_ref)
        assert [c.stage for c in nl_kernel.cells] == (
            [c.stage for c in nl_ref.cells]
        )

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    @pytest.mark.parametrize(
        "n_phases,use_t1",
        [(1, False), (4, False), (4, True)],
        ids=["1phi", "4phi", "t1"],
    )
    def test_dirty_sweeps_equal_full_sweeps(self, name, n_phases, use_t1):
        """Revisiting only marked cells reproduces full sweeps exactly."""
        nl_kernel = mapped_registry_netlist(name, n_phases, use_t1)
        nl_ref = mapped_registry_netlist(name, n_phases, use_t1)
        rk = assign_stages_heuristic(nl_kernel)
        rr = assign_stages_rescan_reference(nl_ref)
        assert [c.stage for c in nl_kernel.cells] == [c.stage for c in nl_ref.cells]
        assert rk.moves_applied == rr.moves_applied
        assert rk.sweeps_run == rr.sweeps_run
        assert rk.final_cost == rr.final_cost
        # the first sweep probes what a full sweep probes; later ones less
        if rk.sweeps_run == 1:
            assert rk.moves_evaluated == rr.moves_evaluated
        else:
            assert rk.moves_evaluated < rr.moves_evaluated

    def test_reports_agree_on_applied_moves(self):
        nl_kernel = mapped_registry_netlist("c7552")
        nl_ref = mapped_registry_netlist("c7552")
        rk = assign_stages_heuristic(nl_kernel)
        rr = assign_stages_rescan_reference(nl_ref)
        assert rk.moves_applied == rr.moves_applied
        assert rk.sweeps_run == rr.sweeps_run
        assert rk.moves_evaluated > 0


def scattered_stages(nl, seed, slack=3):
    """A feasible stage vector with random slack above every lower bound.

    Starting the sweeps here instead of at ASAP makes cells keep moving
    for several sweeps, so later sweeps revisit many marked cells.
    """
    rng = random.Random(seed)
    st = nl.structure()
    stages = [None] * len(nl.cells)
    for x in st.order:
        fins = [stages[d] for d in st.fanin_drivers[x]]
        if x in nl.pis:
            stages[x] = rng.randrange(nl.n_phases)
        elif st.is_t1[x]:
            stages[x] = t1_lower_bound(fins) + rng.randrange(slack + 1)
        elif st.clocked[x]:
            stages[x] = (max(fins) + 1 if fins else 1) + rng.randrange(slack + 1)
    return stages


def audit_dirty_sweeps(nl, sweeps=4, stages=None):
    """Full sweeps that check every visit the dirty sweeps would skip.

    Visits *every* movable cell from *stages* (default ASAP), keeping
    the dirty marks alongside, and asserts that each cell the marks
    leave clean would find no move.  Then runs the package's dirty
    sweeps from the same start and asserts they end in the same stage
    vector after the same number of moves and sweeps.  Returns the number
    of clean visits checked.
    """
    st = nl.structure()
    kernel = StageSchedule(nl, stages=stages, structure=st)
    is_pi = [False] * len(st.clocked)
    for p in nl.pis:
        is_pi[p] = True
    movable = [c or p for c, p in zip(st.clocked, is_pi)]
    readers = phase_module._boundary_readers(st, movable)
    dirty = list(movable)
    checked = 0
    sweeps_run = 0
    for sweep in range(sweeps):
        sweeps_run = sweep + 1
        improved = False
        for x in st.order if sweep % 2 == 0 else st.order[::-1]:
            if not movable[x]:
                continue
            current = kernel.stages[x]
            best = phase_module._best_stage(kernel, x, is_pi[x])
            if not dirty[x]:
                assert best == current, f"sweep {sweep}: clean cell {x} moves"
                checked += 1
            dirty[x] = False
            if best != current:
                kernel.apply_move(x, best)
                improved = True
                phase_module._mark_around(st, x, dirty)
                for c in readers:
                    dirty[c] = True
        if not improved:
            break
    dirty_kernel = StageSchedule(nl, stages=stages, structure=st)
    assert phase_module._dirty_sweeps(dirty_kernel, nl.pis, sweeps) == sweeps_run
    assert dirty_kernel.stages == kernel.stages
    assert dirty_kernel.moves_applied == kernel.moves_applied
    return checked


class TestDirtySweeps:
    """A cell the dirty sweeps skip would re-derive "no move".

    The differential tests above compare end results; these check the
    marking rules visit by visit, on random netlists dense in T1s, shared
    nets and POs, where a missing mark shows as a clean cell that moves.
    """

    @pytest.mark.parametrize("scattered", [False, True], ids=["asap", "scattered"])
    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_random_netlists(self, n_phases, scattered):
        checked = 0
        for seed in range(100):
            nl = random_netlist(seed, n_phases, n_pi=5, n_gates=30, n_t1=6, n_po=8)
            stages = scattered_stages(nl, seed) if scattered else None
            checked += audit_dirty_sweeps(nl, sweeps=8, stages=stages)
        assert checked > 0

    def test_sink_revisited_when_the_boundary_drops(self):
        """Sink x shares no net with the far sink y2, yet y2's move down
        lowers the boundary both PO nets are priced against, and only
        then does x's own move down pay."""
        nl = SFQNetlist("boundary", n_phases=4)
        p, q = nl.add_pi(), nl.add_pi()
        g = nl.add_gate(Gate.AND, [(p, OUT)])
        z = nl.add_gate(Gate.AND, [(g, OUT)])
        z2 = nl.add_gate(Gate.AND, [(z, OUT), (p, OUT)])
        x = nl.add_gate(Gate.AND, [(g, OUT)])
        y1 = nl.add_gate(Gate.AND, [(q, OUT)])
        y2 = nl.add_gate(Gate.AND, [(y1, OUT)])
        for cell in (x, y2, z2):
            nl.add_po((cell, OUT))
        stages = [0, 0, 1, 2, 3, 6, 1, 9]
        audit_dirty_sweeps(nl, stages=stages)
        kernel = StageSchedule(nl, stages=stages)
        assert phase_module._dirty_sweeps(kernel, nl.pis, 4) == 3
        assert (kernel.stages[y2], kernel.stages[x]) == (3, 2)

    @pytest.mark.parametrize("name", ["c6288", "voter", "square", "log2"])
    def test_registry(self, name):
        assert audit_dirty_sweeps(mapped_registry_netlist(name)) > 0


class TestProbeScaling:
    """Deterministic guard on the PO work per probe (no wall clock).

    Every PO-net term the kernel prices goes through ``_po_term``.
    Repricing every PO net on each boundary-shifting probe made a probe
    cost O(#PO nets); the cached per-boundary totals keep the count at
    about 0.9 ``_po_term`` calls per priced candidate on the 2k datapath
    (347 PO nets), P(b) fills and applied boundary shifts included.
    """

    def test_po_term_calls_per_probe(self, monkeypatch):
        calls = 0
        real = schedule_module._po_term

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        nl = mapped_datapath(2000)
        monkeypatch.setattr(schedule_module, "_po_term", counting)
        report = assign_stages_heuristic(nl)
        assert report.moves_evaluated > 10_000
        assert calls <= 2 * report.moves_evaluated
        # the count is live on the probe path: pricing a PO driver reads it
        k = StageSchedule(nl, stages=[c.stage for c in nl.cells])
        st = k.st
        x = next(
            sig[0]
            for sig in st.po_signals
            if not st.net_consumers[sig[0]] and not st.t1_consumers[sig[0]]
        )
        before = calls
        assert k.cost_if_moved(x, k.boundary()) < INF
        assert calls > before


def trial_costs(k, x, cands):
    """Each candidate's cost found by really moving *x* on a fork of *k*:
    ``recompute_total()`` after ``apply_move``, INF where it raises."""
    out = []
    for s in cands:
        twin = fork_kernel(k)
        try:
            twin.apply_move(x, s)
        except TimingError:
            out.append(INF)
            continue
        out.append(twin.recompute_total())
    return out


def check_visits(k, extra_top=0):
    """Price every movable cell's neighbourhood in one visit and compare
    each candidate with a trial move; *extra_top* adds candidates that
    far past the deepest stage (boundary-raising moves)."""
    nl = k.netlist
    st = k.st
    top = max(k.stages[i] for i in range(len(nl.cells)) if st.clocked[i])
    for x in range(len(nl.cells)):
        if not (st.clocked[x] or x in nl.pis):
            continue
        s0 = k.stages[x]
        cands = set(range(max(0, s0 - 4), s0 + 5))
        cands.update(range(top + 1, top + 1 + extra_top))
        cands.discard(s0)
        cands = sorted(cands)
        want = trial_costs(k, x, cands)
        assert k._price(x, cands) == want, (x, cands)
        # the visit's pick: first cheapest candidate strictly below the total
        best = min(want)
        pick = cands[want.index(best)] if best < k.total() else s0
        assert k.best_stage(x, cands) == pick
    k.check_invariants()


class TestVisitPricer:
    """One visit prices every candidate exactly as a trial move does."""

    @pytest.mark.parametrize("scattered", [False, True], ids=["asap", "scattered"])
    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_random_netlists(self, n_phases, scattered):
        for seed in range(12):
            nl = random_netlist(seed, n_phases)
            stages = scattered_stages(nl, seed) if scattered else None
            check_visits(StageSchedule(nl, stages=stages))

    @pytest.mark.parametrize("n_phases", [2, 4])
    def test_random_wide_po_netlist(self, n_phases):
        nl = random_netlist(
            31 + n_phases, n_phases, n_pi=6, n_gates=60, n_t1=4, n_po=40
        )
        k = StageSchedule(nl, stages=scattered_stages(nl, n_phases))
        check_visits(k, extra_top=3)
        assert k._po_totals  # boundary-shifting candidates were priced


@pytest.mark.parametrize("n_phases", [3, 4, 5, 6])
def test_t1_epoch_reduced_cost_exhaustive(n_phases):
    """A fanin gap past 2n is priced reduced into (n, 2n] plus one DFF per
    epoch dropped; that equals the insertion planner for every window head
    1..n and every gap triple up to 4n + 2, and no memo key exceeds 2n."""
    n = n_phases
    k = StageSchedule(random_netlist(11, n))
    top = 4 * n + 2
    for head in range(1, n + 1):
        for a in range(1, top + 1):
            for b in range(a, top + 1):
                for c in range(b, top + 1):
                    fanins = [head - c, head - a, head - b]
                    want = t1_input_cost(head, fanins, n)
                    assert k._t1(head, fanins) == want, (head, a, b, c)
    assert max(max(key[:3]) for key in k._t1_memo) <= 2 * n


class TestHeuristicQuality:
    """Final cost <= ASAP cost and within 2 DFFs of the exact optimum."""

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_heuristic_not_worse_than_asap(self, n_phases):
        for seed in range(8):
            nl = random_netlist(100 + seed, n_phases)
            asap_cost = StageSchedule(nl).total()
            assign_stages_heuristic(nl)
            final = StageSchedule(
                nl, stages=[c.stage for c in nl.cells]
            ).total()
            assert final <= asap_cost

    @pytest.mark.parametrize("n_phases", [2, 3, 4])
    def test_heuristic_within_two_of_optimum(self, n_phases):
        # one T1 from n=3 on; n=4 searches are the slow ones, so fewer
        for seed in range(12 if n_phases < 4 else 6):
            opt, got = heuristic_vs_optimum(
                lambda: random_netlist(
                    seed, n_phases, n_pi=3, n_gates=5, n_t1=1, n_po=2
                )
            )
            assert opt <= got <= opt + 2, (seed, opt, got)

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_heuristic_optimal_on_chains(self, n_phases):
        def chain():
            nl = SFQNetlist("chain", n_phases=n_phases)
            cur = (nl.add_pi(), OUT)
            for _ in range(5):
                cur = (nl.add_gate(Gate.AND, [cur]), OUT)
            nl.add_po(cur)
            return nl

        opt, got = heuristic_vs_optimum(chain)
        assert got == opt


def test_t1_term_matches_insertion_planner():
    """The kernel prices a T1 term exactly as insertion plans it, also
    when a fanin sits more than n stages back (insertion delays it)."""
    # slots (8, 7, 5): two direct arrivals and a 2-DFF chain from stage 0
    assert t1_input_cost(9, [8, 7, 0], 4) == 2.0
    for n_phases in (3, 4, 6):
        k = StageSchedule(random_netlist(11, n_phases))
        for t in range(1, 16):
            for a in range(t):
                for b in range(a, t):
                    for c in range(b, t):
                        want = t1_input_cost(t, [a, b, c], n_phases)
                        assert k._t1(t, [c, a, b]) == want, (t, a, b, c)


class TestCostMatchesInsertion:
    """The heuristic's final cost is finite and is exactly the number of
    DFFs insertion then places: the kernel and insertion are two
    encodings of one cost and must agree."""

    @staticmethod
    def check(nl):
        report = assign_stages_heuristic(nl)
        assert report.final_cost < INF
        assert report.final_cost == insert_dffs(nl).total

    @pytest.mark.parametrize("use_t1", [True, False], ids=["t1", "4phi"])
    @pytest.mark.parametrize("n_phases", [3, 4, 6])
    @pytest.mark.parametrize(
        "name",
        ["adder", "c7552", "c6288", "sin", "voter", "square", "multiplier", "log2"],
    )
    def test_registry(self, name, n_phases, use_t1):
        self.check(mapped_registry_netlist(name, n_phases, use_t1))

    @pytest.mark.parametrize("n_phases", [3, 4])
    def test_random_netlists(self, n_phases):
        for seed in range(60):
            self.check(random_netlist(seed, n_phases))


class TestT1CostCacheScoping:
    def test_kernel_memo_is_per_instance(self):
        nl = random_netlist(11, 4)
        k1 = StageSchedule(nl)
        assert k1._t1_memo  # populated during construction
        k2 = StageSchedule(nl)
        assert k1._t1_memo is not k2._t1_memo

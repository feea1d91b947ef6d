"""The one-walk ``check_timing`` / ``measure`` against their seed oracles.

``oracles.timing`` and ``oracles.metrics`` keep the walk-per-rule and
walk-per-metric code; the shipped versions must give equal
:class:`NetlistMetrics` and equal violation lists, order included, on
every registry netlist (both presets, all three flows), on netlists with
physical splitters, and on netlists whose stages were broken on purpose.
A counting cell list guards the single walk without a clock.
"""

import contextlib
import copy
import functools
import random

import pytest

from oracles.metrics import (
    area_jj_reference,
    count_splitters_reference,
    measure_reference,
)
from oracles.timing import check_timing_reference
from repro.circuits import build
from repro.circuits.registry import TABLE1_ORDER
from repro.metrics import area_jj, count_splitters, measure
from repro.network import Gate
from repro.pipeline import Pipeline
from repro.sfq import SFQNetlist, check_timing
from repro.sfq.netlist import CLOCKED_KINDS, CellKind
from repro.sfq.splitters import materialize_splitters, resolve_clocked_driver

#: (n_phases, use_t1) of the three Table-I flows
FLOWS = {"1phi": (1, False), "4phi": (4, False), "4phi_t1": (4, True)}


def flow_netlist(name, preset, flow):
    n, use_t1 = FLOWS[flow]
    ctx = Pipeline.standard(n_phases=n, use_t1=use_t1, verify="none").run(
        build(name, preset)
    )
    return ctx.netlist


@functools.lru_cache(maxsize=None)
def _ci_netlist(name, flow):
    return flow_netlist(name, "ci", flow)


def ci_netlist(name, flow):
    """A private copy of a cached ci-preset flow output."""
    return copy.deepcopy(_ci_netlist(name, flow))


@contextlib.contextmanager
def restaged(name, flow):
    """The cached ci-preset flow output; its stages are restored on exit
    (the corruptions below change stages only, never structure)."""
    nl = _ci_netlist(name, flow)
    stages = [c.stage for c in nl.cells]
    try:
        yield nl
    finally:
        for cell, stage in zip(nl.cells, stages):
            cell.stage = stage


def assert_same(nl):
    """Shipped and reference results agree; returns the violations."""
    assert measure(nl) == measure_reference(nl)
    assert area_jj(nl) == area_jj_reference(nl)
    assert count_splitters(nl) == count_splitters_reference(nl)
    got = check_timing(nl)
    want = check_timing_reference(nl)
    assert got.n_phases == want.n_phases
    assert got.violations == want.violations
    return got.violations


class TestRegistryDifferential:
    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("name", TABLE1_ORDER)
    @pytest.mark.parametrize("preset", ["ci", "paper"])
    def test_flow_output(self, preset, name, flow):
        nl = flow_netlist(name, preset, flow)
        assert assert_same(nl) == []

    @pytest.mark.parametrize("last", ["map_to_sfq", "phase_assign"])
    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_before_insertion(self, name, flow, last):
        """Netlists before DFF insertion: unstaged after mapping, and
        staged with edges longer than n after phase assignment."""
        n, use_t1 = FLOWS[flow]
        pipeline = Pipeline.standard(n_phases=n, use_t1=use_t1, verify="none")
        while pipeline.names()[-1] != last:
            pipeline = pipeline.without(pipeline.names()[-1])
        nl = pipeline.run(build(name, "ci")).netlist
        assert assert_same(nl)  # no stages yet, or gaps no DFF has bridged

    def test_pos_on_consumed_nets(self):
        """A PO slot adds one consumer to a net that cells also read."""
        nl = SFQNetlist(n_phases=2)
        a, b = nl.add_pi(), nl.add_pi()
        g = nl.add_gate(Gate.AND, [(a, "out"), (b, "out")])
        h = nl.add_gate(Gate.NOT, [(g, "out")])
        nl.add_po((a, "out"))
        nl.add_po((g, "out"))
        nl.add_po((g, "out"))
        nl.add_po((h, "out"))
        assert count_splitters(nl) == 3  # a: 2 readers, g: 3, h: 1
        assert assert_same(nl)

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_materialized_splitters(self, name, flow):
        nl = ci_netlist(name, flow)
        before = measure(nl)
        report = materialize_splitters(nl)
        assert report.splitters_added == count_splitters_reference(
            _ci_netlist(name, flow)
        )
        assert assert_same(nl) == []
        after = measure(nl)
        assert after.area_jj == before.area_jj
        assert after.num_splitters == before.num_splitters
        assert count_splitters(nl) == 0


# -- corrupted netlists ------------------------------------------------------


def _driver(nl, sig):
    return nl.cells[resolve_clocked_driver(nl, sig)[0]]


def _clocked(nl):
    return [c for c in nl.cells if c.kind in CLOCKED_KINDS]


def _staged_edges(nl):
    """(consumer, resolved driver) pairs with both stages set."""
    return [
        (c, _driver(nl, sig))
        for c in _clocked(nl)
        if c.stage is not None
        for sig in c.fanins
        if _driver(nl, sig).stage is not None
    ]


def no_stage(nl, rng):
    rng.choice(_clocked(nl)).stage = None
    return "has no stage"


def negative_stage(nl, rng):
    rng.choice(_clocked(nl)).stage = -1 - rng.randrange(3)
    return "negative stage"


def pi_outside_epoch0(nl, rng):
    cell = nl.cells[rng.choice(nl.pis)]
    cell.stage = rng.choice([-1, nl.n_phases, nl.n_phases + 2, None])
    return "outside epoch 0"


def gap_zero(nl, rng):
    cell, driver = rng.choice(_staged_edges(nl))
    cell.stage = driver.stage
    return "gap 0 < 1"


def gap_over_n(nl, rng):
    cell, driver = rng.choice(_staged_edges(nl))
    cell.stage = driver.stage + nl.n_phases + 1 + rng.randrange(3)
    return f"> n={nl.n_phases}"


def colliding_t1_arrivals(nl, rng):
    candidates = []
    for cell in nl.cells:
        if cell.kind is CellKind.T1 and cell.stage is not None:
            drivers = [_driver(nl, sig) for sig in cell.fanins]
            if len({d.index for d in drivers}) == 3:
                candidates.append(drivers)
    if not candidates:
        return None
    a, b, _c = rng.choice(candidates)
    b.stage = a.stage
    return "not pairwise distinct"


CORRUPTIONS = [
    no_stage,
    negative_stage,
    pi_outside_epoch0,
    gap_zero,
    gap_over_n,
    colliding_t1_arrivals,
]


def corrupt(nl, corruption, seed):
    """Apply one corruption; returns the text it must produce (or None
    when the netlist has nothing to corrupt that way)."""
    return corruption(nl, random.Random(seed))


class TestCorruptedDifferential:
    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("flow", sorted(FLOWS))
    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_one_corruption(self, name, flow, corruption):
        for seed in range(3):
            with restaged(name, flow) as nl:
                expected = corrupt(nl, corruption, seed)
                if expected is None:
                    assert not FLOWS[flow][1]  # only T1 flows have T1 cells
                    continue
                violations = assert_same(nl)
                assert any(expected in v for v in violations), violations

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_every_corruption_at_once(self, name):
        """All three rule groups fire; the oracle fixes their order.

        (A later corruption may overwrite an earlier one's cell, so
        single texts are checked by ``test_one_corruption``.)
        """
        with restaged(name, "4phi_t1") as nl:
            for seed, corruption in enumerate(CORRUPTIONS):
                corrupt(nl, corruption, seed)
            violations = assert_same(nl)
        groups = (
            ("has no stage", "negative stage", "outside epoch 0"),
            ("edge ",),
            ("not pairwise distinct",),
        )
        for texts in groups:
            assert any(t in v for v in violations for t in texts), violations

    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("name", ["adder", "c6288", "multiplier", "voter"])
    def test_corruption_behind_splitters(self, name, corruption):
        """Drivers reached through physical splitter trees."""
        nl = ci_netlist(name, "4phi_t1")
        materialize_splitters(nl)
        expected = corrupt(nl, corruption, 11)
        violations = assert_same(nl)
        assert any(expected in v for v in violations), violations

    @pytest.mark.parametrize("seed", range(20))
    def test_scrambled_stages(self, seed):
        """Random stages (None, negative, far too late) on many cells."""
        rng = random.Random(seed)
        name = TABLE1_ORDER[seed % len(TABLE1_ORDER)]
        nl = ci_netlist(name, sorted(FLOWS)[seed % len(FLOWS)])
        if seed % 2:
            materialize_splitters(nl)
        top = max(c.stage or 0 for c in nl.cells) + nl.n_phases + 2
        for cell in nl.cells:
            if cell.kind is CellKind.SPLITTER or rng.random() > 0.1:
                continue
            cell.stage = rng.choice([None, rng.randint(-3, top)])
        assert assert_same(nl)

    def test_all_stages_negative(self):
        nl = SFQNetlist(n_phases=2)
        a = nl.add_pi()
        g = nl.add_gate(Gate.NOT, [(a, "out")])
        nl.cells[g].stage = -2
        nl.add_po((g, "out"))
        assert measure(nl).depth_cycles == 0
        assert assert_same(nl)


# -- one walk, guarded without a clock ---------------------------------------


class CountingList(list):
    """A cell list that counts the walks over it (indexing is free)."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("splitters", [False, True], ids=["nets", "physical"])
@pytest.mark.parametrize("flow", sorted(FLOWS))
class TestOneWalk:
    def _netlist(self, flow, splitters):
        nl = ci_netlist("multiplier", flow)
        if splitters:
            materialize_splitters(nl)
        nl.cells = CountingList(nl.cells)
        return nl

    def test_measure_walks_once_and_copies_no_index(
        self, flow, splitters, monkeypatch
    ):
        nl = self._netlist(flow, splitters)

        def no_copy():
            raise AssertionError("measure copied the consumer index")

        monkeypatch.setattr(nl, "consumers", no_copy)
        measure(nl)
        assert nl.cells.walks == 1

    def test_check_timing_walks_once(self, flow, splitters):
        nl = self._netlist(flow, splitters)
        check_timing(nl)
        assert nl.cells.walks == 1

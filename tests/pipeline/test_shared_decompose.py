"""Pipelines over one network object share one library decomposition.

``DecomposePass`` computes ``strash(decompose_to_library(source))`` once
per source network and cell set and hands the same object to every later
flow over that source, so the Table-I sweep (1φ, 4φ and 4φ+T1 over one
network) decomposes each circuit once.  Sharing is sound only because
no pass mutates the network it is given; that contract is pinned here
too.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.circuits import build
from repro.network.gates import Gate
from repro.pipeline import (
    Pipeline,
    RefactorPass,
    SplitterPass,
    baseline_pipelines,
    run_many,
)
from repro.pipeline.batch import BASELINE_LABELS
from repro.pipeline.passes import decompose as decompose_module
from repro.sfq.cell_library import CellLibrary, CellSpec, default_library


@pytest.fixture
def calls(monkeypatch):
    """Counts ``decompose_to_library`` calls made by ``DecomposePass``."""
    counted = []
    real = decompose_module.decompose_to_library

    def counting(net, library=None):
        counted.append(1)  # holds no reference to the network
        return real(net, library)

    monkeypatch.setattr(decompose_module, "decompose_to_library", counting)
    return counted


def run_table_flows(net):
    pipes = baseline_pipelines()
    return [pipes[label].run(net) for label in BASELINE_LABELS]


def add_and_po(net):
    """Mutate *net*: a new AND of its first two PIs, bound to a new PO."""
    net.add_po(net.add_gate(Gate.AND, net.pis[:2]), "extra")


class TestSharing:
    def test_three_table_flows_decompose_once(self, calls):
        ctxs = run_table_flows(build("adder", "ci"))
        assert len(calls) == 1
        # 1phi and nphi end on the shared decomposition itself
        assert ctxs[0].network is ctxs[1].network

    def test_shared_results_match_fresh_runs(self):
        shared = run_table_flows(build("adder", "ci"))
        pipes = baseline_pipelines()
        for label, ctx in zip(BASELINE_LABELS, shared):
            fresh = pipes[label].run(build("adder", "ci"))
            assert ctx.metrics == fresh.metrics, label
            assert (ctx.t1_found, ctx.t1_used) == (
                fresh.t1_found, fresh.t1_used
            ), label
            assert (
                ctx.network.structural_hash()
                == fresh.network.structural_hash()
            ), label
            assert ctx.events == fresh.events, label

    def test_same_cell_set_at_other_costs_shares(self, calls):
        net = build("adder", "ci")
        # a T1 flow would end on its own network and drop the shared one
        pipe = Pipeline.standard(n_phases=1, use_t1=False, verify="none")
        costly = CellLibrary({
            key: CellSpec(spec.name, spec.jj_count + 1, spec.clocked)
            for key, spec in default_library().gate_cells.items()
        })
        first = pipe.run(net)
        second = pipe.with_library(costly).run(net)
        assert len(calls) == 1
        assert second.area_jj != first.area_jj


class TestRecompute:
    def test_source_gate_added_after_a_run(self, calls):
        net = build("adder", "ci")
        pipe = Pipeline.standard(n_phases=1, use_t1=False, verify="none")
        held = pipe.run(net)
        add_and_po(net)
        ctx = pipe.run(net)
        assert len(calls) == 2
        assert ctx.network is not held.network
        assert len(ctx.network.pos) == len(held.network.pos) + 1

    def test_source_po_or_name_changed_after_a_run(self, calls):
        # neither bumps the epoch, but both reach the decomposition
        net = build("adder", "ci")
        pipe = Pipeline.standard(n_phases=1, use_t1=False, verify="none")
        held = pipe.run(net)
        net.add_po(net.pos[0], "twin")
        assert pipe.run(net).network.po_names[-1] == "twin"
        net.set_name(net.pis[0], "renamed")
        ctx = pipe.run(net)
        assert len(calls) == 3
        assert ctx.network.get_name(ctx.network.pis[0]) == "renamed"
        assert held.network.get_name(held.network.pis[0]) != "renamed"

    def test_library_without_a_cell(self, calls):
        net = build("adder", "ci")
        pipe = Pipeline.standard(n_phases=1, use_t1=False, verify="none")
        no_and3 = CellLibrary({
            key: spec
            for key, spec in default_library().gate_cells.items()
            if key != (Gate.AND, 3)
        })
        held = pipe.run(net)
        ctx = pipe.with_library(no_and3).run(net)
        assert len(calls) == 2
        assert ctx.network is not held.network
        assert all(
            not (ctx.network.gate(n) is Gate.AND
                 and len(ctx.network.fanin(n)) == 3)
            for n in ctx.network.nodes()
        )

    def test_shared_result_mutated(self, calls):
        net = build("adder", "ci")
        pipe = Pipeline.standard(n_phases=1, use_t1=False, verify="none")
        held = pipe.run(net)
        add_and_po(held.network)  # breaks the read-only contract
        ctx = pipe.run(net)
        assert len(calls) == 2
        assert ctx.network is not held.network
        fresh = pipe.run(build("adder", "ci"))
        assert ctx.network.structural_hash() == fresh.network.structural_hash()

    def test_every_holder_gone(self, calls):
        net = build("adder", "ci")
        ctxs = run_table_flows(net)
        shared = weakref.ref(ctxs[0].network)
        del ctxs
        gc.collect()
        assert shared() is None  # the memo holds the result weakly
        run_table_flows(net)
        assert len(calls) == 2


class TestNothingKeptAlive:
    def test_source_dies_with_its_caller(self):
        net = build("adder", "ci")
        ctxs = run_table_flows(net)
        source = weakref.ref(net)
        del net, ctxs
        gc.collect()
        assert source() is None

    def test_threads_sharing_a_source_agree(self):
        # the memo is process-wide: racing flows may each decompose, but
        # every one of them must see a correct, unchanged decomposition
        net = build("adder", "ci")
        pipe = Pipeline.standard(n_phases=1, use_t1=False, verify="none")
        expected = pipe.run(build("adder", "ci"))
        results, errors = [], []

        def worker():
            try:
                for _ in range(3):
                    results.append(pipe.run(net))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 18
        for ctx in results:
            assert ctx.metrics == expected.metrics
            assert (
                ctx.network.structural_hash()
                == expected.network.structural_hash()
            )

    def test_serially_run_network_still_pickles_for_the_pool(self):
        net = build("adder", "ci")
        pipe = Pipeline.standard(verify="none")
        serial = pipe.run(net)
        parallel = run_many([net, net], pipeline=pipe, jobs=2)
        for ctx in parallel:
            assert ctx.metrics == serial.metrics
            assert ctx.events == serial.events


def _read_only_hooks(seen):
    """Hooks asserting each pass leaves the network it was given as-is."""

    def start(ctx, p):
        given = ctx.network
        seen[p.name] = (given, id(given), given.epoch, given.structural_hash())

    def end(ctx, p, _elapsed):
        given, ident, epoch, shash = seen[p.name]
        assert (id(given), given.epoch, given.structural_hash()) == (
            ident, epoch, shash
        ), f"pass {p.name!r} mutated the network it was given"

    return start, end


@pytest.mark.parametrize("n_phases,use_t1", [(1, False), (4, False), (4, True)])
@pytest.mark.parametrize("rewrites", [False, True], ids=["plain", "rewrites"])
def test_no_pass_mutates_its_input(n_phases, use_t1, rewrites):
    pipe = Pipeline.standard(
        n_phases=n_phases,
        use_t1=use_t1,
        balance_network=rewrites,
    )
    if rewrites:
        pipe = pipe.with_pass(RefactorPass(), after="balance")
        pipe = pipe.with_pass(SplitterPass(), after="dff_insert")
    net = build("adder", "ci")
    source_hash = net.structural_hash()
    seen = {}
    pipe.with_hooks(*_read_only_hooks(seen)).run(net)
    assert list(seen) == pipe.names()
    assert net.structural_hash() == source_hash

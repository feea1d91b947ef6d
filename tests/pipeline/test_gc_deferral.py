"""``Pipeline.run`` defers full (gen-2) garbage collections.

A flow keeps millions of objects alive, so a full collection inside it
traverses them all and frees little.  ``run`` raises the gen-2 threshold
for its pass loop and restores the caller's thresholds exactly: after a
normal run, a pass that raises, a nested run and overlapping threaded
runs.
"""

import gc
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.circuits.synthetic import build_synthetic
from repro.network.logic_network import LogicNetwork
from repro.pipeline import Pipeline
from repro.pipeline.context import FlowContext


@contextmanager
def full_collections():
    """Count gen-2 collections while the block runs (``counts[0]``)."""
    counts = [0]

    def callback(phase, info):
        if phase == "start" and info["generation"] == 2:
            counts[0] += 1

    gc.callbacks.append(callback)
    try:
        yield counts
    finally:
        gc.callbacks.remove(callback)


@contextmanager
def fresh_heap():
    """Freeze the test process's heap, so that the objects a flow allocates
    decide alone when a full collection is due."""
    gc.freeze()
    gc.collect()
    try:
        yield
    finally:
        gc.unfreeze()


@contextmanager
def thresholds(*values):
    saved = gc.get_threshold()
    gc.set_threshold(*values)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@dataclass
class CallPass:
    """A pass that calls *fn* with the context (for probing the flow)."""

    fn: Callable[[FlowContext], None]
    name: str = "probe"

    def run(self, ctx):
        self.fn(ctx)
        return ctx


def tiny_net():
    net = LogicNetwork("tiny")
    a, b = net.add_pi("a"), net.add_pi("b")
    net.add_po(net.add_and(a, b), "y")
    return net


def test_no_full_collection_inside_a_flow():
    net = build_synthetic("datapath", 3000, 0)
    pipe = Pipeline.standard(verify="none")
    with thresholds(700, 10, 10):
        # the same passes outside Pipeline.run do run full collections
        with fresh_heap(), full_collections() as outside:
            ctx = FlowContext(source=net, name="datapath", verify="none")
            for p in pipe.passes:
                ctx = p.run(ctx) or ctx
        with fresh_heap(), full_collections() as inside:
            pipe.run(net)
        assert gc.get_threshold() == (700, 10, 10)
    assert outside[0] > 0
    assert inside[0] == 0


def test_thresholds_raised_during_and_restored_after_a_run():
    seen = []
    pipe = Pipeline([CallPass(lambda ctx: seen.append(gc.get_threshold()))])
    with thresholds(500, 7, 9):
        pipe.run(tiny_net())
        assert gc.get_threshold() == (500, 7, 9)
    assert seen == [(500, 7, 1000)]


def test_thresholds_restored_after_a_pass_raises():
    def boom(ctx):
        raise RuntimeError("pass failed")

    with thresholds(600, 8, 11):
        with pytest.raises(RuntimeError):
            Pipeline([CallPass(boom)]).run(tiny_net())
        assert gc.get_threshold() == (600, 8, 11)


def test_nested_run_restores_once():
    inner_seen = []
    inner = Pipeline([CallPass(lambda ctx: inner_seen.append(gc.get_threshold()))])
    after_inner = []

    def run_inner(ctx):
        inner.run(tiny_net())
        after_inner.append(gc.get_threshold())  # still inside the outer run

    with thresholds(700, 10, 10):
        Pipeline([CallPass(run_inner)]).run(tiny_net())
        assert gc.get_threshold() == (700, 10, 10)
    assert inner_seen == after_inner == [(700, 10, 1000)]


def test_overlapping_threaded_runs_restore_once():
    both_inside = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen = []

    def first(ctx):
        both_inside.wait()

    def second(ctx):
        both_inside.wait()
        first_done.wait(timeout=30)  # the first run has restored nothing
        seen.append(gc.get_threshold())

    errors = []

    def flow(fn, done=None):
        try:
            Pipeline([CallPass(fn)]).run(tiny_net())
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)
        if done is not None:
            done.set()

    with thresholds(700, 10, 10):
        threads = [
            threading.Thread(target=flow, args=(first, first_done)),
            threading.Thread(target=flow, args=(second,)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert gc.get_threshold() == (700, 10, 10)
    assert not errors
    assert seen == [(700, 10, 1000)]


def test_threaded_runs_stress():
    """Many short flows on more threads than cores, switching often: every
    pass sees the raised threshold and the caller's comes back."""
    seen = set()
    pipe = Pipeline([CallPass(lambda ctx: seen.add(gc.get_threshold()))])
    net = tiny_net()
    errors = []

    def worker():
        try:
            for _ in range(200):
                pipe.run(net)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with thresholds(700, 10, 10):
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert gc.get_threshold() == (700, 10, 10)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert seen == {(700, 10, 1000)}

"""The pass-manager: compose, rearrange and run flow pipelines.

``Pipeline`` is an immutable sequence of :class:`~repro.pipeline.base.
Pass` objects with a fluent builder::

    pipe = (Pipeline.standard(n_phases=4, use_t1=True)
            .without("t1_detect")                       # baseline flow
            .replace("phase_assign", PhaseAssignPass(sweeps=8))
            .with_pass(BalancePass(), after="decompose"))
    ctx = pipe.run(net)

Every builder method returns a **new** pipeline, so partially-built
pipelines can be shared and specialised freely.  ``run`` threads a
:class:`~repro.pipeline.context.FlowContext` through the passes,
recording per-pass wall-clock timings and firing the registered
``on_pass_start`` / ``on_pass_end`` hooks around each stage.

A flow keeps most of what it allocates alive, so a full (gen-2) cyclic
GC collection inside it traverses every live object and frees little;
``run`` defers them (see :func:`_deferred_full_gc`).
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PipelineError
from repro.network.logic_network import LogicNetwork
from repro.pipeline.base import Pass
from repro.pipeline.context import FlowContext
from repro.pipeline.passes import (
    BalancePass,
    DecomposePass,
    DffInsertPass,
    MapPass,
    PhaseAssignPass,
    T1DetectPass,
    VerifyMetricsPass,
)
from repro.sfq.cell_library import CellLibrary

#: the verification modes a pipeline accepts (see FlowContext.verify)
VERIFY_MODES = ("none", "cec", "full")

#: gen-2 threshold inside a flow: ~1000 gen-1 collections (~7M net
#: allocations at the default thresholds) before a full collection
FLOW_GEN2_THRESHOLD = 1000

_gc_lock = threading.Lock()
_gc_depth = 0
_gc_saved: Tuple[int, ...] = ()


@contextmanager
def _deferred_full_gc() -> Iterator[None]:
    """Raise the gen-2 GC threshold for the duration of the block.

    The outermost entry saves the caller's thresholds and the last exit
    restores them exactly, exceptions included.  The thresholds are
    process-wide, so the depth count is too: kept under a lock, it makes
    nested and concurrent (threaded) flows restore once.
    Gen-0/1 collections still run as before, and the gen-1 collections
    counted meanwhile stay pending, so once the thresholds are restored
    the next collection due can be the deferred full one: memory stays
    bounded between flows.
    """
    global _gc_depth, _gc_saved
    with _gc_lock:
        if _gc_depth == 0:
            _gc_saved = gc.get_threshold()
            gc.set_threshold(
                _gc_saved[0], _gc_saved[1], max(_gc_saved[2], FLOW_GEN2_THRESHOLD)
            )
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0:
                gc.set_threshold(*_gc_saved)


#: hook signatures: start(ctx, pass_), end(ctx, pass_, elapsed_seconds)
StartHook = Callable[[FlowContext, Pass], None]
EndHook = Callable[[FlowContext, Pass, float], None]


@dataclass(frozen=True)
class PipelineHooks:
    """One observer of pipeline execution; both callbacks are optional."""

    on_pass_start: Optional[StartHook] = None
    on_pass_end: Optional[EndHook] = None


class Pipeline:
    """An ordered, immutable sequence of passes plus run-time settings."""

    def __init__(
        self,
        passes: Sequence[Pass] = (),
        *,
        verify: str = "cec",
        library: Optional[CellLibrary] = None,
        hooks: Sequence[PipelineHooks] = (),
    ):
        if verify not in VERIFY_MODES:
            raise PipelineError(
                f"verify must be one of {', '.join(VERIFY_MODES)}, got {verify!r}"
            )
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.verify = verify
        self.library = library
        self.hooks: Tuple[PipelineHooks, ...] = tuple(hooks)
        seen = set()
        for p in self.passes:
            if p.name in seen:
                raise PipelineError(f"duplicate pass name {p.name!r}")
            seen.add(p.name)

    # -- construction -------------------------------------------------------

    #: the largest accepted phase count: T1 input planning enumerates the
    #: freshness window's slot triples (~n³), and every caller uses n <= 8
    MAX_PHASES = 16

    @classmethod
    def standard(
        cls,
        n_phases: int = 4,
        use_t1: bool = True,
        *,
        share_chains: bool = True,
        balance_network: bool = False,
        sweeps: int = 4,
        cuts_per_node: int = 8,
        verify: str = "cec",
        library: Optional[CellLibrary] = None,
    ) -> "Pipeline":
        """The paper's flow as a pipeline: the one way to run it.

        The baselines are ``standard(n_phases=1, use_t1=False)`` and
        ``standard(n_phases=4, use_t1=False)``.  Optional extras go in
        through the builder, e.g. explicit splitter trees with
        ``.with_pass(SplitterPass(), after="dff_insert")``.
        """
        if not 1 <= n_phases <= cls.MAX_PHASES:
            raise PipelineError(
                f"n_phases must be in 1..{cls.MAX_PHASES}, got {n_phases}"
            )
        if sweeps < 0:
            raise PipelineError(f"sweeps must be >= 0, got {sweeps}")
        if cuts_per_node < 1:
            raise PipelineError(f"cuts_per_node must be >= 1, got {cuts_per_node}")
        if use_t1 and n_phases < 3:
            raise PipelineError(
                "T1 staggering needs n_phases >= 3 (three distinct arrival "
                "slots inside one freshness window)"
            )
        passes: List[Pass] = [DecomposePass()]
        if balance_network:
            passes.append(BalancePass())
        if use_t1:
            passes.append(T1DetectPass(cuts_per_node=cuts_per_node))
        passes.append(MapPass(n_phases=n_phases))
        passes.append(PhaseAssignPass(sweeps=sweeps))
        passes.append(DffInsertPass(share_chains=share_chains))
        passes.append(VerifyMetricsPass())
        return cls(passes, verify=verify, library=library)

    # -- fluent builder (each method returns a new Pipeline) ----------------

    def _rebuild(self, passes: Sequence[Pass]) -> "Pipeline":
        return Pipeline(
            passes, verify=self.verify, library=self.library, hooks=self.hooks
        )

    def names(self) -> List[str]:
        """The pass names in execution order."""
        return [p.name for p in self.passes]

    def _index_of(self, name: str) -> int:
        for i, p in enumerate(self.passes):
            if p.name == name:
                return i
        raise PipelineError(
            f"no pass named {name!r} in pipeline {self.names()}"
        )

    def with_pass(
        self,
        new: Pass,
        *,
        before: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "Pipeline":
        """Insert *new* (default: append; or anchored before/after a name)."""
        if before is not None and after is not None:
            raise PipelineError("give at most one of before= / after=")
        if before is not None:
            at = self._index_of(before)
        elif after is not None:
            at = self._index_of(after) + 1
        else:
            at = len(self.passes)
        passes = list(self.passes)
        passes.insert(at, new)
        return self._rebuild(passes)

    def without(self, name: str) -> "Pipeline":
        """Remove the pass called *name*."""
        at = self._index_of(name)
        passes = list(self.passes)
        del passes[at]
        return self._rebuild(passes)

    def replace(self, name: str, new: Pass) -> "Pipeline":
        """Swap the pass called *name* for *new* (same position)."""
        at = self._index_of(name)
        passes = list(self.passes)
        passes[at] = new
        return self._rebuild(passes)

    def with_verify(self, verify: str) -> "Pipeline":
        """Set the verification mode ("none" | "cec" | "full")."""
        return Pipeline(
            self.passes, verify=verify, library=self.library, hooks=self.hooks
        )

    def with_library(self, library: Optional[CellLibrary]) -> "Pipeline":
        """Set the cell library used by every pass."""
        return Pipeline(
            self.passes, verify=self.verify, library=library, hooks=self.hooks
        )

    def with_hooks(
        self,
        on_pass_start: Optional[StartHook] = None,
        on_pass_end: Optional[EndHook] = None,
    ) -> "Pipeline":
        """Register an observer fired around every pass."""
        hooks = self.hooks + (
            PipelineHooks(on_pass_start=on_pass_start, on_pass_end=on_pass_end),
        )
        return Pipeline(
            self.passes, verify=self.verify, library=self.library, hooks=hooks
        )

    def without_hooks(self) -> "Pipeline":
        """Drop all hooks (used before shipping to worker processes)."""
        return Pipeline(self.passes, verify=self.verify, library=self.library)

    # -- execution ----------------------------------------------------------

    def run(self, net: LogicNetwork, name: Optional[str] = None) -> FlowContext:
        """Run every pass over *net*; returns the final context.

        Full (gen-2) garbage collections wait until the passes are done;
        the caller's GC thresholds are restored exactly afterwards (see
        :func:`_deferred_full_gc`).
        """
        with _deferred_full_gc():
            ctx = FlowContext(
                source=net,
                name=name or net.name,
                verify=self.verify,
                **({"library": self.library} if self.library is not None else {}),
            )
            t0 = time.perf_counter()
            for p in self.passes:
                for h in self.hooks:
                    if h.on_pass_start is not None:
                        h.on_pass_start(ctx, p)
                tp = time.perf_counter()
                ctx = p.run(ctx) or ctx
                elapsed = time.perf_counter() - tp
                ctx.timings[p.name] = ctx.timings.get(p.name, 0.0) + elapsed
                for h in self.hooks:
                    if h.on_pass_end is not None:
                        h.on_pass_end(ctx, p, elapsed)
            ctx.runtime_s = time.perf_counter() - t0
            return ctx

    def __repr__(self) -> str:  # pragma: no cover
        return f"Pipeline({' -> '.join(self.names())}, verify={self.verify!r})"

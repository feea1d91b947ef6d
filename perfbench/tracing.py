"""In-memory span tracing for the benchmark's traced runs (``--trace 1``).

Spans are recorded by the benchmark's own code around calls into the
program's public API -- pipeline hooks, the service client, the job
status timestamps -- so nothing inside ``src/`` is instrumented.  Each
span has a name, a start and an end (seconds on one clock per trace), a
parent span and the trace id of the flow run or service job it belongs
to.  A span's *self* time is its duration minus the part of that
interval its child spans cover.  Spans stay in memory and are written
out once, when the run ends.

Time the tracer spends in its own callbacks is summed in
``Tracer.overhead_s``: it is the cost tracing adds to the traced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: FlowContext.extras keys holding the open flow/pass spans of a run
_FLOW_SPAN = "perfbench.flow_span"
_PASS_SPAN = "perfbench.pass_span"


@dataclass
class Span:
    span_id: int
    trace_id: str
    name: str
    start: float
    end: float
    parent: Optional[int] = None


class Tracer:
    """Spans and per-layer samples of one traced benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.overhead_s = 0.0
        self._next_trace = 0

    def new_trace(self, prefix: str) -> str:
        self._next_trace += 1
        return f"{prefix}-{self._next_trace}"

    def add(
        self,
        name: str,
        trace_id: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
    ) -> Span:
        """Record one span; *end* may be patched later for open spans."""
        span = Span(
            len(self.spans), trace_id, name, start, end,
            None if parent is None else parent.span_id,
        )
        self.spans.append(span)
        return span

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = []
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted(children.get(s.span_id, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((s.end - s.start) - covered)
        return out

    def self_totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (span count, summed self seconds)``."""
        totals: Dict[str, Tuple[int, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            n, t = totals.get(span.name, (0, 0.0))
            totals[span.name] = (n + 1, t + own)
        return totals

    def write(self, path: Path) -> None:
        """Write every span and sample as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**asdict(span), "self": own}) + "\n")
            for name, values in sorted(self.samples.items()):
                fh.write(json.dumps({"sample": name, "values": values}) + "\n")


def _size(ctx) -> int:
    """Cells of the mapped netlist, or gates of the logic network before it."""
    if ctx.netlist is not None:
        return len(ctx.netlist)
    return ctx.network.num_gates()


def traced(pipe, tracer: Tracer, prefix: str):
    """*pipe* with hooks that record a ``flow`` span per run (one trace id
    per run) and a child span plus a ``<pass>.size_out`` sample per pass."""
    last = pipe.passes[-1].name

    def on_start(ctx, p) -> None:
        t0 = time.perf_counter()
        flow = ctx.extras.get(_FLOW_SPAN)
        if flow is None:
            flow = tracer.add("flow", tracer.new_trace(prefix), t0, t0)
            ctx.extras[_FLOW_SPAN] = flow
        t1 = time.perf_counter()
        ctx.extras[_PASS_SPAN] = tracer.add(p.name, flow.trace_id, t1, t1, flow)
        tracer.overhead_s += time.perf_counter() - t0

    def on_end(ctx, p, _elapsed) -> None:
        t0 = time.perf_counter()
        ctx.extras.pop(_PASS_SPAN).end = t0
        tracer.sample(f"{p.name}.size_out", _size(ctx))
        if p.name == last:
            ctx.extras.pop(_FLOW_SPAN).end = time.perf_counter()
        tracer.overhead_s += time.perf_counter() - t0

    return pipe.with_hooks(on_start, on_end)

"""The benchmark's three workloads, timed from outside through public calls.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`: set-up times, the timed samples, quality-of-result
totals, correctness counts and, in traced runs, the per-layer metrics.
Inputs are made from the seed inside the benchmark; the program only
receives the generated networks or ``.bench`` payloads.

* ``table1`` -- the 8 registry circuits at the ``paper`` preset through
  ``baseline_pipelines()`` (1phi, 4phi, 4phi+T1), serially through
  ``run_many``.  The seed shuffles the circuit order.
* ``scale_datapath`` -- ``Pipeline.standard()`` (verify=cec) on one
  fixed synthetic datapath; the seed renames its PIs/POs.
* ``service_mix`` -- one closed-loop client against an in-process
  ``FlowDaemon`` with one worker.  Each new datapath, relabelled by the
  seed, is a cache miss; it is followed by repeats of earlier ones
  (hits).  Payload sizes give flows of 0.4--0.6 s, the traffic on which
  the service's latency split was first measured.

Flow workloads journal their sweep with ``BatchJournal``, as ``repro-flow
table --journal`` does.  Their *miss* operation is one whole ``run_many``
call (a *unit*); their *hit* operation is what a resumed sweep costs:
open the first unit's journal and ``run_many`` freshly built copies of
its circuits against it.

In a traced run (``--trace 1``) flow units alternate between untraced
and traced, and service_mix runs an untraced block of operations before
the traced ones, so the cost of tracing is measured, not assumed.

Reported times are converted to reference seconds with the calibration
of ``calib.py``: flow units and set-ups piecewise (between jobs, passes
or generated circuits), each hit and each service operation as a whole.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calib import Calibrator, Segments
from gate import Gate
from tracing import Tracer, traced

from repro.circuits import TABLE1_ORDER, build
from repro.circuits.synthetic import build_synthetic
from repro.io.bench import dumps_bench, loads_bench
from repro.network.logic_network import LogicNetwork
from repro.pipeline import (
    BatchJournal,
    Pipeline,
    ResumedResult,
    baseline_pipelines,
    run_many,
    warm_worker,
)
from repro.pipeline.batch import BASELINE_LABELS
from repro.service import FlowDaemon, ServiceClient, bench_circuit, flow_report

PASSES = (
    "decompose", "t1_detect", "map_to_sfq",
    "phase_assign", "dff_insert", "verify_metrics",
)
#: cold set-ups (see :func:`cold_tables`) repeat until both bounds are
#: met; setup_s is their median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: journal-resume hits timed after each flow unit, until both bounds are met
HIT_REPLAYS = 4
HIT_SECONDS = 0.2
#: a flow unit is calibrated between its jobs and passes once this much
#: of it has run
SEGMENT_SECONDS = 0.5
#: traced units (and as many untraced ones) a traced flow run measures at least
TRACED_UNITS = 2
#: 8k nodes keep the layer shape of the 20k size (phase_assign ~70 % of
#: the flow) while a unit is short enough to time several per run
DATAPATH_NODES = 8_000
#: service_mix circuits as (datapath nodes, generator seed): those of
#: 1.2k-1.9k nodes whose flow ran 0.44-0.56 s in the daemon's worker on a
#: 2-vCPU x86 VM -- the 0.38-0.56 s flows the service's latency split was
#: measured on, kept clear of the client's polls at 0.35 s and 0.75 s
SERVICE_POOL = (
    (1400, 12), (1600, 14), (1700, 15), (1400, 21), (1500, 22), (1200, 28),
    (1400, 30), (1600, 32), (1500, 40), (1600, 41), (1200, 64), (1500, 67),
    (1600, 68), (1200, 73), (1400, 75), (1500, 76), (1600, 77), (1300, 83),
    (1400, 84), (1500, 85), (1600, 86), (1700, 87), (1800, 88), (1300, 92),
    (1500, 94), (1800, 97), (1300, 101), (1400, 102), (1500, 103),
    (1700, 105), (1800, 106), (1900, 107),
)
#: hits submitted after each new circuit
SERVICE_REPEATS = 4
SERVICE_NEW = 40
MIN_HITS = 100
MIN_MISSES = 20
#: service_mix wall_s and QoR cover the first WALL_GROUPS new circuits and
#: their repeats
WALL_GROUPS = 20
#: untraced groups a traced service_mix run measures first, as its baseline
BASELINE_GROUPS = 8


@dataclass
class Run:
    name: str
    seed: int
    seconds: float
    out: Path
    gate: Gate
    tracer: Optional[Tracer] = None
    cal: Calibrator = field(default_factory=Calibrator)


@dataclass
class Outcome:
    setup_s: List[float]
    walls: List[float]
    miss_s: List[float]
    hit_s: List[float]
    area_jj: int
    dffs: int
    t1_area_ratio: float
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: traced runs only: name -> (value, sample count)
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: traced runs only: (layer, self seconds per unit, span count) and the
    #: traced unit time they are shares of
    shares: List[Tuple[str, float, int]] = field(default_factory=list)
    share_wall: float = 0.0
    notes: List[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _more_setup(setup: List[float]) -> bool:
    return len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS


def cold_tables() -> None:
    """Drop the lookup tables ``warm_worker()`` builds, so it builds them again.

    They are ``functools.lru_cache`` entries; without this only the first
    set-up of a run would pay for them.
    """
    from repro.core import t1_matching
    from repro.network import npn

    for fn in (getattr(npn, "_npn_table", None),
               getattr(t1_matching, "t1_match_table", None)):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


# -- flow workloads ----------------------------------------------------------

@dataclass
class FlowJob:
    circuit: str
    label: str  # "1phi" | "nphi" | "t1"
    net: object
    pipe: Pipeline


def load_table1() -> Dict[str, LogicNetwork]:
    return {name: build(name, "paper") for name in TABLE1_ORDER}


def table1_jobs(seed: int, nets: Dict[str, LogicNetwork]) -> List[FlowJob]:
    """The Table-I sweep; the seed shuffles the circuit order."""
    order = list(TABLE1_ORDER)
    random.Random(f"table1:{seed}").shuffle(order)
    pipes = baseline_pipelines()  # verify="none", as `repro-flow table`
    return [FlowJob(name, label, nets[name], pipes[label])
            for name in order for label in BASELINE_LABELS]


def relabel(net, seed: int, shuffle: bool = True) -> LogicNetwork:
    """A copy of *net* whose PI and PO names carry the seed.

    With *shuffle*, PIs, gates (in a random topological order) and POs
    are also renumbered in a seeded random order.  Either way each seed
    hands the program a different input while the circuit -- and so the
    work the flow does -- stays the same.
    """
    rng = random.Random(f"relabel:{seed}")
    prefix = f"s{seed}_"
    out = LogicNetwork(net.name)
    new: Dict[int, int] = {0: 0, 1: 1}  # the two constants
    pis = list(net.pis)
    pos = list(zip(net.pos, net.po_names))
    if shuffle:
        rng.shuffle(pis)
        rng.shuffle(pos)
    for i, p in enumerate(pis):
        new[p] = out.add_pi(prefix + (net.get_name(p) or f"pi{i}"))
    pending = {n: len({f for f in net.fanin(n) if net.is_logic(f)})
               for n in net.nodes() if net.is_logic(n)}
    ready = [n for n, k in pending.items() if k == 0]
    base = out.num_nodes()
    items = []
    while ready:
        n = ready.pop(rng.randrange(len(ready)) if shuffle else -1)
        new[n] = base + len(items)
        items.append((net.gate(n), tuple(new[f] for f in net.fanin(n))))
        for c in set(net.fanout(n)):
            pending[c] -= 1
            if pending[c] == 0:
                ready.append(c)
    ids = out.add_gates_bulk(items)
    for i, (node, name) in enumerate(pos):
        target = new[node]
        out.add_po(ids[target - base] if target >= base else target,
                   prefix + (name or f"po{i}"))
    return out


def load_synthetic(generator: str, nodes: int):
    return lambda: {generator: build_synthetic(generator, nodes, 0)}


def scale_jobs(seed: int, nets: Dict[str, LogicNetwork]) -> List[FlowJob]:
    """The T1 flow on one fixed synthetic; the seed renames its PIs/POs.

    The structure stays fixed, because at this size the flow's run time
    and DFF count vary by tens of percent between generator seeds.
    """
    (name, net), = nets.items()
    return [FlowJob(name, "t1", relabel(net, seed, shuffle=False),
                    Pipeline.standard(verify="cec"))]


def _metrics(ctx) -> dict:
    return flow_report(ctx)["metrics"]


def run_flow(run: Run, load, make_jobs, paper_ratio: bool) -> Outcome:
    """Time whole ``run_many`` calls on ``make_jobs(seed, load())``.

    *load* builds the workload's circuits with the program's own
    generators.  Units run until ``run.seconds`` of them are measured;
    each unit gets freshly built circuits, outside its timer.
    """
    setup: List[float] = []
    while _more_setup(setup):
        cold_tables()
        t0 = time.perf_counter()
        warm_worker()
        jobs = make_jobs(run.seed, load())
        setup.append((time.perf_counter() - t0) * run.cal.scale())
    out = Outcome(setup, [], [], [], 0, 0, 1.0)

    meta = {"perfbench": run.name, "seed": run.seed}
    journal0 = run.out / f"journal-{run.name}.jsonl"
    reference: List[dict] = []
    # raw seconds, for the traced/untraced comparison and the layer shares
    raw_walls: List[float] = []
    traced_walls: List[float] = []
    segments = Segments(run.cal, SEGMENT_SECONDS)
    units = 0
    while True:
        # traced runs alternate: untraced units first, traced ones second
        tracing = run.tracer is not None and units % 2 == 1
        if units:  # fresh inputs: no analysis cache outlives its unit
            jobs = make_jobs(run.seed, load())
        work = [(j.net, traced(j.pipe, run.tracer, run.name) if tracing
                 else j.pipe.with_hooks(None, segments.on_pass_end))
                for j in jobs]
        path = journal0 if not units else run.out / "journal-extra.jsonl"
        gc.collect()
        with BatchJournal(path, meta=meta) as journal:
            segments.start()
            ctxs = run_many(work, journal=journal, on_result=segments)
            wall, raw = segments.finish()
        if tracing:
            traced_walls.append(raw)
        else:
            out.walls.append(wall)
            raw_walls.append(raw)
        units += 1
        if not reference:
            # before any check runs: the verifier has a footprint of its own
            out.peak_rss_mb = peak_rss_mb()
            reference = [_metrics(c) for c in ctxs]
            _flow_qor(out, jobs, ctxs, paper_ratio)
        # check each unit as soon as it is timed and drop it, so every
        # unit starts from the same heap
        for job, ctx, ref in zip(jobs, ctxs, reference):
            out.attempted += 1
            error = run.gate.check(ctx.source, ctx.netlist)
            if error is None and _metrics(ctx) != ref:
                error = "metrics differ between identical runs"
            if error is not None:
                out.failures.append(f"{job.circuit}/{job.label}: {error}")
        del work, ctxs
        _replay(run, out, journal0, meta, lambda: make_jobs(run.seed, load()),
                reference)
        measured = sum(raw_walls) + sum(traced_walls)
        if measured >= run.seconds and (run.tracer is None
                                        or len(traced_walls) >= TRACED_UNITS):
            break
    out.miss_s = list(out.walls)
    if run.tracer is not None:
        _trace_layers(run.tracer, out, traced_walls, raw_walls)
    return out


def _replay(run: Run, out: Outcome, journal0: Path, meta, fresh_jobs,
            reference) -> None:
    """Time resumed sweeps against the first unit's journal and check that
    each returns the stored reports.

    Each hit gets circuits built afresh, outside its timer, as a resumed
    ``repro-flow table --journal`` has them: the hit then pays for hashing
    every circuit to find its journal entry, which reused circuits would
    answer from their hash cache.  Each hit is calibrated right before
    and right after it.
    """
    timed: List[float] = []
    while len(timed) < HIT_REPLAYS or sum(timed) < HIT_SECONDS:
        jobs = fresh_jobs()
        work = [(j.net, j.pipe) for j in jobs]
        # whether a full collection of the heap the units left lands inside
        # a hit would otherwise decide its time, by up to half
        gc.collect()
        run.cal.scale()  # a fresh "before" calibration
        t0 = time.perf_counter()
        with BatchJournal(journal0, meta=meta, resume=True) as journal:
            replay = run_many(work, journal=journal)
        timed.append((time.perf_counter() - t0) * run.cal.scale())
        out.attempted += len(replay)
        for job, res, ref in zip(jobs, replay, reference):
            if not isinstance(res, ResumedResult) or res.metrics_dict != ref:
                out.failures.append(
                    f"{job.circuit}/{job.label}: journal replay differs")
    out.hit_s += timed


def _flow_qor(out: Outcome, jobs, ctxs, paper_ratio: bool) -> None:
    t1 = [(j, c) for j, c in zip(jobs, ctxs) if j.label == "t1"]
    out.area_jj = sum(c.metrics.area_jj for _, c in t1)
    out.dffs = sum(c.metrics.num_dffs for _, c in t1)
    if paper_ratio:
        nphi = {j.circuit: c for j, c in zip(jobs, ctxs) if j.label == "nphi"}
        out.t1_area_ratio = statistics.fmean(
            c.metrics.area_jj / nphi[j.circuit].metrics.area_jj for j, c in t1)
    else:
        out.notes.append("t1_area_ratio: no 4phi baseline on this workload; "
                         "reported as 1.0")
    _t1_layers(out.layers, [c for _, c in t1])


def _t1_layers(layers, ctxs) -> None:
    """T1 yield and the DFF split (from ``ctx.insertion``) of T1-flow runs."""
    found = sum(c.t1_found for c in ctxs)
    used = sum(c.t1_used for c in ctxs)
    n = len(ctxs)
    layers["t1_detect.found"] = (found, n)
    layers["t1_detect.used_ratio"] = (used / found if found else 0.0, n)
    layers["dff_insert.path"] = (sum(c.insertion.path_dffs for c in ctxs), n)
    layers["dff_insert.stagger"] = (
        sum(c.insertion.t1_stagger_dffs for c in ctxs), n)
    layers["dff_insert.po"] = (sum(c.insertion.po_balance_dffs for c in ctxs), n)


def _overhead(layers, notes, traced_wall: float, untraced_wall: float,
              n_traced: int, n_untraced: int) -> None:
    layers["trace.wall_s"] = (traced_wall, n_traced)
    layers["trace.untraced_wall_s"] = (untraced_wall, n_untraced)
    layers["trace.overhead_s"] = (traced_wall - untraced_wall,
                                  min(n_traced, n_untraced))
    notes.append(
        f"tracing overhead {traced_wall - untraced_wall:+.4f} s per unit: "
        f"traced median {traced_wall:.4f} s (n={n_traced}) - untraced "
        f"median {untraced_wall:.4f} s (n={n_untraced})")


def _trace_layers(tracer: Tracer, out: Outcome, traced_walls,
                  raw_walls) -> None:
    """Per-pass self time and output size per traced unit, the layer
    shares, and the traced units measured against the untraced ones.
    All in raw seconds: the spans are raw, and both kinds of unit run in
    the same process, alternating."""
    n_units = len(traced_walls)
    totals = tracer.self_totals()
    wall = _median(traced_walls)
    untraced = _median(raw_walls)
    layers = out.layers
    for name in PASSES:
        n, total = totals.get(name, (0, 0.0))
        layers[f"{name}.self_s"] = (total / n_units, n)
        sizes = tracer.samples.get(f"{name}.size_out", [])
        layers[f"{name}.size_out"] = (sum(sizes) / n_units, len(sizes))
    flows = [s for s in tracer.spans if s.name == "flow"]
    glue = sum(traced_walls) - sum(s.end - s.start for s in flows)
    out.share_wall = wall
    out.shares.append(("run_many", glue / n_units, n_units))
    for name in ("flow",) + PASSES:
        n, total = totals.get(name, (0, 0.0))
        out.shares.append((name, total / n_units, n))
    _overhead(layers, out.notes, wall, untraced, n_units, len(out.walls))
    passes = sum(layers[f"{name}.self_s"][0] for name in PASSES)
    gap = passes - untraced
    within = abs(gap) <= abs(layers["trace.overhead_s"][0])
    found, ratio = layers["t1_detect.found"][0], layers["t1_detect.used_ratio"][0]
    out.notes += [
        f"pass self times sum to {passes:.4f} s; minus untraced wall_s "
        f"{untraced:.4f} s = {gap:+.4f} s "
        f"({'within' if within else 'outside'} the tracing overhead; "
        f"run_many glue {glue / n_units:.4f} s per unit)",
        f"phase_assign is {layers['phase_assign.self_s'][0] / untraced:.1%} "
        f"of untraced wall_s",
        f"t1_detect is {layers['t1_detect.self_s'][0] / untraced:.1%} of "
        f"untraced wall_s for {found} T1 candidates found, used/found "
        f"{ratio:.2f}",
        f"decompose is {layers['decompose.self_s'][0] / untraced:.1%} of "
        f"untraced wall_s",
    ]


def run_table1(run: Run) -> Outcome:
    return run_flow(run, load_table1, table1_jobs, paper_ratio=True)


def run_scale_datapath(run: Run) -> Outcome:
    return run_flow(run, load_synthetic("datapath", DATAPATH_NODES), scale_jobs,
                    paper_ratio=False)


# -- service_mix -------------------------------------------------------------

def service_plan(seed: int, on_circuit=lambda: None
                 ) -> Tuple[List[str], List[List[int]]]:
    """``.bench`` texts and the submission groups: a new circuit, then
    ``SERVICE_REPEATS`` repeats of earlier ones.  *on_circuit* is called
    after each text is made.

    The i-th new circuit is always the same datapath, relabelled by the
    seed (names only, so its structural hash does not depend on the
    seed); past the end of ``SERVICE_POOL`` the pool is reused with a
    fixed renumbering, which makes each a new circuit.  The seed also
    picks which earlier circuit each repeat is.
    """
    rng = random.Random(f"service_mix:{seed}")
    texts: List[str] = []
    groups: List[List[int]] = []
    for i in range(SERVICE_NEW):
        round_, k = divmod(i, len(SERVICE_POOL))
        net = build_synthetic("datapath", *SERVICE_POOL[k])
        if round_:
            net = relabel(net, round_)
        net = relabel(net, seed, shuffle=False)
        texts.append(dumps_bench(net))
        groups.append([i] + [rng.randrange(i + 1) for _ in range(SERVICE_REPEATS)])
        on_circuit()
    return texts, groups


class TracedClient(ServiceClient):
    """A ``ServiceClient`` that records a span around each of its calls.

    Spans use ``time.time()``, the clock of the job status timestamps.
    """

    def __init__(self, url: str, tracer: Tracer):
        super().__init__(url)
        self.tracer = tracer
        self.op = None
        self.polls = 0
        self.last: Optional[dict] = None
        self.seen_at = 0.0

    def _call(self, name: str, fn, *args, **kwargs):
        t0 = time.time()
        result = fn(*args, **kwargs)
        t1 = time.time()
        self.tracer.add(name, self.op.trace_id, t0, t1, self.op)
        self.tracer.overhead_s += time.time() - t1
        return result, t1

    def submit(self, *args, **kwargs):
        self.last, self.seen_at = self._call(
            "client.submit", super().submit, *args, **kwargs)
        return self.last

    def status(self, job_id):
        self.polls += 1
        self.last, self.seen_at = self._call(
            "client.status", super().status, job_id)
        return self.last

    def result(self, job_id):
        return self._call("client.result", super().result, job_id)[0]

    def traced_submit_and_wait(self, circuit) -> dict:
        t0 = time.time()
        self.op = self.tracer.add("client.op", self.tracer.new_trace("job"), t0, t0)
        self.polls = 0
        report = self.submit_and_wait(circuit)
        self.op.end = time.time()
        t1 = time.time()
        st = self.last
        if not st["cached"]:
            self.tracer.add("queue.wait", self.op.trace_id,
                            st["submitted_at"], st["started_at"], self.op)
            self.tracer.add("worker.run", self.op.trace_id,
                            st["started_at"], st["finished_at"], self.op)
            self.tracer.sample("queue.wait_s", st["started_at"] - st["submitted_at"])
            self.tracer.sample("worker.run_s", st["finished_at"] - st["started_at"])
            self.tracer.sample("client.polls", self.polls)
            self.tracer.sample("client.poll_overshoot_s",
                               self.seen_at - st["finished_at"])
        self.tracer.overhead_s += time.time() - t1
        return report


def _boot(warmup: str) -> Tuple[FlowDaemon, ServiceClient]:
    daemon = FlowDaemon(port=0, workers=1)
    daemon.start()
    client = ServiceClient(daemon.url)
    client.wait_ready()
    # the first job ends the boot: polled every 10 ms, so set-up is timed
    # to the job's end and not to the client's backoff steps
    job = client.submit(bench_circuit(warmup))
    client.wait_status(job["job_id"], poll_interval=0.01, poll_cap=0.01)
    client.result(job["job_id"])
    return daemon, client


@dataclass
class Op:
    idx: int  # circuit index in the plan
    report: dict
    latency: float  # raw seconds
    traced: bool
    ref: float  # latency in reference seconds


def run_service_mix(run: Run) -> Outcome:
    warmup = dumps_bench(build_synthetic("datapath", 100, -1))
    setup: List[float] = []
    segments = Segments(run.cal, SEGMENT_SECONDS)
    daemon = None
    while _more_setup(setup):
        if daemon is not None:
            daemon.stop()
        cold_tables()
        segments.start()
        texts, groups = service_plan(run.seed, segments)
        daemon, plain = _boot(warmup)
        setup.append(segments.finish()[0])

    tracer = run.tracer
    traced_client = TracedClient(daemon.url, tracer) if tracer else None
    ops: List[Op] = []
    group_walls: List[float] = []  # raw seconds of each measured group
    try:
        gc.collect()
        run.cal.scale()  # a fresh "before" calibration
        for g, group in enumerate(groups):
            tracing = tracer is not None and g >= BASELINE_GROUPS
            for idx in group:
                circuit = bench_circuit(texts[idx])
                t0 = time.perf_counter()
                if tracing:
                    report = traced_client.traced_submit_and_wait(circuit)
                else:
                    report = plain.submit_and_wait(circuit)
                latency = time.perf_counter() - t0
                ops.append(Op(idx, report, latency, tracing,
                              latency * run.cal.scale()))
            if tracing == (tracer is not None):
                group_walls.append(sum(o.latency for o in ops[-len(group):]))
            measured = [o for o in ops if o.traced == (tracer is not None)]
            hits = sum(1 for o in measured if o.report["cached"])
            if (len(group_walls) >= WALL_GROUPS
                    and sum(group_walls) >= run.seconds
                    and hits >= MIN_HITS
                    and len(measured) - hits >= MIN_MISSES):
                break
        cache = plain.metrics()["cache"]
    finally:
        daemon.stop()

    measured = [o for o in ops if o.traced == (tracer is not None)]
    out = Outcome(setup, [_median(group_walls)], [], [], 0, 0, 1.0)
    out.peak_rss_mb = peak_rss_mb()
    out.notes.append("t1_area_ratio: no 4phi baseline on this workload; "
                     "reported as 1.0")
    # a miss waits on the client's poll schedule, a wall-clock sleep that
    # calibration must not scale; a hit is this process's own work
    for o in measured:
        if o.report["cached"]:
            out.hit_s.append(o.ref)
        else:
            out.miss_s.append(o.latency)
    window = measured[:WALL_GROUPS * (1 + SERVICE_REPEATS)]
    wall = sum(group_walls[:WALL_GROUPS])
    _check_service(run, out, texts, ops, window)
    if tracer is not None:
        _service_layers(run, out, texts, ops, window, wall, cache)
    return out


def _check_service(run: Run, out: Outcome, texts, ops, window) -> None:
    """Hold every service report against the verified in-process reference
    of its circuit (:meth:`Gate.reference`), and every hit against its miss."""
    pipe = Pipeline.standard()
    first: Dict[int, dict] = {}
    for o in ops:
        out.attempted += 1
        if o.idx in first:
            if o.report["metrics"] != first[o.idx]["metrics"]:
                out.failures.append(f"circuit {o.idx}: hit differs from its miss")
            continue
        first[o.idx] = o.report
        ref, error = run.gate.reference(loads_bench(texts[o.idx]), pipe.run)
        if error is None and (o.report["metrics"] != ref["metrics"]
                              or o.report["t1"] != ref["t1"]
                              or o.report["verified"] is not True):
            error = "service report differs from the in-process flow"
        if error is not None:
            out.failures.append(f"circuit {o.idx}: {error}")
    new = {o.idx for o in window if not o.report["cached"]}
    out.area_jj = sum(first[i]["metrics"]["area_jj"] for i in new)
    out.dffs = sum(first[i]["metrics"]["dffs"] for i in new)


def _class_overhead(ops, cached: bool) -> Tuple[float, float, int, int]:
    traced = [o.latency for o in ops if o.traced and o.report["cached"] == cached]
    plain = [o.latency for o in ops if not o.traced and o.report["cached"] == cached]
    return _median(traced), _median(plain), len(traced), len(plain)


def _service_layers(run: Run, out: Outcome, texts, ops, window, wall,
                    cache) -> None:
    tracer = run.tracer
    layers = out.layers
    samples = tracer.samples
    n_ops = len(window)
    misses = [o for o in window if not o.report["cached"]]
    n_miss = len(misses)
    for name in PASSES:
        layers[f"{name}.self_s"] = (
            sum(o.report["timings"].get(name, 0.0) for o in misses) / n_miss,
            n_miss)
    # the worker runs no hooks: sizes and the DFF split come from
    # in-process reruns of the window's new circuits
    sizes = Tracer()
    pipe = traced(Pipeline.standard(), sizes, "rerun")
    refs = [pipe.run(loads_bench(texts[o.idx])) for o in misses]
    for name in PASSES:
        values = sizes.samples.get(f"{name}.size_out", [])
        layers[f"{name}.size_out"] = (sum(values) / n_miss, len(values))
    _t1_layers(layers, refs)

    # the server parses and hashes every payload on its HTTP thread; a
    # hit is little else, so replay both on the window's hit payloads
    parse, digest = [], []
    for o in window:
        if not o.report["cached"]:
            continue
        t0 = time.perf_counter()
        net = loads_bench(texts[o.idx])
        t1 = time.perf_counter()
        net.structural_hash()
        parse.append(t1 - t0)
        digest.append(time.perf_counter() - t1)
    layers["io.bench_parse_s"] = (_median(parse), len(parse))
    layers["network.structural_hash_s"] = (_median(digest), len(digest))

    # the window's jobs are the first traced ones: trace ids job-1..
    keep = {f"job-{i + 1}" for i in range(n_ops)}
    hit_jobs = {f"job-{i + 1}" for i, o in enumerate(window) if o.report["cached"]}
    owns = tracer.self_times()
    per_name: Dict[str, List[float]] = {}
    submit = []
    for s in tracer.spans:
        if s.trace_id in keep:
            per_name.setdefault(s.name, []).append(owns[s.span_id])
        if s.name == "client.submit" and s.trace_id in hit_jobs:
            submit.append(s.end - s.start)
    layers["client.submit_s"] = (_median(submit), len(submit))
    for name in ("queue.wait_s", "worker.run_s", "client.poll_overshoot_s"):
        values = samples.get(name, [])[:n_miss]
        layers[name] = (_median(values), len(values))
    polls = samples.get("client.polls", [])[:n_miss]
    layers["client.polls"] = (statistics.fmean(polls) if polls else 0.0, len(polls))
    lookups = cache["hits"] + cache["misses"]
    layers["cache.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, lookups)

    # one unit is one client operation: per-class traced minus untraced
    # median latency, weighted by the window's class mix
    miss_t, miss_u, n_mt, n_mu = _class_overhead(ops, cached=False)
    hit_t, hit_u, n_ht, n_hu = _class_overhead(ops, cached=True)
    share = n_miss / n_ops
    _overhead(layers, out.notes,
              share * miss_t + (1 - share) * hit_t,
              share * miss_u + (1 - share) * hit_u,
              n_mt + n_ht, n_mu + n_hu)
    out.notes.append(
        f"per class, traced - untraced median latency: miss "
        f"{miss_t - miss_u:+.4f} s (n={n_mt}/{n_mu}), hit "
        f"{hit_t - hit_u:+.4f} s (n={n_ht}/{n_hu})")
    passes = sum(layers[f"{name}.self_s"][0] for name in PASSES)
    worker = layers["worker.run_s"][0]
    miss_p50 = _median(o.latency for o in misses)
    overshoot = layers["client.poll_overshoot_s"][0]
    out.notes += [
        f"pass self times sum to {passes:.4f} s per miss; the worker's "
        f"run p50 is {worker:.4f} s (passes run in the worker process, "
        "so untraced wall_s does not bound them)",
        f"client poll overshoot p50 {overshoot:.4f} s is "
        f"{overshoot / miss_p50:.1%} of traced miss p50 {miss_p50:.4f} s; "
        f"{layers['client.polls'][0]:.2f} polls per miss",
        f"a hit's submit p50 {layers['client.submit_s'][0]:.4f} s holds "
        f"parse {layers['io.bench_parse_s'][0]:.4f} s + "
        f"hash {layers['network.structural_hash_s'][0]:.4f} s",
    ]
    out.share_wall = wall
    for name in ("client.op", "client.submit", "client.status",
                 "client.result", "queue.wait", "worker.run"):
        own = per_name.get(name, [])
        out.shares.append((name, sum(own), len(own)))


WORKLOADS = {
    "table1": run_table1,
    "scale_datapath": run_scale_datapath,
    "service_mix": run_service_mix,
}

"""Microbenchmark suite for the incremental schedule kernel (§II-B/C).

Measures the axes the scheduling refactor targets and writes the results
to ``BENCH_schedule.json`` at the repository root, extending the perf
trajectory started by ``bench_kernel.py``:

* **heuristic sweeps** — wall time and moves evaluated of the
  delta-evaluated kernel heuristic vs the retained seed scan-and-rebuild
  reference (``oracles.phase_assignment.assign_stages_rescan_reference``),
  measured **in the same run** on the same netlists, with the speedup
  per circuit;
* **delta evaluation** — mean cost of one ``cost_if_moved`` probe vs
  one seed-style ``local_cost`` rescan (which prices T1 terms with
  ``t1_input_cost``, the insertion planner, unmemoised) on the largest
  registry netlist;
* **scale** — the kernel heuristic on mapped ``datapath`` synthetics
  (2k/4k/8k nodes, plus 20k in the full run): cells, PO nets, seconds,
  probes (``moves_evaluated``) and ``_po_term`` calls per probe.  Every
  PO-net term the kernel prices goes through ``_po_term`` (P(b) fills
  and applied boundary shifts included), so the deterministic count
  stays flat as the PO count grows only while a boundary-shifting probe
  avoids repricing every PO net.

Contract (the CI gate): these failures exit non-zero —

* the kernel heuristic must produce the **same stage vector** as the
  seed reference on every measured circuit;
* the kernel's maintained cost terms must match a from-scratch
  recomputation after the sweeps (``StageSchedule.check_invariants``),
  and its final cost must be finite;
* no scale point may make more than :data:`RATCHET_CALLS_PER_PROBE`
  PO-net term evaluations per probe (a deterministic count, as exact as
  the two checks above).

Timing numbers are recorded, never asserted: wall-clock noise must not
fail a pipeline.

Usage::

    PYTHONPATH=src python benchmarks/bench_schedule.py          # paper scale
    PYTHONPATH=src python benchmarks/bench_schedule.py --quick  # CI
"""

from __future__ import annotations

import copy
import time

import _harness
from oracles.phase_assignment import _net_cost, assign_stages_rescan_reference
from repro.circuits.registry import TABLE1_ORDER, build
from repro.circuits.synthetic import build_synthetic
from repro.core import schedule as schedule_module
from repro.core.dff_insertion import t1_input_cost
from repro.core.phase_assignment import assign_stages_heuristic
from repro.core.schedule import StageSchedule
from repro.errors import TimingError
from repro.pipeline import Pipeline
from repro.pipeline.context import FlowContext

#: datapath sizes (nodes) of the scale section; the full run adds 20k
SCALE_NODES_QUICK = (2_000, 4_000, 8_000)
SCALE_NODES_FULL = SCALE_NODES_QUICK + (20_000,)
#: ceiling on _po_term calls per probe (0.88-0.92 measured; without
#: the cached P(b), repricing every PO net per boundary shift, it is
#: far above)
RATCHET_CALLS_PER_PROBE = 2.0


def mapped_netlist(name: str, preset: str):
    """Registry circuit *name* at *preset*, mapped (see :func:`mapped`)."""
    return mapped(build(name, preset), name)


def mapped(source, name: str):
    """Standard pipeline up to (excluding) phase assignment."""
    pipe = Pipeline.standard(n_phases=4, use_t1=True, verify="none")
    ctx = FlowContext(source=source, name=name, verify="none")
    for p in pipe.passes:
        if p.name == "phase_assign":
            break
        ctx = p.run(ctx) or ctx
    return ctx.netlist


def bench_heuristic(circuits, preset, failures):
    out = {}
    for name in circuits:
        nl_kernel = mapped_netlist(name, preset)
        nl_seed = mapped_netlist(name, preset)

        t0 = time.perf_counter()
        rep_kernel = assign_stages_heuristic(nl_kernel)
        t_kernel = time.perf_counter() - t0

        t0 = time.perf_counter()
        rep_seed = assign_stages_rescan_reference(nl_seed)
        t_seed = time.perf_counter() - t0

        got = [c.stage for c in nl_kernel.cells]
        want = [c.stage for c in nl_seed.cells]
        if got != want:
            # Deliberate pin: from ASAP starts the kernel currently
            # reproduces the seed sweeps exactly on every registry
            # circuit.  An *intentional* scheduling change that breaks
            # this (e.g. a circuit finally exercising the live-boundary
            # fix) must update this gate together with the pinned
            # registry metrics in tests/pipeline/test_registry_pinned.py.
            failures.append(
                f"heuristic:{name}: kernel stage vector diverged from the "
                f"seed reference (if intentional, update this gate and "
                f"the pinned registry metrics together)"
            )
        try:
            StageSchedule(
                nl_kernel, stages=[c.stage for c in nl_kernel.cells]
            ).check_invariants()
        except TimingError as exc:
            failures.append(f"invariants:{name}: {exc}")
        if rep_kernel.final_cost == float("inf"):
            failures.append(f"final_cost:{name}: infeasible schedule")
        out[name] = {
            "cells": len(nl_kernel.cells),
            "kernel_seconds": round(t_kernel, 5),
            "seed_rescan_seconds": round(t_seed, 5),
            "speedup_vs_seed": round(t_seed / t_kernel, 2) if t_kernel else None,
            "kernel_moves_evaluated": rep_kernel.moves_evaluated,
            "seed_moves_evaluated": rep_seed.moves_evaluated,
            "moves_applied": rep_kernel.moves_applied,
            "sweeps": rep_kernel.sweeps_run,
            "final_cost": rep_kernel.final_cost,
        }
    return out


def bench_delta_probe(preset, failures):
    """One delta probe vs one seed-style local rescan, biggest circuit."""
    name = "multiplier"
    nl = mapped_netlist(name, preset)
    kernel = StageSchedule(nl)
    st = nl.structure()
    movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
    probes = [(x, kernel.stages[x] + 1 + (x % 3)) for x in movable]

    t0 = time.perf_counter()
    for x, s in probes:
        kernel.cost_if_moved(x, s)
    t_delta = (time.perf_counter() - t0) / len(probes)

    # the seed priced the same probe by re-summing every incident term
    stages = kernel.stages
    boundary = kernel.boundary()

    def local_rescan(x):
        total = 0.0
        affected = set(st.signals_of_cell[x])
        affected.update(st.fanin_signals[x])
        for sig in affected:
            cons = st.nets.get(sig)
            if cons is None:
                continue
            b = boundary if sig in st.po_signals else None
            cost = _net_cost(
                stages[sig[0]], [stages[c] for c in cons], st.n, b
            )
            if cost == float("inf"):
                return cost
            total += cost
        for t in st.t1_consumers[x]:
            total += t1_input_cost(
                stages[t], [stages[d] for d in st.fanin_drivers[t]], st.n
            )
        return total

    t0 = time.perf_counter()
    for x, _s in probes:
        local_rescan(x)
    t_rescan = (time.perf_counter() - t0) / len(probes)
    return {
        "circuit": name,
        "probes": len(probes),
        "delta_seconds_per_probe": round(t_delta, 9),
        "rescan_seconds_per_probe": round(t_rescan, 9),
        "speedup": round(t_rescan / t_delta, 2) if t_delta else None,
    }


def bench_datapath_scale(sizes, failures):
    """Kernel heuristic on mapped datapath synthetics of growing size.

    Each size runs twice on copies of the same mapped netlist: once
    timed, once with ``_po_term`` wrapped in a call counter (the
    count is deterministic; the wrapper would inflate the time).
    """
    out = {}
    real = schedule_module._po_term
    for n_nodes in sizes:
        source = build_synthetic("datapath", n_nodes, 0)
        name = f"datapath_{n_nodes}"
        nl = mapped(source, name)
        counted = copy.deepcopy(nl)
        t0 = time.perf_counter()
        report = assign_stages_heuristic(nl)
        seconds = time.perf_counter() - t0

        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        schedule_module._po_term = counting
        try:
            counted_report = assign_stages_heuristic(counted)
        finally:
            schedule_module._po_term = real
        if [c.stage for c in counted.cells] != [c.stage for c in nl.cells]:
            failures.append(f"scale:{name}: repeated run diverged")
        probes = counted_report.moves_evaluated
        out[name] = {
            "nodes": n_nodes,
            "cells": len(nl.cells),
            "po_nets": len(nl.structure().po_signals),
            "seconds": round(seconds, 4),
            "moves_evaluated": report.moves_evaluated,
            "moves_applied": report.moves_applied,
            "po_term_calls": calls,
            "po_term_calls_per_probe": round(calls / probes, 2) if probes else None,
        }
    return out


def check_ratchet(scale):
    """Ratchet violations: scale points above the calls-per-probe ceiling."""
    return [
        f"ratchet:{name}: {entry['po_term_calls_per_probe']} _po_term "
        f"calls per probe > {RATCHET_CALLS_PER_PROBE}"
        for name, entry in scale.items()
        if entry["po_term_calls_per_probe"] is not None
        and entry["po_term_calls_per_probe"] > RATCHET_CALLS_PER_PROBE
    ]


def main(argv=None) -> int:
    args = _harness.parser(
        __doc__, "BENCH_schedule.json", "CI smoke: down-scaled circuits"
    ).parse_args(argv)

    preset = "ci" if args.quick else "paper"
    circuits = list(TABLE1_ORDER)
    sizes = SCALE_NODES_QUICK if args.quick else SCALE_NODES_FULL
    failures: list = []
    scale = bench_datapath_scale(sizes, failures)
    ratchet_failures = check_ratchet(scale)
    report = {
        "meta": _harness.meta(preset=preset),
        "heuristic": bench_heuristic(circuits, preset, failures),
        "delta_probe": bench_delta_probe(preset, failures),
        "scale": scale,
        "ratchet": {
            "max_po_term_calls_per_probe": RATCHET_CALLS_PER_PROBE,
            "ok": not ratchet_failures,
            "failures": ratchet_failures,
        },
        "invariants_ok": not failures,
        "invariant_failures": failures,
    }

    _harness.write(report, args.out)
    for name, entry in report["heuristic"].items():
        print(
            f"schedule {name:<11} kernel {entry['kernel_seconds']:.3f}s  "
            f"seed {entry['seed_rescan_seconds']:.3f}s  "
            f"({entry['speedup_vs_seed']}x, "
            f"{entry['kernel_moves_evaluated']} moves evaluated)"
        )
    probe = report["delta_probe"]
    print(
        f"delta probe on {probe['circuit']}: "
        f"{probe['delta_seconds_per_probe']:.2e}s vs rescan "
        f"{probe['rescan_seconds_per_probe']:.2e}s ({probe['speedup']}x)"
    )
    for name, entry in scale.items():
        print(
            f"scale {name:<15} {entry['cells']} cells, {entry['po_nets']} PO "
            f"nets: {entry['seconds']:.3f}s, {entry['moves_evaluated']} probes, "
            f"{entry['po_term_calls_per_probe']} PO-term calls/probe"
        )
    return _harness.exit_code(
        "SCHEDULE KERNEL FAILURES", failures + ratchet_failures
    )


if __name__ == "__main__":
    raise SystemExit(main())

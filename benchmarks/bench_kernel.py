"""Microbenchmark suite for the incremental network kernel.

Measures the four axes the kernel refactor targets and writes the
results to ``BENCH_kernel.json`` at the repository root, so every PR
extends a measured perf trajectory instead of guessing:

* **construction** — node append throughput on the registry generators,
  plus a replay of each built netlist through ``add_gates_bulk`` vs the
  per-call ``add_gate`` loop (the two paths the flat-array core offers);
* **analysis caching** — cold vs warm ``topological_order``/``levels``
  (warm calls must be O(1) on an unchanged network);
* **substitute scaling** — mean cost of ``substitute`` on a small vs a
  16x larger network with identical per-node fanout.  With the
  maintained fanout index the ratio stays near 1; the old
  full-scan kernel scaled with network size;
* **cut enumeration / full flow** — the mapping hot loop and
  end-to-end ``Pipeline.standard`` wall time per registry circuit
  (absolute times of this host: no stored time from another host is
  divided by them);
* **rewrite loops** — the topological-sweep ``refactor`` kernel vs
  the retained seed sweep ``refactor_reference`` on every large
  registry circuit, pinned to identical accepted counts and an
  identical strashed result (an invariant, not a timing).

Kernel *invariant* failures (maintained indices diverging from a
from-scratch recomputation) exit non-zero — that is the CI contract.
Timing numbers are recorded, never asserted: wall-clock noise must not
fail a pipeline.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # paper scale
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick    # CI smoke
"""

from __future__ import annotations

import time

import _harness
from oracles.transforms import refactor_reference
from repro.circuits.registry import TABLE1_ORDER, build
from repro.errors import NetworkError
from repro.network import Gate, LogicNetwork, enumerate_cuts, refactor, balance
from repro.network.isop import clear_sop_cache
from repro.pipeline import Pipeline


def _check(net: LogicNetwork, where: str, failures: list) -> None:
    try:
        net.check_invariants()
    except NetworkError as exc:
        failures.append(f"{where}: {exc}")


def bench_construction(circuits, preset, failures):
    out = {}
    for name in circuits:
        t0 = time.perf_counter()
        net = build(name, preset=preset)
        dt = time.perf_counter() - t0
        _check(net, f"construction:{name}", failures)

        # replay the built netlist through both construction paths:
        # the per-call add_gate loop and the single add_gates_bulk call
        spec = [(net.gate(n), net.fanin(n)) for n in range(2, net.num_nodes())]
        t0 = time.perf_counter()
        per_call = LogicNetwork("replay")
        for gate, fins in spec:
            if not fins and gate is Gate.PI:
                per_call.add_pi()
            else:
                per_call.add_gate(gate, fins)
        dt_call = time.perf_counter() - t0
        t0 = time.perf_counter()
        bulk = LogicNetwork("replay")
        bulk.add_gates_bulk(spec)
        dt_bulk = time.perf_counter() - t0
        if bulk.gates != per_call.gates or bulk.fanins != per_call.fanins:
            failures.append(
                f"construction:{name}: bulk and per-call replays diverge"
            )
        _check(bulk, f"construction:{name}:bulk", failures)

        out[name] = {
            "nodes": net.num_nodes(),
            "seconds": round(dt, 6),
            "nodes_per_s": round(net.num_nodes() / dt) if dt > 0 else None,
            "per_call_seconds": round(dt_call, 6),
            "bulk_seconds": round(dt_bulk, 6),
            "bulk_speedup": round(dt_call / dt_bulk, 2) if dt_bulk else None,
        }
    return out


def bench_analysis_cache(circuits, preset, failures):
    out = {}
    for name in circuits:
        net = build(name, preset=preset)
        t0 = time.perf_counter()
        net.topological_order()
        net.levels()
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_iters = 100
        for _ in range(warm_iters):
            net.topological_order()
            net.levels()
        warm = (time.perf_counter() - t0) / warm_iters
        _check(net, f"analysis:{name}", failures)
        out[name] = {
            "nodes": net.num_nodes(),
            "cold_seconds": round(cold, 6),
            "warm_seconds": round(warm, 9),
            "cache_speedup": round(cold / warm, 1) if warm > 0 else None,
        }
    return out


def _substitute_probe(n_stubs: int, failures) -> float:
    """Mean seconds per substitute on a network with ``2*n_stubs`` gates.

    Every substituted node has fanout exactly 1, so an O(fanout) kernel
    shows a flat cost as ``n_stubs`` grows; the old kernel scanned all
    fanin tuples per call and scaled linearly.
    """
    net = LogicNetwork("subst_probe")
    a, b, c = net.add_pi("a"), net.add_pi("b"), net.add_pi("c")
    xs = []
    for _ in range(n_stubs):
        x = net.add_and(a, b)
        y = net.add_or(x, c)
        net.add_po(y)
        xs.append(x)
    t0 = time.perf_counter()
    for x in xs:
        net.substitute(x, c)
    per_call = (time.perf_counter() - t0) / n_stubs
    _check(net, f"substitute:{n_stubs}", failures)
    return per_call


def bench_substitute(quick: bool, failures):
    small_n, large_n = (500, 8000) if quick else (2000, 32000)
    small = _substitute_probe(small_n, failures)
    large = _substitute_probe(large_n, failures)
    return {
        "small_network_gates": 2 * small_n,
        "large_network_gates": 2 * large_n,
        "small_seconds_per_call": round(small, 9),
        "large_seconds_per_call": round(large, 9),
        # ~1.0 for O(fanout); ~network-size ratio for the old O(n) scan
        "scaling_ratio": round(large / small, 2) if small > 0 else None,
    }


def bench_cut_enumeration(circuits, preset, failures):
    out = {}
    for name in circuits:
        net = build(name, preset=preset)
        t0 = time.perf_counter()
        db = enumerate_cuts(net, k=3, cuts_per_node=8)
        dt = time.perf_counter() - t0
        _check(net, f"cuts:{name}", failures)
        out[name] = {
            "nodes": net.num_nodes(),
            "seconds": round(dt, 6),
            "cuts": sum(len(db[n]) for n in net.nodes()),
        }
    return out


#: the large registry circuits the rewrite-loop gate runs on
REWRITE_CIRCUITS = {
    "paper": ("sin", "voter", "square", "multiplier", "log2"),
    "ci": ("adder",),
}


def bench_rewrite_loops(preset, failures, repeats=2):
    """Balance + the rewrite kernel vs the retained seed sweep.

    Per large registry circuit: ``refactor`` (the topological-sweep
    kernel) against ``refactor_reference`` (the seed topological sweep),
    min-of-N with the collector paused, the epoch cut cache and the ISOP
    memo cleared before every attempt so each run pays for its own
    enumeration.  Invariant (CI contract): identical accepted counts and
    an identical strashed result — the kernel is pinned bit-exact to the
    reference, so the speedup compares the same computation.
    """
    out = {}
    for name in REWRITE_CIRCUITS["ci" if preset == "ci" else "paper"]:
        net = build(name, preset=preset)

        t0 = time.perf_counter()
        balanced, _ = balance(net)
        t_balance = time.perf_counter() - t0
        _check(balanced, f"balance:{name}", failures)

        def cold():
            if hasattr(net, "_cut_db_cache"):
                del net._cut_db_cache
            clear_sop_cache()

        t_ref, (ref_net, ref_accepted) = _harness.best_of(
            lambda: refactor_reference(net), repeats, setup=cold
        )
        t_kernel, (k_net, k_accepted) = _harness.best_of(
            lambda: refactor(net), repeats, setup=cold
        )
        _check(k_net, f"refactor:{name}", failures)

        if k_accepted != ref_accepted:
            failures.append(
                f"rewrite:{name}: kernel accepted {k_accepted} rewrites, "
                f"seed reference accepted {ref_accepted}"
            )
        if (
            k_net.gates != ref_net.gates
            or k_net.fanins != ref_net.fanins
            or k_net.pos != ref_net.pos
        ):
            failures.append(
                f"rewrite:{name}: kernel result diverged structurally "
                f"from the seed reference"
            )
        out[name] = {
            "nodes": net.num_nodes(),
            "balance_seconds": round(t_balance, 6),
            "refactor_accepted": k_accepted,
            "kernel_seconds": round(t_kernel, 5),
            "seed_reference_seconds": round(t_ref, 5),
            "speedup_vs_seed": round(t_ref / t_kernel, 2) if t_kernel else None,
        }
    return out


def bench_flow(circuits, preset, failures, repeats=3):
    out = {}
    for name in circuits:
        best = None
        ctx = None
        for _ in range(repeats):
            net = build(name, preset=preset)
            t0 = time.perf_counter()
            ctx = Pipeline.standard(n_phases=4, use_t1=True).run(net)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        _check(ctx.network, f"flow:{name}", failures)
        out[name] = {
            "seconds": round(best, 4),
            "metrics": ctx.metrics.as_dict(),
        }
    return out


def main(argv=None) -> int:
    args = _harness.parser(
        __doc__, "BENCH_kernel.json",
        "CI smoke: down-scaled circuits, smaller probes",
    ).parse_args(argv)

    preset = "ci" if args.quick else "paper"
    circuits = list(TABLE1_ORDER)

    failures: list = []
    report = {
        "meta": _harness.meta(preset=preset),
        "construction": bench_construction(circuits, preset, failures),
        "analysis_cache": bench_analysis_cache(circuits, preset, failures),
        "substitute": bench_substitute(args.quick, failures),
        "cut_enumeration": bench_cut_enumeration(circuits, preset, failures),
        "rewrite_loops": bench_rewrite_loops(preset, failures),
        "flow": bench_flow(circuits, preset, failures),
        "invariants_ok": not failures,
        "invariant_failures": failures,
    }

    _harness.write(report, args.out)
    sub = report["substitute"]
    print(
        f"substitute scaling ratio ({sub['large_network_gates']} vs "
        f"{sub['small_network_gates']} gates): {sub['scaling_ratio']}"
    )
    for name, entry in report["rewrite_loops"].items():
        print(
            f"rewrite {name:<11} kernel {entry['kernel_seconds']:.3f}s  "
            f"seed {entry['seed_reference_seconds']:.3f}s  "
            f"({entry['speedup_vs_seed']}x, "
            f"accepted {entry['refactor_accepted']})"
        )
    for name, entry in report["flow"].items():
        print(f"flow {name:<11} {entry['seconds']:.3f}s")
    return _harness.exit_code("KERNEL INVARIANT FAILURES", failures)


if __name__ == "__main__":
    raise SystemExit(main())

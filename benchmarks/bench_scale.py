"""Scale benchmark: the network kernel on 100k–1M-node synthetics.

Builds the seeded synthetic generators (``repro.circuits.synthetic``)
at large node counts and measures the kernel's bulk paths (one-call
construction, gate-grouped simulation, code-native cut enumeration and
rewriting), writing ``BENCH_scale.json`` at the repository root:

* **construction** — ``add_gates_bulk`` vs the per-call
  ``add_gate`` loop on the same netlist spec (nodes/s each, speedup);
* **peak memory** — tracemalloc peak during bulk construction;
* **sweep** — ``sweep()`` (clone + free-list compact) wall time;
* **simulation** — the gate-grouped kernel vs the per-node
  ``oracles.simulation.simulate_nodewise`` loop at width 64, warm (schedule built),
  best-of-``repeats`` (nodes/s each, speedup);
* **cut enumeration** (ratchet circuit only) — the
  ``enumerate_cuts`` kernel vs ``enumerate_cuts_reference`` at k=3,
  plus ``CutDatabase.nbytes()`` flat-storage memory;
* **rewrite sweep** (ratchet circuit only) — the topological-sweep
  ``refactor`` kernel vs the seed ``refactor_reference`` single sweep
  at cut size 4 (the oracle side is timed once — it is the slow path
  the ratio exists to retire).

Timings are best-of-N *within one process*, so the speedup ratios are
machine-independent; with ``--ratchet`` (the CI perf-smoke mode) the
100k-node datapath must hold **bulk construction >= 2x per-call**,
**grouped simulation >= 1.5x per-node**, **cut enumeration >= 2x
reference** and **rewrite sweep >= 2x reference** or the run exits
non-zero.  Kernel invariant failures always exit non-zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py             # + 1M run
    PYTHONPATH=src python benchmarks/bench_scale.py --quick --ratchet
"""

from __future__ import annotations

import time
import tracemalloc

import _harness
from oracles.cuts import enumerate_cuts_reference
from oracles.simulation import simulate_nodewise
from oracles.transforms import refactor_reference
from repro.circuits.synthetic import build_synthetic
from repro.errors import NetworkError
from repro.network import (
    Gate,
    LogicNetwork,
    enumerate_cuts,
    refactor,
    simulate,
    sweep,
)
from repro.network.simulation import random_patterns

#: construction-ratchet floor (bulk vs per-call nodes/s)
MIN_CONSTRUCTION_SPEEDUP = 2.0
#: simulation-ratchet floor (grouped vs per-node nodes/s)
MIN_SIMULATION_SPEEDUP = 1.5
#: cut-enumeration-ratchet floor (kernel vs reference nodes/s)
MIN_CUT_ENUM_SPEEDUP = 2.0
#: rewrite-sweep-ratchet floor (queue kernel vs reference nodes/s)
MIN_REWRITE_SPEEDUP = 2.0
#: the circuit the ratchet is pinned to
RATCHET_CIRCUIT = "datapath_100k"

SIM_WIDTH = 64
CUT_K = 3
REWRITE_CUT_SIZE = 4


def _spec_of(net: LogicNetwork):
    """The (gate, fanins) replay spec of a built network."""
    return [(net.gate(n), net.fanin(n)) for n in range(2, net.num_nodes())]


def _per_call_build(spec):
    out = LogicNetwork("replay")
    for gate, fins in spec:
        if not fins and gate is Gate.PI:
            out.add_pi()
        else:
            out.add_gate(gate, fins)
    return out


def _bulk_build(spec):
    out = LogicNetwork("replay")
    out.add_gates_bulk(spec)
    return out


def bench_circuit(name, scale, repeats, failures):
    net = build_synthetic(name, scale)
    spec = _spec_of(net)
    n = len(spec)

    bulk_s, bulk_net = _harness.best_of(lambda: _bulk_build(spec), repeats)
    per_call_s, per_call_net = _harness.best_of(
        lambda: _per_call_build(spec), repeats
    )
    if not (
        bulk_net.gates == per_call_net.gates
        and bulk_net.fanins == per_call_net.fanins
    ):
        failures.append(f"{name}: bulk and per-call construction diverge")
    try:
        bulk_net.check_invariants()
    except NetworkError as exc:
        failures.append(f"{name}: {exc}")

    tracemalloc.start()
    _bulk_build(spec)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    t0 = time.perf_counter()
    swept, _nm = sweep(net)
    sweep_s = time.perf_counter() - t0
    if swept.num_nodes() != net.num_nodes():
        # every generator binds its sinks as POs, so nothing is dead
        failures.append(f"{name}: sweep dropped nodes on a fully live net")

    pats = random_patterns(len(net.pis), SIM_WIDTH, seed=7)
    # warm both paths: grouped builds its schedule
    grouped0 = simulate(net, pats, SIM_WIDTH)
    nodewise0 = simulate_nodewise(net, pats, SIM_WIDTH)
    if grouped0 != nodewise0:
        failures.append(f"{name}: grouped simulation diverges from nodewise")
    sim_g_s, _ = _harness.best_of(
        lambda: simulate(net, pats, SIM_WIDTH), repeats
    )
    sim_n_s, _ = _harness.best_of(
        lambda: simulate_nodewise(net, pats, SIM_WIDTH), repeats
    )

    total = net.num_nodes()
    return {
        "nodes": total,
        "gates": net.num_gates(),
        "pis": len(net.pis),
        "pos": len(net.pos),
        "depth": net.depth(),
        "construction": {
            "bulk_seconds": round(bulk_s, 6),
            "bulk_nodes_per_s": round(n / bulk_s),
            "per_call_seconds": round(per_call_s, 6),
            "per_call_nodes_per_s": round(n / per_call_s),
            "bulk_speedup": round(per_call_s / bulk_s, 2),
        },
        "peak_memory_bytes": peak,
        "peak_bytes_per_node": round(peak / total, 1),
        "sweep_seconds": round(sweep_s, 6),
        "simulation": {
            "width": SIM_WIDTH,
            "grouped_seconds": round(sim_g_s, 6),
            "grouped_nodes_per_s": round(total / sim_g_s),
            "nodewise_seconds": round(sim_n_s, 6),
            "nodewise_nodes_per_s": round(total / sim_n_s),
            "grouped_speedup": round(sim_n_s / sim_g_s, 2),
        },
    }


def bench_rewrite_kernels(name, scale, repeats, failures, key):
    """Ratchet-circuit-only sections: the flat-array cut kernel and the
    topological-sweep rewrite kernel vs their retained references.

    The oracle sides are timed once (min-of-1): they are the slow paths
    the ratios exist to retire, and a single cold run already bounds the
    ratio from below.  The kernel sides keep min-of-N but cap N so the
    rewrite section stays CI-sized.
    """
    from repro.network.cuts import cached_cut_database

    net = build_synthetic(name, scale)
    total = net.num_nodes()

    cut_rep = max(1, min(repeats, 3))
    cut_s, db = _harness.best_of(lambda: enumerate_cuts(net, k=CUT_K), cut_rep)
    ref_cut_s, ref_db = _harness.best_of(
        lambda: enumerate_cuts_reference(net, k=CUT_K), 1
    )
    kl, kb = db.raw_rows()
    rl, rb = ref_db.raw_rows()
    for node in range(total):
        if [(kl[i], kb[i]) for i in db.node_rows(node)] != [
            (rl[i], rb[i]) for i in ref_db.node_rows(node)
        ]:
            failures.append(
                f"{key}: flat cut kernel diverges from reference "
                f"at node {node}"
            )
            break
    nbytes = db.nbytes()

    # warm the epoch-shared cut database so neither timed side pays
    # enumeration (both kernels call cached_cut_database internally)
    cached_cut_database(net, k=REWRITE_CUT_SIZE)
    rw_rep = max(1, min(repeats, 2))
    rw_s, (rw_net, rw_accepted) = _harness.best_of(
        lambda: refactor(net, cut_size=REWRITE_CUT_SIZE), rw_rep
    )
    ref_rw_s, (ref_net, ref_accepted) = _harness.best_of(
        lambda: refactor_reference(net, cut_size=REWRITE_CUT_SIZE), 1
    )
    if rw_accepted != ref_accepted:
        failures.append(
            f"{key}: rewrite kernel accepted {rw_accepted} rewrites, "
            f"reference accepted {ref_accepted}"
        )
    elif not (
        rw_net.gates == ref_net.gates and rw_net.fanins == ref_net.fanins
    ):
        failures.append(
            f"{key}: rewrite kernel result diverges from reference"
        )

    return {
        "cut_enumeration": {
            "k": CUT_K,
            "kernel_seconds": round(cut_s, 6),
            "kernel_nodes_per_s": round(total / cut_s),
            "reference_seconds": round(ref_cut_s, 6),
            "reference_nodes_per_s": round(total / ref_cut_s),
            "speedup_vs_reference": round(ref_cut_s / cut_s, 2),
            "db_nbytes": nbytes,
            "db_bytes_per_node": round(nbytes / total, 1),
        },
        "rewrite_sweep": {
            "cut_size": REWRITE_CUT_SIZE,
            "accepted": rw_accepted,
            "kernel_seconds": round(rw_s, 6),
            "kernel_nodes_per_s": round(total / rw_s),
            "reference_seconds": round(ref_rw_s, 6),
            "reference_nodes_per_s": round(total / ref_rw_s),
            "speedup_vs_reference": round(ref_rw_s / rw_s, 2),
        },
    }


def main(argv=None) -> int:
    parser = _harness.parser(
        __doc__, "BENCH_scale.json", "CI smoke: skip the 1M-node run"
    )
    parser.add_argument(
        "--ratchet", action="store_true",
        help=f"fail if the {RATCHET_CIRCUIT} speedups fall below "
             f"{MIN_CONSTRUCTION_SPEEDUP}x construction / "
             f"{MIN_SIMULATION_SPEEDUP}x simulation / "
             f"{MIN_CUT_ENUM_SPEEDUP}x cut enumeration / "
             f"{MIN_REWRITE_SPEEDUP}x rewrite sweep",
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    runs = [
        ("datapath_100k", "datapath", 100_000),
        ("cascade_100k", "cascade", 100_000),
    ]
    if not args.quick:
        runs.append(("datapath_1m", "datapath", 1_000_000))

    failures: list = []
    circuits = {}
    for key, gen, scale in runs:
        circuits[key] = bench_circuit(gen, scale, args.repeats, failures)
        c = circuits[key]
        print(
            f"{key:<14} {c['nodes']:>9,} nodes | "
            f"build bulk {c['construction']['bulk_nodes_per_s']:>9,}/s "
            f"({c['construction']['bulk_speedup']}x per-call) | "
            f"sim grouped {c['simulation']['grouped_nodes_per_s']:>10,}/s "
            f"({c['simulation']['grouped_speedup']}x nodewise) | "
            f"peak {c['peak_memory_bytes'] / 1e6:.1f} MB"
        )

    gen, scale = next(
        (g, s) for key, g, s in runs if key == RATCHET_CIRCUIT
    )
    circuits[RATCHET_CIRCUIT].update(
        bench_rewrite_kernels(
            gen, scale, args.repeats, failures, RATCHET_CIRCUIT
        )
    )
    ce = circuits[RATCHET_CIRCUIT]["cut_enumeration"]
    rw = circuits[RATCHET_CIRCUIT]["rewrite_sweep"]
    print(
        f"{RATCHET_CIRCUIT:<14} kernels | "
        f"cuts k={ce['k']} {ce['kernel_nodes_per_s']:>7,}/s "
        f"({ce['speedup_vs_reference']}x reference, "
        f"db {ce['db_nbytes'] / 1e6:.1f} MB) | "
        f"rewrite {rw['kernel_nodes_per_s']:>7,}/s "
        f"({rw['speedup_vs_reference']}x reference, "
        f"{rw['accepted']} accepted)"
    )

    ratchet = {
        "circuit": RATCHET_CIRCUIT,
        "min_construction_speedup": MIN_CONSTRUCTION_SPEEDUP,
        "min_simulation_speedup": MIN_SIMULATION_SPEEDUP,
        "min_cut_enumeration_speedup": MIN_CUT_ENUM_SPEEDUP,
        "min_rewrite_speedup": MIN_REWRITE_SPEEDUP,
        "construction_speedup": circuits[RATCHET_CIRCUIT]["construction"][
            "bulk_speedup"
        ],
        "simulation_speedup": circuits[RATCHET_CIRCUIT]["simulation"][
            "grouped_speedup"
        ],
        "cut_enumeration_speedup": ce["speedup_vs_reference"],
        "rewrite_speedup": rw["speedup_vs_reference"],
    }
    ratchet_failures = []
    if ratchet["construction_speedup"] < MIN_CONSTRUCTION_SPEEDUP:
        ratchet_failures.append(
            f"bulk construction {ratchet['construction_speedup']}x "
            f"< {MIN_CONSTRUCTION_SPEEDUP}x per-call"
        )
    if ratchet["simulation_speedup"] < MIN_SIMULATION_SPEEDUP:
        ratchet_failures.append(
            f"grouped simulation {ratchet['simulation_speedup']}x "
            f"< {MIN_SIMULATION_SPEEDUP}x nodewise"
        )
    if ratchet["cut_enumeration_speedup"] < MIN_CUT_ENUM_SPEEDUP:
        ratchet_failures.append(
            f"cut enumeration {ratchet['cut_enumeration_speedup']}x "
            f"< {MIN_CUT_ENUM_SPEEDUP}x reference"
        )
    if ratchet["rewrite_speedup"] < MIN_REWRITE_SPEEDUP:
        ratchet_failures.append(
            f"rewrite sweep {ratchet['rewrite_speedup']}x "
            f"< {MIN_REWRITE_SPEEDUP}x reference"
        )
    ratchet["ok"] = not ratchet_failures

    report = {
        "meta": _harness.meta(repeats=args.repeats),
        "circuits": circuits,
        "ratchet": ratchet,
        "invariants_ok": not failures,
        "invariant_failures": failures,
    }
    _harness.write(report, args.out)

    status = _harness.exit_code("SCALE KERNEL FAILURES", failures)
    if not status and args.ratchet:
        status = _harness.exit_code("PERF RATCHET FAILURES", ratchet_failures)
    return status


if __name__ == "__main__":
    raise SystemExit(main())

"""Microbenchmark suite for the mapping-layer performance kernel (§II-A).

Measures the axes the mapping refactor targets and writes the results to
``BENCH_mapping.json`` at the repository root, extending the perf
trajectory of ``bench_kernel.py`` / ``bench_schedule.py``:

* **NPN matching** — per-call cost of the table-driven
  :func:`~repro.network.npn.npn_canon` vs the enumerating oracle
  (``oracles.npn.npn_canon_enum``) over all 256 3-input functions;
* **cut enumeration** — the allocation-light int kernel
  (:func:`~repro.network.cuts.enumerate_cuts`) vs the seed
  per-candidate implementation (``oracles.cuts.enumerate_cuts_reference``),
  same run, same networks;
* **t1-detect + CEC segment** — the full kernel path
  (``detect_and_replace`` with the epoch-cached cut database + the
  fast-path CEC driver) vs the seed path (reference enumeration and
  candidate search + the seed driver's CEC engine at matching
  escalation: single-pass exhaustive at small PI counts, 16 narrow
  random rounds above), per circuit, with the speedup the
  acceptance gate asks for on the largest registry circuits;
* **cut database caching** — cost of a second ``find_candidates`` on an
  unmutated network (one epoch-cache hit) vs the first.

Contract (the CI gate): *invariant* failures exit non-zero —

* the kernel cut sets must be bit-identical to the reference
  enumeration on every measured circuit;
* kernel candidates (found / used / gains) must be bit-identical to the
  reference candidate search;
* the NPN tables must agree with the enumerating oracle on the complete
  k=3 function space;
* both CEC engines must certify the substitution.

Timing numbers are recorded, never asserted: wall-clock noise must not
fail a pipeline.

Usage::

    PYTHONPATH=src python benchmarks/bench_mapping.py            # paper scale
    PYTHONPATH=src python benchmarks/bench_mapping.py --quick    # CI smoke
"""

from __future__ import annotations

import time

import _harness
from oracles.cuts import enumerate_cuts_reference
from oracles.npn import npn_canon_enum
from oracles.t1_detection import find_candidates_reference
from repro.circuits.registry import build
from repro.core.t1_detection import (
    apply_candidates,
    detect_and_replace,
    find_candidates,
    select_candidates,
)
from repro.network.cuts import cached_cut_database, enumerate_cuts
from repro.network.equivalence import (
    DEFAULT_RANDOM_WIDTH,
    EXHAUSTIVE_PI_LIMIT,
    check_equivalence,
    exhaustive_equivalence,
    signature_equivalence,
)
from repro.network.npn import npn_canon
from repro.network.truth_table import TruthTable
from repro.pipeline.context import FlowContext
from repro.pipeline.passes.decompose import DecomposePass

#: the acceptance gate's "largest registry circuits"
SEGMENT_CIRCUITS = ("sin", "multiplier", "log2")


def decomposed_network(name: str, preset: str):
    """Standard pipeline up to (excluding) T1 detection."""
    ctx = FlowContext(source=build(name, preset), name=name, verify="none")
    ctx = DecomposePass().run(ctx) or ctx
    return ctx.network


def bench_npn(failures):
    """Table lookups vs the enumerating oracle, all 256 k=3 functions."""
    tables = [TruthTable(bits, 3) for bits in range(256)]
    npn_canon(tables[0])  # build the table outside the timed region

    t0 = time.perf_counter()
    reps = 50
    for _ in range(reps):
        for tt in tables:
            npn_canon(tt)
    t_table = (time.perf_counter() - t0) / (reps * len(tables))

    t0 = time.perf_counter()
    for tt in tables:
        got = npn_canon(tt)
        want = npn_canon_enum(tt)
        if (got[0].bits, got[1]) != (want[0].bits, want[1]):
            failures.append(f"npn:{tt.bits}: table diverged from oracle")
    t_enum = (time.perf_counter() - t0) / len(tables)
    return {
        "functions": len(tables),
        "table_seconds_per_call": round(t_table, 9),
        "enum_seconds_per_call": round(t_enum, 9),
        "speedup": round(t_enum / t_table, 1) if t_table else None,
    }


def bench_cuts(circuits, preset, failures, repeats=3):
    """Kernel vs seed cut enumeration, min-of-N with the collector paused.

    Same measurement discipline as :func:`bench_segment` (symmetric for
    both paths).  The PR 5 bench ran each path once with the collector
    live, so whichever enumeration happened to run while earlier
    circuits' large databases were still reachable got billed for the
    collections — that asymmetry, not the kernel, was the "multiplier
    regression" the PR 6 issue flagged.
    """
    out = {}
    for name in circuits:
        net = decomposed_network(name, preset)
        net.topological_order()  # shared traversal out of the timed region

        t_kernel, db_kernel = _harness.best_of(
            lambda: enumerate_cuts(net, k=3, cuts_per_node=8), repeats
        )
        t_ref, db_ref = _harness.best_of(
            lambda: enumerate_cuts_reference(net, k=3, cuts_per_node=8),
            repeats,
        )
        for node in range(net.num_nodes()):
            got = [(c.leaves, c.table.bits, c.signature) for c in db_kernel[node]]
            want = [(c.leaves, c.table.bits, c.signature) for c in db_ref[node]]
            if got != want:
                failures.append(
                    f"cuts:{name}: kernel cut set diverged at node {node}"
                )
                break
        out[name] = {
            "nodes": net.num_nodes(),
            "kernel_seconds": round(t_kernel, 5),
            "seed_reference_seconds": round(t_ref, 5),
            "speedup_vs_seed": round(t_ref / t_kernel, 2) if t_kernel else None,
        }
    return out


def bench_segment(circuits, preset, failures, repeats=3):
    """The acceptance-gate segment: t1 detection + post-substitution CEC.

    Both paths run ``repeats`` times with the garbage collector paused
    inside the timed region, and report the fastest run — the standard
    microbenchmark discipline (min-of-N, symmetric for both paths), so
    a stray collection or scheduler hiccup in the middle of a 0.3 s
    region does not masquerade as a slowdown of either path.
    """
    out = {}
    for name in circuits:
        net = decomposed_network(name, preset)

        def run_seed():
            cands_ref = find_candidates_reference(net)
            sel_ref = select_candidates(cands_ref)
            net_ref, _ = apply_candidates(net, sel_ref)
            # mirror the seed driver's engine choice: exhaustive at a
            # small PI count (the ci-preset circuits), 16 narrow random
            # rounds above it — so both paths always compare like CEC
            # engines
            if len(net.pis) <= EXHAUSTIVE_PI_LIMIT:
                cec_ref = exhaustive_equivalence(
                    net, net_ref, chunk_pis=EXHAUSTIVE_PI_LIMIT
                )
            else:
                cec_ref = signature_equivalence(
                    net, net_ref, width=DEFAULT_RANDOM_WIDTH, rounds=16
                )
            return cands_ref, sel_ref, cec_ref

        def run_kernel():
            # fresh epoch-cache per attempt: the kernel path must pay
            # for its own enumeration, not reuse a previous attempt's
            if hasattr(net, "_cut_db_cache"):
                del net._cut_db_cache
            det = detect_and_replace(net)
            cec = check_equivalence(net, det.network, complete=False)
            return det, cec

        # seed path: reference cuts + reference candidate search + seed
        # greedy/apply + the seed driver's CEC engine
        t_seed, (cands_ref, sel_ref, cec_ref) = _harness.best_of(
            run_seed, repeats
        )

        # kernel path: epoch-cached int cut kernel + table-driven
        # matching + fast-path CEC
        t_kernel, (det, cec) = _harness.best_of(run_kernel, repeats)

        if not (cec.equivalent and cec_ref.equivalent):
            failures.append(f"segment:{name}: CEC refuted the substitution")
        if det.found != len(cands_ref) or det.used != len(sel_ref):
            failures.append(
                f"segment:{name}: kernel found/used "
                f"({det.found}/{det.used}) diverged from the seed reference "
                f"({len(cands_ref)}/{len(sel_ref)})"
            )
        got = [(c.leaves, c.polarity, c.gain, c.matches) for c in det.candidates]
        want = [(c.leaves, c.polarity, c.gain, c.matches) for c in cands_ref]
        if got != want:
            failures.append(
                f"segment:{name}: kernel candidate list diverged from the "
                f"seed reference"
            )
        out[name] = {
            "found": det.found,
            "used": det.used,
            "kernel_seconds": round(t_kernel, 5),
            "seed_seconds": round(t_seed, 5),
            "speedup_vs_seed": round(t_seed / t_kernel, 2) if t_kernel else None,
        }
    return out


def bench_cut_cache(preset, failures):
    """Epoch-cache hit vs cold enumeration inside find_candidates."""
    name = "multiplier"
    net = decomposed_network(name, preset)
    t0 = time.perf_counter()
    first = find_candidates(net)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = find_candidates(net)
    t_warm = time.perf_counter() - t0
    if [(c.leaves, c.gain) for c in first] != [(c.leaves, c.gain) for c in second]:
        failures.append("cut_cache: re-detection diverged on unmutated network")
    db = cached_cut_database(net)
    if db.epoch != net.epoch:
        failures.append("cut_cache: cached database epoch out of sync")
    return {
        "circuit": name,
        "cold_seconds": round(t_cold, 5),
        "cached_seconds": round(t_warm, 5),
        "speedup": round(t_cold / t_warm, 2) if t_warm else None,
    }


def main(argv=None) -> int:
    parser = _harness.parser(
        __doc__, "BENCH_mapping.json", "CI smoke: down-scaled circuits"
    )
    parser.add_argument(
        "--gate-cuts", action="store_true",
        help="perf ratchet: fail if any cuts speedup_vs_seed drops "
        "below 1.0 (the PR 6 regression gate)",
    )
    args = parser.parse_args(argv)

    preset = "ci" if args.quick else "paper"
    failures: list = []
    cuts = bench_cuts(SEGMENT_CIRCUITS, preset, failures)
    if args.gate_cuts:
        for name, entry in cuts.items():
            speedup = entry["speedup_vs_seed"]
            if speedup is not None and speedup < 1.0:
                failures.append(
                    f"cuts:{name}: kernel slower than seed reference "
                    f"({speedup}x < 1.0)"
                )
    report = {
        "meta": _harness.meta(preset=preset),
        "npn": bench_npn(failures),
        "cuts": cuts,
        "t1_detect_cec_segment": bench_segment(SEGMENT_CIRCUITS, preset, failures),
        "cut_cache": bench_cut_cache(preset, failures),
        "invariants_ok": not failures,
        "invariant_failures": failures,
    }

    _harness.write(report, args.out)
    npn = report["npn"]
    print(
        f"npn canon: table {npn['table_seconds_per_call']:.2e}s vs enum "
        f"{npn['enum_seconds_per_call']:.2e}s ({npn['speedup']}x)"
    )
    for name, entry in report["cuts"].items():
        print(
            f"cuts    {name:<11} kernel {entry['kernel_seconds']:.3f}s  "
            f"seed {entry['seed_reference_seconds']:.3f}s  "
            f"({entry['speedup_vs_seed']}x)"
        )
    for name, entry in report["t1_detect_cec_segment"].items():
        print(
            f"segment {name:<11} kernel {entry['kernel_seconds']:.3f}s  "
            f"seed {entry['seed_seconds']:.3f}s  "
            f"({entry['speedup_vs_seed']}x, found {entry['found']}, "
            f"used {entry['used']})"
        )
    cache = report["cut_cache"]
    print(
        f"cut cache on {cache['circuit']}: cold {cache['cold_seconds']:.3f}s "
        f"vs cached {cache['cached_seconds']:.3f}s ({cache['speedup']}x)"
    )
    return _harness.exit_code("MAPPING KERNEL INVARIANT FAILURES", failures)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""The repository benchmark: whole-flow and service workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Workloads: ``table1``, ``scale_datapath`` and ``service_mix`` (see
``workloads.py``; ``BENCHMARK.json`` says why each
was chosen and which layer metric should move on it).  The program is
imported from ``src/`` of the same checkout; without it the command
exits with status 2 and prints no result.

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json``.  ``--trace 1`` repeats the workload with span
tracing and reports the per-layer metrics instead, prints a layer-share
table (self time, share of the traced unit, span count), the tracing
overhead against untraced units of the same run, and
writes the spans to ``.perfbench/trace-<workload>-s<seed>.jsonl``.
Layer metrics a workload does not exercise read 0 with 0 samples.

Metric notes:

* Times are *reference seconds* (``calib.py``): each measured interval
  is scaled by a fixed kernel's time, taken right before and after it,
  against that kernel's time on the reference host, because a shared
  host's speed drifts by tens of percent within and between runs.  The
  exceptions are ``service_mix``'s ``miss_*`` and ``wall_s``, which are
  raw: a miss is mostly the client sleeping between status polls, and
  a sleep does not scale with host speed.  ``--trace 1`` reports the
  kernel's own median time as ``calib.kernel_s``; per-layer times are raw.
* ``setup_s`` -- median of at least three cold set-ups (and 1 s of
  them): ``warm_worker()`` tables and the inputs, plus a daemon boot up
  to its first finished job on ``service_mix``.
* ``wall_s`` -- one unit of work: a whole ``run_many`` call on the flow
  workloads (median over the units that fit in ``--seconds``), one new
  circuit and its 4 repeats on ``service_mix`` (median over the groups).
* ``miss_*`` / ``hit_*`` -- client-observed latency of an operation that
  runs the flow, and of one answered from a stored result: service cache
  hits on ``service_mix``, ``BatchJournal`` resume on the flow workloads.
* ``area_jj`` / ``dffs`` -- totals over the T1-flow outputs.
* ``t1_area_ratio`` -- mean per-circuit T1/4phi area ratio on ``table1``;
  the other workloads run no 4phi baseline and report 1.0.
* ``ok_ratio`` -- verified operations over attempted ones.  Any failed
  operation also makes the command exit with status 1.

Every output is checked after the timed window (``gate.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"


def _percentile(values, q: int) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(outcome) -> dict:
    """``name -> (value, sample count)``; totals and ratios count 1."""
    attempted = max(1, outcome.attempted)
    misses, hits = len(outcome.miss_s), len(outcome.hit_s)
    return {
        "setup_s": (statistics.median(outcome.setup_s), len(outcome.setup_s)),
        "wall_s": (statistics.median(outcome.walls), len(outcome.walls)),
        "peak_rss_mb": (outcome.peak_rss_mb, 1),
        "area_jj": (outcome.area_jj, 1),
        "dffs": (outcome.dffs, 1),
        "t1_area_ratio": (outcome.t1_area_ratio, 1),
        "miss_p50_s": (_percentile(outcome.miss_s, 50), misses),
        "miss_p90_s": (_percentile(outcome.miss_s, 90), misses),
        "hit_p50_s": (_percentile(outcome.hit_s, 50), hits),
        "hit_p90_s": (_percentile(outcome.hit_s, 90), hits),
        "ok_ratio": ((attempted - len(outcome.failures)) / attempted, attempted),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2

    from calib import REF_KERNEL_S
    from gate import Gate, program_digest
    from tracing import Tracer
    from workloads import Run, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    gate = Gate(OUT / "verified.json", program_digest(ROOT / "src" / "repro"))
    run = Run(args.workload, args.seed, args.seconds, OUT, gate, tracer)
    outcome = WORKLOADS[args.workload](run)
    gate.save()

    kernel = run.cal.kernel_s
    outcome.layers["calib.kernel_s"] = (statistics.median(kernel), len(kernel))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  samples: {len(outcome.walls)} wall units, "
          f"{len(outcome.miss_s)} misses, {len(outcome.hit_s)} hits; "
          f"{gate.simulated} outputs stream-simulated")
    print(f"  calibration kernel: median {statistics.median(kernel):.5f} s, "
          f"range {min(kernel):.5f}-{max(kernel):.5f} s over {len(kernel)} "
          f"calibrations (reference {REF_KERNEL_S} s)")
    for note in outcome.notes:
        print(f"  note: {note}")
    if tracer is None:
        values = end_to_end(outcome)
        listed = spec["end_to_end"]
    else:
        values = outcome.layers
        listed = spec["per_layer"]
        wall = outcome.share_wall
        print(f"  layer self times and shares of the traced unit, {wall:.4f} s:")
        for name, seconds, n in outcome.shares:
            print(f"    {name:<16} {seconds:10.4f} s  "
                  f"{seconds / wall:7.1%}  n={n}")
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
    metrics = {}
    for m in listed:
        name, unit = m["name"], m["unit"]
        value, n = values.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:>16.6g} {unit:<6} n={n}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")
    failed = len(outcome.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

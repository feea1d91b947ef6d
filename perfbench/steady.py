#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

Runs ``perfbench/run.py`` once per seed on each given workload and prints,
per end-to-end metric, the median and the quartile spread
``(Q3 - Q1) / median`` next to the metric's bound from BENCHMARK.json::

    python3 perfbench/steady.py --workloads table1 service_mix --seeds 1-10

A spread at or above a third of its bound is flagged ``WIDE``.  Raw results are appended to ``.perfbench/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    log = ROOT / ".perfbench" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        rows = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            elapsed = time.monotonic() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            rows.append(result["metrics"])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "elapsed": elapsed, **result}) + "\n")
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"in {elapsed:.1f} s", flush=True)
        for m in listed:
            values = [r[m["name"]]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  WIDE"
            print(f"  {m['name']:<28} median {med:12.6g}  spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

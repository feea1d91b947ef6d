"""Shared plumbing of the ``bench_*.py`` microbenchmarks.

Every bench script parses ``--quick`` / ``--out`` with :func:`parser`,
stamps its report with :func:`meta`, times with :func:`best_of`, writes
the JSON with :func:`write` and turns its collected failures into the
exit status with :func:`exit_code`.

Importing this module also puts ``tests/`` on ``sys.path``, so the
benches import the same oracles (``oracles.*``) the tests pin the
kernels against.
"""

from __future__ import annotations

import argparse
import gc
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_TESTS = str(REPO_ROOT / "tests")
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

from repro.io.json_report import dump_json_report  # noqa: E402


def parser(doc: str, out_name: str, quick_help: str):
    """Argument parser with the common ``--quick`` and ``--out`` options."""
    p = argparse.ArgumentParser(description=doc)
    p.add_argument("--quick", action="store_true", help=quick_help)
    p.add_argument(
        "--out", default=str(REPO_ROOT / out_name),
        help=f"output JSON path (default: {out_name} at repo root)",
    )
    return p


def meta(**fields) -> dict:
    """The report's ``meta`` block: *fields*, interpreter, machine, time."""
    return {
        **fields,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def best_of(fn, repeats: int, setup=None):
    """``(fastest seconds, last result)`` of *repeats* calls of *fn*.

    The collector is paused inside the timed region, so a collection of
    some earlier run's garbage is not billed to this one; *setup* runs
    before every attempt, outside the timed region.
    """
    best = None
    result = None
    for _ in range(repeats):
        if setup is not None:
            setup()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
        finally:
            gc.enable()
        if best is None or dt < best:
            best = dt
    return best, result


def write(report: dict, out: str) -> None:
    """Dump *report* as strict JSON to *out* and say so."""
    dump_json_report(out, report)
    print(f"wrote {out}")


def exit_code(title: str, failures) -> int:
    """Print *failures* under *title* to stderr; 1 if there are any, else 0."""
    if not failures:
        return 0
    print(f"{title}:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return 1

"""The correctness gate: every flow output is checked outside the timed window.

An output passes when its staged netlist satisfies the static timing
rules (``assert_timing``) and the pulse-level stream simulation matches
logic simulation of the *source* network (``verify_streaming``).

The stream check costs about as much as the flow itself, so it is
amortised, never skipped: a verified ``(source structural hash, netlist
digest)`` pair is remembered -- in memory and in a file under the
checkout -- and an output with the same pair is not simulated again.
The digest covers every cell's kind, function, fanins and stage plus
the PI/PO bindings, so any change to the netlist is simulated afresh.

The service returns reports, not netlists.  A service output is checked
against a *reference*: the report of the same source run in-process,
whose netlist passed :meth:`Gate.check`.  References are remembered per
source structural hash under a digest of the program's sources, so a
changed program never reuses them.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import ReproError
from repro.pipeline.passes.finalize import verify_streaming
from repro.sfq.timing import assert_timing


def program_digest(src: Path) -> str:
    """SHA-256 over every Python source file of the program under *src*."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def netlist_digest(netlist) -> str:
    """SHA-256 over the complete structure and schedule of *netlist*."""
    h = hashlib.sha256(f"{netlist.n_phases}|{netlist.pis}|".encode())
    for c in netlist.cells:
        op = c.op.name if c.op is not None else ""
        h.update(f"{c.kind.value},{op},{c.fanins},{c.stage};".encode())
    h.update(repr([sig for sig, _name in netlist.pos]).encode())
    return h.hexdigest()


class Gate:
    """Timing + stream verification with a digest memo of verified pairs."""

    def __init__(self, memo_path: Optional[Path] = None, program: str = ""):
        self.memo_path = memo_path
        self.program = program
        self.verified: Set[str] = set()
        #: source structural hash -> verified {"metrics", "t1"} of this program
        self.references: Dict[str, dict] = {}
        self.simulated = 0  # outputs that needed the full stream check
        if memo_path is not None and memo_path.exists():
            try:
                memo = json.loads(memo_path.read_text())
                self.verified = set(memo["verified"])
                if memo["program"] == program:
                    self.references = dict(memo["references"])
            except (ValueError, TypeError, KeyError):
                self.verified, self.references = set(), {}

    def check(self, source, netlist) -> Optional[str]:
        """``None`` when the output is correct, else the failure message."""
        try:
            assert_timing(netlist)
            key = hashlib.sha256(
                f"{source.structural_hash()}:{netlist_digest(netlist)}".encode()
            ).hexdigest()
            if key not in self.verified:
                self.simulated += 1
                verify_streaming(source, netlist)
                self.verified.add(key)
        except ReproError as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def reference(self, source, flow: Callable) -> Tuple[Optional[dict], Optional[str]]:
        """``(reference, None)`` for *source*, or ``(None, failure)``.

        A remembered reference is returned as is; otherwise ``flow(source)``
        runs in-process, its output goes through :meth:`check`, and the
        ``metrics`` and ``t1`` of its report become the reference.
        """
        key = source.structural_hash()
        if key in self.references:
            return self.references[key], None
        from repro.service import flow_report

        ctx = flow(source)
        error = self.check(ctx.source, ctx.netlist)
        if error is not None:
            return None, error
        report = flow_report(ctx)
        self.references[key] = {"metrics": report["metrics"], "t1": report["t1"]}
        return self.references[key], None

    def save(self) -> None:
        if self.memo_path is None:
            return
        self.memo_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.memo_path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "verified": sorted(self.verified),
            "program": self.program,
            "references": self.references,
        }))
        os.replace(tmp, self.memo_path)

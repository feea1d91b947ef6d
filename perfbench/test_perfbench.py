"""Tests of the benchmark's own machinery: the correctness gate, the
tracer's self-time arithmetic, the pipeline hooks and the exit status
without program sources.  Run with ``PYTHONPATH=src pytest perfbench``."""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

from calib import REF_KERNEL_S, Calibrator, Segments
from gate import Gate, netlist_digest
from tracing import Tracer, traced
from workloads import relabel

from repro.circuits import build
from repro.circuits.synthetic import build_synthetic
from repro.network.gates import Gate as Op
from repro.pipeline import Pipeline
from repro.sfq.netlist import CellKind

HERE = Path(__file__).resolve().parent


def _flow():
    return Pipeline.standard(verify="none").run(build("adder", "ci"))


def test_gate_accepts_flow_output_and_memoises_it(tmp_path):
    ctx = _flow()
    gate = Gate(tmp_path / "memo.json")
    assert gate.check(ctx.source, ctx.netlist) is None
    assert gate.check(ctx.source, ctx.netlist) is None
    assert gate.simulated == 1
    gate.save()
    again = Gate(tmp_path / "memo.json")
    assert again.check(ctx.source, ctx.netlist) is None
    assert again.simulated == 0


def test_gate_catches_a_corrupted_function(tmp_path):
    ctx = _flow()
    gate = Gate(tmp_path / "memo.json")
    assert gate.check(ctx.source, ctx.netlist) is None
    before = netlist_digest(ctx.netlist)
    cell = next(c for c in ctx.netlist.cells
                if c.kind is CellKind.GATE and c.op is Op.XOR)
    cell.op = Op.XNOR
    assert netlist_digest(ctx.netlist) != before
    error = gate.check(ctx.source, ctx.netlist)
    assert error is not None and "SimulationError" in error


def test_gate_catches_a_timing_violation(tmp_path):
    ctx = _flow()
    cell = next(c for c in ctx.netlist.cells
                if c.kind is CellKind.GATE and c.stage and c.stage > 1)
    cell.stage = 0
    error = Gate(tmp_path / "memo.json").check(ctx.source, ctx.netlist)
    assert error is not None


def test_gate_remembers_references_per_program(tmp_path):
    net = build("adder", "ci")
    runs = []

    def flow(source):
        runs.append(source)
        return Pipeline.standard().run(source)

    gate = Gate(tmp_path / "memo.json", program="p1")
    ref, error = gate.reference(net, flow)
    assert error is None and ref["metrics"]["area_jj"] > 0
    assert gate.reference(net, flow) == (ref, None) and len(runs) == 1
    gate.save()
    assert Gate(tmp_path / "memo.json", program="p1").reference(net, flow)[0] == ref
    assert len(runs) == 1
    Gate(tmp_path / "memo.json", program="p2").reference(net, flow)
    assert len(runs) == 2


def test_gate_reference_rejects_a_corrupted_netlist(tmp_path):
    def corrupted(source):
        ctx = Pipeline.standard().run(source)
        cell = next(c for c in ctx.netlist.cells
                    if c.kind is CellKind.GATE and c.op is Op.XOR)
        cell.op = Op.XNOR
        return ctx

    gate = Gate(tmp_path / "memo.json")
    ref, error = gate.reference(build("adder", "ci"), corrupted)
    assert ref is None and "SimulationError" in error
    assert gate.references == {}


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    root = tracer.add("root", "t", 0.0, 10.0)
    tracer.add("a", "t", 1.0, 3.0, root)
    tracer.add("b", "t", 2.0, 5.0, root)
    tracer.add("c", "t", 7.0, 8.0, root)
    assert tracer.self_times() == [5.0, 2.0, 3.0, 1.0]
    assert tracer.self_totals()["root"] == (1, 5.0)


def test_traced_pipeline_records_one_tree_per_run():
    tracer = Tracer()
    pipe = traced(Pipeline.standard(), tracer, "t")
    for _ in range(2):
        pipe.run(build("adder", "ci"))
    flows = [s for s in tracer.spans if s.name == "flow"]
    assert len(flows) == 2 and len({s.trace_id for s in flows}) == 2
    owns = tracer.self_times()
    for flow in flows:
        kids = [s for s in tracer.spans if s.parent == flow.span_id]
        assert [s.name for s in kids] == pipe.names()
        total = owns[flow.span_id] + sum(owns[s.span_id] for s in kids)
        assert abs(total - (flow.end - flow.start)) < 1e-9
    assert len(tracer.samples["map_to_sfq.size_out"]) == 2


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_segments_leave_calibrations_out_and_scale_each_piece():
    cal = Calibrator()
    segments = Segments(cal, min_s=0.0)
    segments.start()
    for i in range(3):
        time.sleep(0.02)
        segments(i, None)
    ref, raw = segments.finish()
    # initial + start + one per piece + finish
    assert len(cal.kernel_s) == 6
    assert 0.06 <= raw < 0.06 + min(cal.kernel_s)
    k = cal.kernel_s
    slowest = REF_KERNEL_S / min(k[1:]) * raw
    fastest = REF_KERNEL_S / max(k[1:]) * raw
    assert fastest * 0.999 <= ref <= slowest * 1.001


def test_relabel_keeps_the_circuit():
    net = build_synthetic("datapath", 400, 0)
    renamed = relabel(net, 3, shuffle=False)
    assert renamed.structural_hash() == net.structural_hash()
    assert renamed.get_name(renamed.pis[0]) == "s3_" + net.get_name(net.pis[0])
    shuffled = relabel(net, 3)
    assert shuffled.num_gates() == net.num_gates()
    flow = Pipeline.standard(verify="none")
    assert flow.run(shuffled).metrics == flow.run(net).metrics

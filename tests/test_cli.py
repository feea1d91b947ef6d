"""Tests for the repro-flow CLI."""

import pytest

from repro.cli import main, make_parser


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("adder", "c6288", "log2"):
        assert name in out


def test_run_benchmark_ci(capsys):
    assert main(["run", "adder", "--preset", "ci", "--t1"]) == 0
    out = capsys.readouterr().out
    assert "T1 cells  : found 15, used 15" in out
    assert "area (JJ)" in out


def test_run_baseline_no_t1(capsys):
    assert main(["run", "adder", "--preset", "ci", "-n", "1",
                 "--verify", "none"]) == 0
    out = capsys.readouterr().out
    assert "1-phase" in out


def test_run_blif_file(tmp_path, capsys):
    from repro.circuits import ripple_carry_adder
    from repro.io import write_blif

    path = tmp_path / "add.blif"
    with open(path, "w") as fh:
        write_blif(ripple_carry_adder(4), fh)
    assert main(["run", str(path), "--t1", "--verify", "full"]) == 0
    out = capsys.readouterr().out
    assert "verified  : True" in out


def test_run_writes_dot(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    assert main(
        ["run", "adder", "--preset", "ci", "--t1", "--dot", str(dot)]
    ) == 0
    assert dot.read_text().startswith("digraph")


def test_table_subset(capsys):
    assert main(
        ["table", "adder", "c6288", "--preset", "ci", "--verify", "none"]
    ) == 0
    out = capsys.readouterr().out
    assert "adder" in out
    assert "c6288" in out
    assert "Average" in out


def test_fig1b(capsys):
    assert main(["fig1b"]) == 0
    out = capsys.readouterr().out
    assert "T1 cell pulse-level simulation" in out
    assert "|" in out


def test_run_with_energy(capsys):
    assert main(["run", "adder", "--preset", "ci", "--t1", "--energy",
                 "--frequency", "30"]) == 0
    out = capsys.readouterr().out
    assert "energy    :" in out
    assert "30 GHz" in out


def test_run_with_balance(capsys):
    assert main(["run", "c7552", "--preset", "ci", "--balance",
                 "--verify", "none"]) == 0
    assert "area (JJ)" in capsys.readouterr().out


def test_run_per_edge_insertion(capsys):
    assert main(["run", "adder", "--preset", "ci", "--no-share",
                 "--verify", "none"]) == 0
    assert "#DFF" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "nonesuch"],
        ["run", "adder", "--scale", "100"],
        ["table", "adder", "--resume"],
        ["run", "adder", "--preset", "ci", "--phases", "0"],
        ["run", "adder", "--preset", "ci", "--phases", "-1"],
        ["table", "adder", "--preset", "ci", "--phases", "0"],
        ["run", "adder", "--preset", "ci", "--phases", "64"],
        ["run", "adder", "--preset", "ci", "--phases", "1000000000"],
        ["table", "adder", "--preset", "ci", "--phases", "17"],
        ["run", "adder", "--preset", "ci", "--sweeps", "-1"],
    ],
    ids=["unknown-benchmark", "scale-on-registry", "resume-without-journal",
         "run-zero-phases", "run-negative-phases", "table-zero-phases",
         "run-64-phases", "run-huge-phases", "table-17-phases",
         "run-negative-sweeps"],
)
def test_user_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_removed_po_balance_flag_exits_2(capsys):
    # PO balancing is part of the one flow convention, not a flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "adder", "--preset", "ci", "--no-po-balance"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-po-balance" in capsys.readouterr().err


def test_parser_has_all_commands():
    parser = make_parser()
    text = parser.format_help()
    for cmd in ("list", "run", "table", "fig1b",
                "serve", "submit", "status", "result"):
        assert cmd in text


def test_run_json_strict_roundtrip(capsys):
    """--json must emit the strict-JSON flow report, losslessly."""
    from repro.circuits import build
    from repro.io.json_report import strict_loads
    from repro.pipeline import Pipeline

    assert main(["run", "adder", "--preset", "ci", "--t1", "--json"]) == 0
    out = capsys.readouterr().out
    report = strict_loads(out)
    assert report["schema"] == "repro-flow-report/v1"
    assert report["benchmark"] == "adder"
    assert report["config"]["use_t1"] is True
    assert report["cached"] is False
    ctx = Pipeline.standard().run(build("adder", "ci"))
    assert report["metrics"]["dffs"] == ctx.metrics.num_dffs
    assert report["metrics"]["area_jj"] == ctx.metrics.area_jj
    assert report["t1"] == {"found": ctx.t1_found, "used": ctx.t1_used}


def test_submit_against_live_daemon(capsys):
    """submit/status/result verbs against an in-process daemon."""
    from repro.io.json_report import strict_loads
    from repro.service import FlowDaemon

    daemon = FlowDaemon(port=0, workers=1, queue_size=4, job_timeout_s=60.0)
    daemon.start()
    try:
        url = daemon.url
        assert main(["submit", "adder", "--preset", "ci",
                     "--verify", "none", "--url", url, "--wait"]) == 0
        report = strict_loads(capsys.readouterr().out)
        assert report["benchmark"] == "adder"
        assert report["cached"] is False

        # resubmission: status verb shows the synchronous cache hit
        assert main(["submit", "adder", "--preset", "ci",
                     "--verify", "none", "--url", url]) == 0
        status = strict_loads(capsys.readouterr().out)
        assert status["state"] == "done"
        assert status["cached"] is True

        assert main(["status", status["job_id"], "--url", url]) == 0
        assert strict_loads(capsys.readouterr().out)["state"] == "done"
        assert main(["result", status["job_id"], "--url", url]) == 0
        cached_report = strict_loads(capsys.readouterr().out)
        assert cached_report["metrics"] == report["metrics"]
    finally:
        daemon.stop()


def test_client_verbs_error_cleanly_when_daemon_down(capsys):
    url = "http://127.0.0.1:1"  # nothing listens on port 1
    assert main(["status", "nojob", "--url", url]) == 2
    assert "error:" in capsys.readouterr().err


def test_table_accepts_blif_file(tmp_path, capsys):
    from repro.circuits import ripple_carry_adder
    from repro.io import write_blif

    path = tmp_path / "add.blif"
    with open(path, "w") as fh:
        write_blif(ripple_carry_adder(4), fh)
    assert main(["table", str(path), "--verify", "none"]) == 0
    out = capsys.readouterr().out
    assert "add.blif" in out
    assert "Average" in out


def test_invalid_t1_phase_count_is_clean_error(capsys):
    assert main(["run", "adder", "--preset", "ci", "-n", "2", "--t1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n_phases >= 3" in err


def test_run_timings_breakdown(capsys):
    """--timings must print a per-pass wall-clock breakdown."""
    assert main(["run", "adder", "--preset", "ci", "--t1", "--timings"]) == 0
    out = capsys.readouterr().out
    assert "per-pass timing:" in out
    for pass_name in ("decompose", "t1_detect", "map", "phase_assign",
                      "dff_insert", "verify_metrics"):
        assert pass_name in out, pass_name
    # every line of the breakdown carries a seconds figure
    lines = [l for l in out.splitlines() if l.startswith("  ") and " s" in l]
    assert len(lines) >= 6

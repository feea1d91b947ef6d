"""Pipeline composition, execution and hook semantics."""

import pytest

from repro.circuits import build, ripple_carry_adder
from repro.errors import PipelineError, ReproError
from repro.pipeline import (
    BalancePass,
    DffInsertPass,
    FlowContext,
    MapPass,
    Pass,
    PhaseAssignPass,
    Pipeline,
    SplitterPass,
    T1DetectPass,
)

STANDARD_NAMES = [
    "decompose", "t1_detect", "map_to_sfq", "phase_assign", "dff_insert",
    "verify_metrics",
]


class TestComposition:
    def test_standard_order(self):
        assert Pipeline.standard().names() == STANDARD_NAMES

    def test_standard_baseline_drops_detection(self):
        names = Pipeline.standard(n_phases=1, use_t1=False).names()
        assert names == [n for n in STANDARD_NAMES if n != "t1_detect"]

    def test_standard_optional_passes(self):
        names = (
            Pipeline.standard(balance_network=True)
            .with_pass(SplitterPass(), after="dff_insert")
            .names()
        )
        assert names.index("balance") == names.index("decompose") + 1
        assert names.index("materialize_splitters") == (
            names.index("dff_insert") + 1
        )

    def test_t1_needs_three_phases(self):
        with pytest.raises(ReproError):
            Pipeline.standard(n_phases=2, use_t1=True)

    @pytest.mark.parametrize(
        "settings",
        [
            {"n_phases": 0, "use_t1": False},
            {"n_phases": -1, "use_t1": False},
            {"n_phases": 0},
            {"n_phases": Pipeline.MAX_PHASES + 1},
            {"n_phases": 1_000_000_000},
            {"sweeps": -1},
            {"cuts_per_node": 0},
            {"verify": "CEC"},
            {"verify": "bogus"},
        ],
        ids=["zero-phases", "negative-phases", "zero-phases-t1",
             "too-many-phases", "huge-phases", "negative-sweeps",
             "zero-cuts", "verify-uppercase", "verify-unknown"],
    )
    def test_out_of_range_settings_rejected(self, settings):
        with pytest.raises(PipelineError):
            Pipeline.standard(**settings)

    def test_phase_and_sweep_bounds_are_inclusive(self):
        Pipeline.standard(n_phases=Pipeline.MAX_PHASES)
        Pipeline.standard(sweeps=0)

    def test_unknown_verify_mode_rejected_everywhere(self):
        with pytest.raises(PipelineError):
            Pipeline([], verify="bogus")
        with pytest.raises(PipelineError):
            Pipeline.standard().with_verify("CEC")

    def test_with_pass_append_before_after(self):
        pipe = Pipeline.standard()
        assert pipe.with_pass(BalancePass()).names()[-1] == "balance"
        assert pipe.with_pass(
            BalancePass(), before="t1_detect"
        ).names()[1] == "balance"
        assert pipe.with_pass(
            BalancePass(), after="decompose"
        ).names()[1] == "balance"
        with pytest.raises(PipelineError):
            pipe.with_pass(BalancePass(), before="decompose", after="decompose")

    def test_without_and_replace(self):
        pipe = Pipeline.standard()
        assert "t1_detect" not in pipe.without("t1_detect").names()
        swapped = pipe.replace("phase_assign", PhaseAssignPass(sweeps=8))
        assert swapped.names() == pipe.names()
        at = swapped.names().index("phase_assign")
        assert swapped.passes[at].sweeps == 8

    def test_unknown_name_raises(self):
        pipe = Pipeline.standard()
        with pytest.raises(PipelineError):
            pipe.without("no_such_pass")
        with pytest.raises(PipelineError):
            pipe.replace("no_such_pass", BalancePass())
        with pytest.raises(PipelineError):
            pipe.with_pass(BalancePass(), after="no_such_pass")

    def test_duplicate_pass_name_rejected(self):
        pipe = Pipeline.standard()
        with pytest.raises(PipelineError):
            pipe.with_pass(MapPass(n_phases=2))

    def test_builder_is_immutable(self):
        pipe = Pipeline.standard()
        names = pipe.names()
        pipe.without("t1_detect")
        pipe.with_pass(BalancePass())
        pipe.replace("dff_insert", DffInsertPass(share_chains=False))
        pipe.with_hooks(on_pass_start=lambda ctx, p: None)
        assert pipe.names() == names
        assert pipe.hooks == ()

    def test_passes_satisfy_protocol(self):
        for p in (
            Pipeline.standard(balance_network=True)
            .with_pass(SplitterPass(), after="dff_insert")
            .passes
        ):
            assert isinstance(p, Pass)

    def test_custom_pass_object(self):
        class CountGates:
            name = "count_gates"

            def run(self, ctx):
                ctx.extras["gates"] = ctx.network.num_gates()
                return ctx

        ctx = (
            Pipeline.standard(use_t1=False, verify="none")
            .with_pass(CountGates(), after="decompose")
            .run(ripple_carry_adder(4))
        )
        assert ctx.extras["gates"] > 0


class TestExecution:
    def test_context_artifacts_and_timings(self):
        pipe = Pipeline.standard(verify="full")
        ctx = pipe.run(build("adder", "ci"))
        assert isinstance(ctx, FlowContext)
        assert set(ctx.timings) == set(pipe.names())
        assert all(t >= 0 for t in ctx.timings.values())
        assert ctx.runtime_s >= sum(ctx.timings.values()) * 0.5
        assert ctx.netlist is not None
        assert ctx.detection is not None
        assert ctx.insertion is not None
        assert ctx.verified is True
        assert len(ctx.events) >= len(pipe.names())

    def test_phase_assign_event_reports_probe_counts(self):
        from repro.core.phase_assignment import assign_stages_heuristic

        pipe = Pipeline.standard(use_t1=False, verify="none")
        ctx = pipe.run(build("adder", "ci"))
        (event,) = [e for e in ctx.events if e.startswith("phase_assign:")]
        # the pass logs the heuristic's own report, count for count
        upto = pipe.names().index("phase_assign")
        mapped = Pipeline(pipe.passes[:upto], verify="none")
        report = assign_stages_heuristic(mapped.run(build("adder", "ci")).netlist)
        assert event == (
            f"phase_assign: sweeps_run={report.sweeps_run} "
            f"moves_evaluated={report.moves_evaluated} "
            f"moves_applied={report.moves_applied}"
        )

    def test_metrics_before_finalize_raises(self):
        pipe = Pipeline.standard().without("verify_metrics")
        ctx = pipe.run(build("adder", "ci"))
        with pytest.raises(PipelineError):
            _ = ctx.num_dffs

    def test_missing_map_pass_raises(self):
        pipe = Pipeline.standard(use_t1=False).without("map_to_sfq")
        with pytest.raises(PipelineError):
            pipe.run(ripple_carry_adder(4))

    def test_source_network_not_mutated(self):
        net = ripple_carry_adder(8)
        gates_before = net.num_gates()
        Pipeline.standard(verify="none").run(net)
        assert net.num_gates() == gates_before

    def test_splitter_pass_materializes(self):
        ctx = (
            Pipeline.standard(use_t1=False, verify="none")
            .with_pass(SplitterPass(), after="dff_insert")
            .run(ripple_carry_adder(4))
        )
        assert ctx.metrics.area_jj > 0


class TestHooks:
    def test_hook_invocation_order(self):
        calls = []
        pipe = Pipeline.standard(use_t1=False, verify="none").with_hooks(
            on_pass_start=lambda ctx, p: calls.append(("start", p.name)),
            on_pass_end=lambda ctx, p, dt: calls.append(("end", p.name, dt)),
        )
        pipe.run(ripple_carry_adder(4))
        names = pipe.names()
        assert [c[1] for c in calls[0::2]] == names  # starts, in order
        assert [c[1] for c in calls[1::2]] == names  # ends, in order
        assert all(c[0] == "start" for c in calls[0::2])
        assert all(c[0] == "end" and c[2] >= 0 for c in calls[1::2])

    def test_multiple_hooks_all_fire(self):
        seen_a, seen_b = [], []
        pipe = (
            Pipeline.standard(use_t1=False, verify="none")
            .with_hooks(on_pass_end=lambda ctx, p, dt: seen_a.append(p.name))
            .with_hooks(on_pass_end=lambda ctx, p, dt: seen_b.append(p.name))
        )
        pipe.run(ripple_carry_adder(4))
        assert seen_a == seen_b == pipe.names()

    def test_without_hooks(self):
        pipe = Pipeline.standard().with_hooks(
            on_pass_start=lambda ctx, p: None
        )
        assert pipe.without_hooks().hooks == ()

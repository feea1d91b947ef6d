"""The optional refactor pass: opt-in rewriting inside a pipeline flow."""

from repro.circuits import build
from repro.pipeline import Pipeline, RefactorPass


class TestRefactorPass:
    def test_insertable_after_decompose(self):
        pipe = Pipeline.standard().with_pass(RefactorPass(), after="decompose")
        names = pipe.names()
        assert names.index("refactor") == names.index("decompose") + 1

    def test_flow_metrics_cec_validated(self):
        net = build("adder", "ci")
        pipe = Pipeline.standard(verify="cec").with_pass(
            RefactorPass(), after="decompose"
        )
        ctx = pipe.run(net)
        # the refactored flow must survive end-to-end CEC against the
        # source network and still produce real metrics
        assert ctx.verified is True
        assert ctx.metrics.area_jj > 0
        assert ctx.metrics.num_gates > 0
        assert "refactor" in ctx.timings
        assert any("refactor:" in e for e in ctx.events)

    def test_never_grows_the_network(self):
        net = build("adder", "ci")
        seen = {}

        def snap(ctx, p, _elapsed):
            seen[p.name] = ctx.network.num_gates()

        pipe = (
            Pipeline.standard(verify="cec")
            .with_pass(RefactorPass(), after="decompose")
            .with_hooks(on_pass_end=snap)
        )
        ctx = pipe.run(net)
        assert ctx.verified is True
        assert seen["refactor"] <= seen["decompose"]

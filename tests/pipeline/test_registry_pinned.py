"""Pinned Pipeline.standard() metrics over the full circuit registry.

These values were produced by the PR 3 flow and re-verified bit-identical
after the PR 4 scheduling-kernel refactor and the PR 5 mapping-kernel
refactor: the delta-evaluated heuristic reproduces the seed
scan-and-rebuild sweeps, and the table-driven NPN matching /
allocation-light cut enumeration / incremental candidate selection
reproduce the seed mapping front-end exactly — on every registered
circuit at both presets.  Any intentional scheduling or mapping change
must update these numbers (and should only ever lower the DFF counts).

The T1 rows were re-pinned on purpose once since: the schedule kernel
used to call a T1 infeasible whenever a fanin sat more than
``min(σ_T1, n)`` stages back, although insertion simply delays such a
fanin.  Pricing that term the way insertion plans it changed the T1
stage vectors and lowered the DFF count on every circuit except c7552
(paper preset, T1 DFFs: 17226 -> 15468 in total); gates, T1 cells,
splitters and depth are unchanged, and flows without T1 cells are
bit-identical.
"""

import pytest

from repro.circuits import build
from repro.circuits.registry import TABLE1_ORDER
from repro.pipeline import Pipeline

#: (gates, t1, dffs, splitters, area_jj, depth_cycles) per circuit
PINNED_CI = {
    "adder": (2, 15, 63, 2, 840, 5),
    "c7552": (118, 9, 31, 123, 2379, 3),
    "c6288": (65, 22, 26, 88, 1742, 4),
    "sin": (657, 14, 88, 664, 9982, 11),
    "voter": (33, 92, 25, 23, 3229, 8),
    "square": (98, 34, 70, 142, 2858, 6),
    "multiplier": (111, 46, 45, 158, 3231, 6),
    "log2": (375, 68, 189, 442, 8632, 22),
}

PINNED_PAPER = {
    "adder": (2, 127, 5859, 2, 38864, 33),
    "c7552": (444, 45, 754, 483, 13337, 9),
    "c6288": (407, 220, 263, 628, 14008, 10),
    "sin": (5418, 47, 622, 5452, 79591, 33),
    "voter": (55, 990, 250, 41, 30904, 13),
    "square": (1692, 1076, 2872, 2816, 74107, 25),
    "multiplier": (3026, 2201, 3091, 5228, 128702, 26),
    "log2": (2379, 752, 1757, 3182, 68457, 77),
}

#: the paper's Table I "found" / "used" columns per circuit (§II-A
#: detection), pinned since PR 5 so mapping-layer refactors prove
#: bit-identity of the whole candidate pipeline, not only the final
#: netlist metrics
FOUND_USED_CI = {
    "adder": (15, 15),
    "c7552": (9, 9),
    "c6288": (22, 22),
    "sin": (18, 14),
    "voter": (92, 92),
    "square": (34, 34),
    "multiplier": (46, 46),
    "log2": (68, 68),
}

FOUND_USED_PAPER = {
    "adder": (127, 127),
    "c7552": (45, 45),
    "c6288": (220, 220),
    "sin": (62, 47),
    "voter": (990, 990),
    "square": (1076, 1076),
    "multiplier": (2201, 2201),
    "log2": (752, 752),
}


def as_tuple(metrics):
    d = metrics.as_dict()
    return (
        d["gates"], d["t1"], d["dffs"], d["splitters"],
        d["area_jj"], d["depth_cycles"],
    )


class TestPinnedRegistryMetrics:
    def test_registry_is_fully_pinned(self):
        assert set(PINNED_CI) == set(TABLE1_ORDER)
        assert set(PINNED_PAPER) == set(TABLE1_ORDER)
        assert set(FOUND_USED_CI) == set(TABLE1_ORDER)
        assert set(FOUND_USED_PAPER) == set(TABLE1_ORDER)

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_ci_preset(self, name):
        ctx = Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(
            build(name, "ci")
        )
        assert as_tuple(ctx.metrics) == PINNED_CI[name]
        assert (ctx.t1_found, ctx.t1_used) == FOUND_USED_CI[name]

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_paper_preset(self, name):
        ctx = Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(
            build(name, "paper")
        )
        assert as_tuple(ctx.metrics) == PINNED_PAPER[name]
        assert (ctx.t1_found, ctx.t1_used) == FOUND_USED_PAPER[name]

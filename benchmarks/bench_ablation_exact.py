"""Ablation A3: heuristic vs exact phase assignment.

The paper solves phase assignment with an ILP (OR-Tools); our flow uses
coordinate descent over the true insertion cost.  On netlists small
enough for the exhaustive oracle in ``tests/oracles/exact_stages.py``,
which minimises the DFFs insertion actually places, the heuristic must
never beat the optimum and must stay within 2 DFFs of it.  The cases
are ripple-carry adders (3 bits, n = 1/2/4) and 12 random netlists
(3 PIs, 5 gates, 2 POs, one T1 from n = 3 on) at n = 2/3/4.

    python -m pytest -q benchmarks/bench_ablation_exact.py --benchmark-disable
    PYTHONPATH=src python benchmarks/bench_ablation_exact.py  # table
"""

import pytest

import _harness  # noqa: F401  (puts tests/ on sys.path for the oracle)
from oracles.exact_stages import (
    exact_stages,
    heuristic_vs_optimum,
    random_netlist,
)
from repro.circuits import c7552_like, ripple_carry_adder
from repro.core.dff_insertion import insert_dffs
from repro.core.phase_assignment import assign_stages_heuristic
from repro.network.cleanup import strash
from repro.sfq import map_to_sfq

RANDOM_SEEDS = range(12)


def _rca(bits, n):
    net, _ = strash(ripple_carry_adder(bits))
    return map_to_sfq(net, n_phases=n)[0]


def _random(seed, n):
    return random_netlist(seed, n, n_pi=3, n_gates=5, n_t1=1, n_po=2)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_exact_phase_assignment(benchmark, n):
    benchmark.group = "ablation-exact"
    opt, _ = benchmark.pedantic(
        exact_stages, args=(_rca(3, n),), rounds=1, iterations=1
    )
    benchmark.extra_info.update({"n": n, "optimum": opt})


@pytest.mark.parametrize("n", [1, 2, 4])
def test_heuristic_matches_optimum(n):
    opt, got = heuristic_vs_optimum(lambda: _rca(3, n))
    assert opt <= got <= opt + 2, f"heuristic {got} vs optimum {opt}"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_heuristic_near_optimum_random(n):
    for seed in RANDOM_SEEDS:
        opt, got = heuristic_vs_optimum(lambda: _random(seed, n))
        assert opt <= got <= opt + 2, f"seed {seed}: heuristic {got} vs {opt}"


def test_heuristic_speed(benchmark):
    benchmark.group = "ablation-exact"
    net, _ = strash(c7552_like(16))
    nl, _ = map_to_sfq(net, n_phases=4)
    benchmark.pedantic(
        assign_stages_heuristic, args=(nl,), rounds=1, iterations=1
    )
    insert_dffs(nl)
    benchmark.extra_info["dffs"] = nl.num_dffs()


def main() -> int:
    """Print heuristic-vs-optimum DFF totals per case group."""
    groups = [(f"rca(3) n={n}", [lambda n=n: _rca(3, n)]) for n in (1, 2, 4)]
    groups += [
        (f"random x{len(RANDOM_SEEDS)} n={n}",
         [lambda s=s, n=n: _random(s, n) for s in RANDOM_SEEDS])
        for n in (2, 3, 4)
    ]
    print("| cases | optimum | heuristic | above optimum | max gap |")
    print("|---|---|---|---|---|")
    for name, makers in groups:
        pairs = [heuristic_vs_optimum(make) for make in makers]
        gaps = [got - opt for opt, got in pairs]
        print(
            f"| {name} | {sum(opt for opt, _ in pairs):g} "
            f"| {sum(got for _, got in pairs)} "
            f"| {sum(g > 0 for g in gaps)}/{len(gaps)} | {max(gaps):g} |"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

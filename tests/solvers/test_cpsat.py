"""Tests for the finite-domain CP solver."""

import itertools
import random

import pytest

from oracles.cpsat import CpModel, InfeasibleError
from repro.errors import SolverError


def test_simple_linear():
    m = CpModel()
    x = m.new_int_var(0, 10)
    y = m.new_int_var(0, 10)
    m.add_linear({x: 1, y: 1}, "==", 7)
    m.add_linear({x: 1, y: -1}, ">=", 3)
    sol = m.solve()
    assert sol[x.index] + sol[y.index] == 7
    assert sol[x.index] - sol[y.index] >= 3


def test_all_different_basic():
    m = CpModel()
    xs = [m.new_int_var(0, 2) for _ in range(3)]
    m.add_all_different(xs)
    sol = m.solve()
    assert sorted(sol[x.index] for x in xs) == [0, 1, 2]


def test_all_different_pigeonhole_infeasible():
    m = CpModel()
    xs = [m.new_int_var(0, 1) for _ in range(3)]
    m.add_all_different(xs)
    with pytest.raises(InfeasibleError):
        m.solve()


def test_not_equal():
    m = CpModel()
    x = m.new_int_var(0, 1)
    y = m.new_int_var(0, 1)
    m.add_linear({x: 1}, "!=", 0)
    m.add_linear({x: 1, y: -1}, "!=", 0)  # x != y
    sol = m.solve()
    assert sol[x.index] == 1
    assert sol[y.index] == 0


def test_minimize():
    m = CpModel()
    x = m.new_int_var(0, 10)
    y = m.new_int_var(0, 10)
    m.add_linear({x: 1, y: 1}, ">=", 6)
    assign, obj = m.minimize({x: 3, y: 1})
    assert obj == 6  # all on y
    assert assign[y.index] == 6


def test_empty_domain_rejected():
    m = CpModel()
    with pytest.raises(SolverError):
        m.new_int_var(5, 3)


def test_dff_insertion_style_model():
    """Miniature of eq. (5): three DFF stage variables before a T1 at
    stage 10 with n=4: each in [7, 9] after freshness, pairwise distinct."""
    m = CpModel()
    d = [m.new_int_var(7, 9, f"d{i}") for i in range(3)]
    m.add_all_different(d)
    # arrival order: d0 earliest
    m.add_linear({d[0]: 1, d[1]: -1}, "<=", -1)
    m.add_linear({d[1]: 1, d[2]: -1}, "<=", -1)
    sol = m.solve()
    assert [sol[x.index] for x in d] == [7, 8, 9]


def test_minimize_dff_count_model():
    """Choose slots for 3 inputs at stages (2, 2, 5) before sigma_T1 = 6,
    n = 4: inputs arriving directly collide at stage 2 -> one extra DFF."""
    m = CpModel()
    # slot variables: arrival stage of each input, within (2..5), (2..5), (5..5)
    s0 = m.new_int_var(2, 5)
    s1 = m.new_int_var(2, 5)
    s2 = m.new_int_var(5, 5)
    m.add_all_different([s0, s1, s2])
    # cost = number of moved inputs; moved_i = (s_i != base_i)
    # enumerate manually: minimize s0 + s1 shifted cost via linear proxy
    assign, obj = m.minimize({s0: 1, s1: 1})
    values = sorted([assign[s0.index], assign[s1.index]])
    assert values[0] == 2 and values[1] in (3, 4)


@pytest.mark.parametrize("seed", range(8))
def test_random_cp_vs_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    dom = 3
    m = CpModel()
    xs = [m.new_int_var(0, dom) for _ in range(n)]
    cons = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        rhs = rng.randint(-3, 6)
        op = rng.choice(["<=", ">=", "==", "!="])
        cons.append((coeffs, op, rhs))
        m.add_linear({x: c for x, c in zip(xs, coeffs)}, op, rhs)
    use_alldiff = rng.random() < 0.5
    if use_alldiff:
        m.add_all_different(xs)

    def feasible(point):
        for coeffs, op, rhs in cons:
            total = sum(c * p for c, p in zip(coeffs, point))
            if op == "<=" and not total <= rhs:
                return False
            if op == ">=" and not total >= rhs:
                return False
            if op == "==" and not total == rhs:
                return False
            if op == "!=" and not total != rhs:
                return False
        if use_alldiff and len(set(point)) != len(point):
            return False
        return True

    any_feasible = any(
        feasible(p) for p in itertools.product(range(dom + 1), repeat=n)
    )
    if any_feasible:
        sol = m.solve()
        point = tuple(sol[x.index] for x in xs)
        assert feasible(point)
    else:
        with pytest.raises(InfeasibleError):
            m.solve()


@pytest.mark.parametrize("seed", range(5))
def test_random_minimize_vs_brute_force(seed):
    rng = random.Random(100 + seed)
    n = 3
    dom = 3
    m = CpModel()
    xs = [m.new_int_var(0, dom) for _ in range(n)]
    coeffs = [rng.randint(-2, 2) for _ in range(n)]
    rhs = rng.randint(0, 5)
    m.add_linear({x: c for x, c in zip(xs, coeffs)}, ">=", rhs)
    obj = [rng.randint(-2, 2) for _ in range(n)]

    feas = [
        p
        for p in itertools.product(range(dom + 1), repeat=n)
        if sum(c * v for c, v in zip(coeffs, p)) >= rhs
    ]
    if not feas:
        with pytest.raises(InfeasibleError):
            m.minimize({x: c for x, c in zip(xs, obj)})
        return
    best = min(sum(c * v for c, v in zip(obj, p)) for p in feas)
    _, got = m.minimize({x: c for x, c in zip(xs, obj)})
    assert got == best

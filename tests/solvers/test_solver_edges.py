"""Edge-case and failure-injection tests for the CP solver."""

import pytest

from oracles.cpsat import CpModel, InfeasibleError, SolverLimitError
from repro.errors import SolverError


class TestCpEdges:
    def test_node_limit(self):
        m = CpModel()
        xs = [m.new_int_var(0, 30) for _ in range(8)]
        m.add_all_different(xs)
        m.add_linear({x: 1 for x in xs}, "==", 120)
        with pytest.raises((SolverLimitError, InfeasibleError)):
            m.solve(node_limit=2)

    def test_bad_operator(self):
        m = CpModel()
        x = m.new_int_var(0, 1)
        with pytest.raises(SolverError):
            m.add_linear({x: 1}, "<", 1)

    def test_negative_coefficients(self):
        m = CpModel()
        x = m.new_int_var(0, 10)
        y = m.new_int_var(0, 10)
        m.add_linear({x: -2, y: 1}, "==", 0)  # y == 2x
        m.add_linear({x: 1}, ">=", 3)
        sol = m.solve()
        assert sol[y.index] == 2 * sol[x.index]
        assert sol[x.index] >= 3

    def test_zero_coefficient_dropped(self):
        m = CpModel()
        x = m.new_int_var(0, 5)
        m.add_linear({x: 0}, "==", 0)  # vacuous
        sol = m.solve()
        assert 0 <= sol[x.index] <= 5

    def test_alldiff_large_enough_domain(self):
        m = CpModel()
        xs = [m.new_int_var(0, 9) for _ in range(10)]
        m.add_all_different(xs)
        sol = m.solve()
        assert sorted(sol[x.index] for x in xs) == list(range(10))

    def test_minimize_with_alldiff(self):
        m = CpModel()
        xs = [m.new_int_var(1, 10) for _ in range(3)]
        m.add_all_different(xs)
        _, obj = m.minimize({x: 1 for x in xs})
        assert obj == 1 + 2 + 3

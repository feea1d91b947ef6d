"""Finite-domain constraint-programming solver (the CP-SAT stand-in).

Supports exactly what the paper's DFF-insertion model (§II-C) needs:

* integer variables with interval domains;
* linear constraints  sum(coeff_i * var_i) <op> rhs  for <=, >=, ==, !=;
* ``AllDifferent`` over a set of variables (eq. 5 of the paper);
* optional linear objective, minimised by iterative bound tightening.

Solving = bounds-consistency propagation + DFS with first-fail variable
order and value enumeration.  Complete on the small models it is given.

Test-side only: the flow plans T1 slots in closed form, and
:mod:`oracles.dff_insertion` solves the same model here to cross-check it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SolverError


class InfeasibleError(SolverError):
    """The model has no feasible solution."""


class SolverLimitError(SolverError):
    """The search hit its node limit before finishing."""


@dataclasses.dataclass(frozen=True)
class IntVar:
    index: int
    lb: int
    ub: int
    name: str


class _Linear:
    """sum coeff*var  <op>  rhs, with op in {<=, >=, ==, !=}."""

    __slots__ = ("terms", "op", "rhs")

    def __init__(self, terms: List[Tuple[int, int]], op: str, rhs: int):
        self.terms = terms
        self.op = op
        self.rhs = rhs

    def variables(self) -> List[int]:
        return [v for v, _ in self.terms]


class _AllDifferent:
    __slots__ = ("vars",)

    def __init__(self, variables: List[int]):
        self.vars = variables

    def variables(self) -> List[int]:
        return list(self.vars)


class CpModel:
    """Build a model, then :meth:`solve` or :meth:`minimize`."""

    def __init__(self) -> None:
        self.vars: List[IntVar] = []
        self.constraints: List[object] = []

    def new_int_var(self, lb: int, ub: int, name: str = "") -> IntVar:
        if lb > ub:
            raise SolverError(f"variable {name!r}: empty domain [{lb},{ub}]")
        v = IntVar(len(self.vars), int(lb), int(ub), name or f"x{len(self.vars)}")
        self.vars.append(v)
        return v

    @staticmethod
    def _terms(coeffs: Dict) -> List[Tuple[int, int]]:
        out: Dict[int, int] = {}
        for k, c in coeffs.items():
            idx = k.index if isinstance(k, IntVar) else int(k)
            out[idx] = out.get(idx, 0) + int(c)
        return [(v, c) for v, c in out.items() if c != 0]

    def add_linear(self, coeffs: Dict, op: str, rhs: int) -> None:
        if op not in ("<=", ">=", "==", "!="):
            raise SolverError(f"unknown operator {op!r}")
        self.constraints.append(_Linear(self._terms(coeffs), op, int(rhs)))

    def add_all_different(self, variables: Sequence[IntVar]) -> None:
        self.constraints.append(
            _AllDifferent([v.index for v in variables])
        )

    # -- solving -----------------------------------------------------------

    def _propagate(
        self, lo: List[int], hi: List[int], watch: List[List[object]]
    ) -> bool:
        """Bounds-consistency fixpoint; False on wipe-out."""
        queue = list(self.constraints)
        in_queue = set(id(c) for c in queue)
        while queue:
            con = queue.pop()
            in_queue.discard(id(con))
            changed_vars: List[int] = []
            if isinstance(con, _Linear):
                if not self._prop_linear(con, lo, hi, changed_vars):
                    return False
            else:
                if not self._prop_alldiff(con, lo, hi, changed_vars):
                    return False
            for v in changed_vars:
                for c2 in watch[v]:
                    if id(c2) not in in_queue:
                        queue.append(c2)
                        in_queue.add(id(c2))
        return True

    @staticmethod
    def _prop_linear(
        con: _Linear, lo: List[int], hi: List[int], changed: List[int]
    ) -> bool:
        terms = con.terms
        # min/max of the sum
        smin = 0
        smax = 0
        for v, c in terms:
            if c > 0:
                smin += c * lo[v]
                smax += c * hi[v]
            else:
                smin += c * hi[v]
                smax += c * lo[v]
        rhs = con.rhs
        op = con.op
        if op == "!=":
            # only prunes when all but fixed; check violation on singleton
            if smin == smax and smin == rhs:
                return False
            if len(terms) == 1:
                v, c = terms[0]
                if c != 0 and rhs % c == 0:
                    forbidden = rhs // c
                    if lo[v] == forbidden:
                        lo[v] += 1
                        changed.append(v)
                    if hi[v] == forbidden:
                        hi[v] -= 1
                        changed.append(v)
                    if lo[v] > hi[v]:
                        return False
            return True
        check_le = op in ("<=", "==")
        check_ge = op in (">=", "==")
        if check_le and smin > rhs:
            return False
        if check_ge and smax < rhs:
            return False
        for v, c in terms:
            if c == 0:
                continue
            # bound tightening for each variable
            if c > 0:
                rest_min = smin - c * lo[v]
                rest_max = smax - c * hi[v]
                if check_le:
                    new_hi = (rhs - rest_min) // c
                    if new_hi < hi[v]:
                        hi[v] = new_hi
                        changed.append(v)
                if check_ge:
                    new_lo = math.ceil((rhs - rest_max) / c)
                    if new_lo > lo[v]:
                        lo[v] = new_lo
                        changed.append(v)
            else:
                rest_min = smin - c * hi[v]
                rest_max = smax - c * lo[v]
                if check_le:
                    new_lo = math.ceil((rhs - rest_min) / c)
                    if new_lo > lo[v]:
                        lo[v] = new_lo
                        changed.append(v)
                if check_ge:
                    new_hi = math.floor((rhs - rest_max) / c)
                    if new_hi < hi[v]:
                        hi[v] = new_hi
                        changed.append(v)
            if lo[v] > hi[v]:
                return False
        return True

    @staticmethod
    def _prop_alldiff(
        con: _AllDifferent, lo: List[int], hi: List[int], changed: List[int]
    ) -> bool:
        # value elimination from fixed variables + simple Hall check
        fixed: Dict[int, int] = {
            v: lo[v] for v in con.vars if lo[v] == hi[v]
        }
        values = set(fixed.values())
        if len(values) != len(fixed):
            return False
        for v in con.vars:
            if lo[v] == hi[v]:
                continue
            while lo[v] in values and lo[v] <= hi[v]:
                lo[v] += 1
                changed.append(v)
            while hi[v] in values and hi[v] >= lo[v]:
                hi[v] -= 1
                changed.append(v)
            if lo[v] > hi[v]:
                return False
        # pigeonhole over the union of tight domains
        n = len(con.vars)
        union_lo = min(lo[v] for v in con.vars)
        union_hi = max(hi[v] for v in con.vars)
        if union_hi - union_lo + 1 < n:
            return False
        return True

    def _search(
        self,
        lo: List[int],
        hi: List[int],
        watch: List[List[object]],
        node_budget: List[int],
    ) -> Optional[List[int]]:
        if not self._propagate(lo, hi, watch):
            return None
        # pick unfixed var with smallest domain
        best_v = -1
        best_size = None
        for v in range(len(self.vars)):
            size = hi[v] - lo[v]
            if size > 0 and (best_size is None or size < best_size):
                best_size = size
                best_v = v
        if best_v < 0:
            return list(lo)
        for val in range(lo[best_v], hi[best_v] + 1):
            node_budget[0] -= 1
            if node_budget[0] < 0:
                raise SolverLimitError("CP search node limit exceeded")
            lo2 = list(lo)
            hi2 = list(hi)
            lo2[best_v] = hi2[best_v] = val
            res = self._search(lo2, hi2, watch, node_budget)
            if res is not None:
                return res
        return None

    def _watch_lists(self) -> List[List[object]]:
        watch: List[List[object]] = [[] for _ in self.vars]
        for con in self.constraints:
            for v in con.variables():  # type: ignore[attr-defined]
                watch[v].append(con)
        return watch

    def solve(self, node_limit: int = 200_000) -> Dict[int, int]:
        """Find any feasible assignment {var_index: value}."""
        lo = [v.lb for v in self.vars]
        hi = [v.ub for v in self.vars]
        res = self._search(lo, hi, self._watch_lists(), [node_limit])
        if res is None:
            raise InfeasibleError("CP model infeasible")
        return {i: res[i] for i in range(len(self.vars))}

    def minimize(
        self, coeffs: Dict, node_limit: int = 200_000
    ) -> Tuple[Dict[int, int], int]:
        """Minimise a linear objective; returns (assignment, objective).

        Each bound-tightening step gets its own *node_limit*; running out
        raises :class:`SolverLimitError` rather than returning an
        unproven incumbent.
        """
        terms = self._terms(coeffs)

        def value(assign: Dict[int, int]) -> int:
            return sum(c * assign[v] for v, c in terms)

        best = self.solve(node_limit=node_limit)
        best_obj = value(best)
        while True:
            trial = CpModel()
            trial.vars = self.vars
            trial.constraints = list(self.constraints)
            trial.constraints.append(_Linear(terms, "<=", best_obj - 1))
            try:
                cand = trial.solve(node_limit=node_limit)
            except InfeasibleError:
                return best, best_obj
            best = cand
            best_obj = value(cand)

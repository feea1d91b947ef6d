"""CNF construction and Tseitin encoding of logic networks.

Literal convention (DIMACS-like): variables are positive integers; the
literal for variable v is ``v`` (positive phase) or ``-v`` (negated).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import NetworkError
from repro.network.gates import Gate, is_t1_tap
from repro.network.logic_network import CONST0, CONST1, LogicNetwork


class CnfBuilder:
    """Incremental CNF with gate-encoding helpers."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self._true_var: Optional[int] = None

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = list(lits)
        if not clause:
            raise NetworkError("empty clause added (model trivially UNSAT)")
        self.clauses.append(clause)

    def true_literal(self) -> int:
        """A literal constrained to be true (lazily created)."""
        if self._true_var is None:
            self._true_var = self.new_var()
            self.add_clause([self._true_var])
        return self._true_var

    # -- gate encoders -------------------------------------------------------

    def add_and(self, fanins: Sequence[int]) -> int:
        out = self.new_var()
        for f in fanins:
            self.add_clause([-out, f])
        self.add_clause([out] + [-f for f in fanins])
        return out

    def add_or(self, fanins: Sequence[int]) -> int:
        out = self.new_var()
        for f in fanins:
            self.add_clause([out, -f])
        self.add_clause([-out] + list(fanins))
        return out

    def add_xor2(self, a: int, b: int) -> int:
        out = self.new_var()
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])
        return out

    def add_xor(self, fanins: Sequence[int]) -> int:
        acc = fanins[0]
        for f in fanins[1:]:
            acc = self.add_xor2(acc, f)
        return acc

    def add_maj3(self, a: int, b: int, c: int) -> int:
        out = self.new_var()
        # out -> at least two of (a, b, c)
        self.add_clause([-out, a, b])
        self.add_clause([-out, a, c])
        self.add_clause([-out, b, c])
        # two of them -> out
        self.add_clause([out, -a, -b])
        self.add_clause([out, -a, -c])
        self.add_clause([out, -b, -c])
        return out

    # -- network encoding ------------------------------------------------------

    def encode_network(
        self,
        net: LogicNetwork,
        pi_literals: Sequence[int],
    ) -> List[int]:
        """Tseitin-encode *net* on the given PI literals; returns PO literals.

        T1 cells are expanded functionally (taps encode XOR3/MAJ3/OR3 over
        the cell fanins).
        """
        if len(pi_literals) != len(net.pis):
            raise NetworkError("PI literal count mismatch")
        lit: Dict[int, int] = {}
        lit[CONST1] = self.true_literal()
        lit[CONST0] = -self.true_literal()
        for pi, l in zip(net.pis, pi_literals):
            lit[pi] = l
        for node in net.topological_order():
            g = net.gates[node]
            if g in (Gate.CONST0, Gate.CONST1, Gate.PI, Gate.T1_CELL):
                continue
            if is_t1_tap(g):
                a, b, c = (lit[f] for f in net.fanins[net.fanins[node][0]])
                if g is Gate.T1_S:
                    lit[node] = self.add_xor([a, b, c])
                elif g is Gate.T1_C:
                    lit[node] = self.add_maj3(a, b, c)
                elif g is Gate.T1_CN:
                    lit[node] = -self.add_maj3(a, b, c)
                elif g is Gate.T1_Q:
                    lit[node] = self.add_or([a, b, c])
                else:  # T1_QN
                    lit[node] = -self.add_or([a, b, c])
                continue
            fins = [lit[f] for f in net.fanins[node]]
            if g is Gate.BUF:
                lit[node] = fins[0]
            elif g is Gate.NOT:
                lit[node] = -fins[0]
            elif g is Gate.AND:
                lit[node] = self.add_and(fins)
            elif g is Gate.NAND:
                lit[node] = -self.add_and(fins)
            elif g is Gate.OR:
                lit[node] = self.add_or(fins)
            elif g is Gate.NOR:
                lit[node] = -self.add_or(fins)
            elif g is Gate.XOR:
                lit[node] = self.add_xor(fins)
            elif g is Gate.XNOR:
                lit[node] = -self.add_xor(fins)
            elif g is Gate.MAJ3:
                lit[node] = self.add_maj3(*fins)
            else:  # pragma: no cover - exhaustive
                raise NetworkError(f"cannot encode gate {g.name}")
        return [lit[po] for po in net.pos]


def to_dimacs(num_vars: int, clauses: Sequence[Sequence[int]]) -> str:
    """Render in DIMACS CNF format (for debugging / external solvers)."""
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"

"""Combinational equivalence checking (CEC).

Three engines, used in escalation order by :func:`check_equivalence`:

1. exhaustive bit-parallel simulation when the PI count is small —
   *chunked* so the peak big-int width stays bounded and the first
   differing chunk terminates the run early;
2. random bit-parallel simulation (fast falsification witness).  The
   driver runs it through :func:`signature_equivalence`: per-PO
   *simulation signatures* are compared over a few wide rounds (the
   same total stimulus bits as the seed's many narrow rounds, at a
   fraction of the per-round traversal overhead, with the round width
   capped so the per-network value arrays stay within a fixed memory
   budget); the first differing PO pair yields a witness and settles
   the check with no SAT call at all;
3. SAT on the XOR miter over every PO pair (complete; uses
   :mod:`repro.sat`) — reached only when no signature differed and the
   two networks do not strash to the same structure.

The T1 flow uses CEC after every replacement pass: T1 taps evaluate their
XOR3/MAJ3/OR3 semantics in simulation, and the CNF encoder expands them
the same way, so mapped and original networks are compared directly.

:func:`~repro.network.simulation.simulate` caches its grouped schedule
per mutation epoch, so all rounds of a CEC run share one traversal of
each (unchanged) network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import EquivalenceError, NetworkError
from repro.network.cleanup import strash
from repro.network.logic_network import LogicNetwork
from repro.network.simulation import (
    exhaustive_pi_patterns,
    exhaustive_pi_patterns_chunk,
    random_patterns,
    simulate_pos,
)

EXHAUSTIVE_PI_LIMIT = 14
#: narrowest round the signature engine halves its width down to
DEFAULT_RANDOM_WIDTH = 4096
#: the signature engine spends the same 64 Ki stimulus bits as the seed
#: (16 rounds x 4096) in two wide rounds — ~8x fewer full-network
#: traversals for identical falsification power
DEFAULT_SIGNATURE_WIDTH = 32768
DEFAULT_SIGNATURE_ROUNDS = 2
#: per-network budget for the simulation value arrays (bits): the round
#: width is halved until ``width * num_nodes`` fits, trading traversal
#: count back for bounded peak memory on very large networks (the same
#: concern EXHAUSTIVE_CHUNK_PIS bounds on the exhaustive path)
SIGNATURE_WIDTH_BUDGET_BITS = 1 << 29
#: peak exhaustive big-int width: 2**12 bits = 512 bytes per node value
EXHAUSTIVE_CHUNK_PIS = 12


@dataclass
class CecResult:
    """Outcome of a CEC run."""

    equivalent: bool
    method: str
    counterexample: Optional[Dict[str, int]] = None  # pi name/index -> bit

    def __bool__(self) -> bool:
        return self.equivalent


def _check_interfaces(a: LogicNetwork, b: LogicNetwork) -> None:
    if len(a.pis) != len(b.pis):
        raise NetworkError(
            f"PI count mismatch: {len(a.pis)} vs {len(b.pis)}"
        )
    if len(a.pos) != len(b.pos):
        raise NetworkError(
            f"PO count mismatch: {len(a.pos)} vs {len(b.pos)}"
        )


def _extract_cex(
    a: LogicNetwork, pi_vectors: Sequence[int], bit: int
) -> Dict[str, int]:
    cex = {}
    for i, pi in enumerate(a.pis):
        name = a.get_name(pi) or f"pi{i}"
        cex[name] = (pi_vectors[i] >> bit) & 1
    return cex


def signature_equivalence(
    a: LogicNetwork,
    b: LogicNetwork,
    width: int = DEFAULT_SIGNATURE_WIDTH,
    rounds: int = DEFAULT_SIGNATURE_ROUNDS,
    seed: int = 2024,
) -> CecResult:
    """Random CEC through per-PO simulation signatures.

    Complete only as a falsifier: the first differing PO pair yields the
    counterexample.

    The round width is halved (and the round count doubled, preserving
    the total stimulus) until the per-network value arrays fit
    :data:`SIGNATURE_WIDTH_BUDGET_BITS`, so very large networks trade
    traversal savings back for a bounded peak footprint.
    """
    _check_interfaces(a, b)
    num_nodes = max(a.num_nodes(), b.num_nodes(), 1)
    while (
        width > DEFAULT_RANDOM_WIDTH
        and width * num_nodes > SIGNATURE_WIDTH_BUDGET_BITS
    ):
        width //= 2
        rounds *= 2
    for r in range(rounds):
        vecs = random_patterns(len(a.pis), width, seed=seed + r)
        pos_a = simulate_pos(a, vecs, width)
        pos_b = simulate_pos(b, vecs, width)
        for va, vb in zip(pos_a, pos_b):
            diff = va ^ vb
            if diff:
                bit = (diff & -diff).bit_length() - 1
                return CecResult(False, "random", _extract_cex(a, vecs, bit))
    return CecResult(True, "random")


def exhaustive_equivalence(
    a: LogicNetwork,
    b: LogicNetwork,
    chunk_pis: int = EXHAUSTIVE_CHUNK_PIS,
) -> CecResult:
    """Complete CEC by simulating all 2^k input patterns.

    Patterns are simulated in ``2**chunk_pis``-wide chunks: the peak
    big-int width is bounded regardless of the PI count, and the first
    differing chunk short-circuits the remaining ones.
    """
    _check_interfaces(a, b)
    k = len(a.pis)
    if k > EXHAUSTIVE_PI_LIMIT:
        raise NetworkError(f"{k} PIs too many for exhaustive CEC")
    if chunk_pis >= k:
        num_chunks = 1
    else:
        num_chunks = 1 << (k - chunk_pis)
    width = 1 << min(k, chunk_pis)
    for chunk in range(num_chunks):
        if num_chunks == 1:
            vecs = exhaustive_pi_patterns(k)
        else:
            vecs = exhaustive_pi_patterns_chunk(k, chunk_pis, chunk)
        pos_a = simulate_pos(a, vecs, width)
        pos_b = simulate_pos(b, vecs, width)
        for va, vb in zip(pos_a, pos_b):
            diff = va ^ vb
            if diff:
                bit = (diff & -diff).bit_length() - 1
                return CecResult(
                    False, "exhaustive", _extract_cex(a, vecs, bit)
                )
    return CecResult(True, "exhaustive")


def sat_equivalence(
    a: LogicNetwork,
    b: LogicNetwork,
    conflict_limit: int = 2_000_000,
) -> CecResult:
    """Complete CEC via a SAT miter (pairwise PO XOR, ORed)."""
    from repro.sat.cnf import CnfBuilder
    from repro.sat.solver import SatSolver, SatStatus

    _check_interfaces(a, b)
    if not a.pos:
        # no PO pair to differ: vacuously equivalent
        return CecResult(True, "sat")
    builder = CnfBuilder()
    pi_vars = [builder.new_var() for _ in a.pis]
    lits_a = builder.encode_network(a, pi_vars)
    lits_b = builder.encode_network(b, pi_vars)
    diffs = [builder.add_xor2(la, lb) for la, lb in zip(lits_a, lits_b)]
    builder.add_clause(diffs)  # some PO differs
    solver = SatSolver(builder.num_vars, builder.clauses)
    status = solver.solve(conflict_limit=conflict_limit)
    if status is SatStatus.UNSAT:
        return CecResult(True, "sat")
    if status is SatStatus.SAT:
        model = solver.model()
        cex = {}
        for i, pi in enumerate(a.pis):
            name = a.get_name(pi) or f"pi{i}"
            cex[name] = 1 if model[pi_vars[i]] else 0
        return CecResult(False, "sat", cex)
    raise EquivalenceError("SAT CEC hit its conflict limit")


def check_equivalence(
    a: LogicNetwork,
    b: LogicNetwork,
    complete: bool = True,
) -> CecResult:
    """CEC with engine escalation.

    * few PIs -> chunked exhaustive (complete);
    * otherwise the signature engine first (cheap falsification, wide
      rounds); when no signature differs and ``complete`` asks for a
      proof, equal strashed structure (method ``"strash"``: equal
      :meth:`~repro.network.logic_network.LogicNetwork.structural_hash`
      means equal functions) or else the SAT miter over every PO pair.

    For large networks with ``complete=True`` the SAT call may be slow;
    flows use ``complete=False`` plus heavy random simulation, and the
    test-suite runs complete checks on down-scaled circuits.
    """
    _check_interfaces(a, b)
    if len(a.pis) <= EXHAUSTIVE_PI_LIMIT:
        return exhaustive_equivalence(a, b)
    res = signature_equivalence(a, b)
    if not res.equivalent or not complete:
        return res
    if strash(a)[0].structural_hash() == strash(b)[0].structural_hash():
        return CecResult(True, "strash")
    return sat_equivalence(a, b)


def assert_equivalent(a: LogicNetwork, b: LogicNetwork, **kwargs) -> None:
    """Raise :class:`EquivalenceError` (with witness) unless a == b."""
    res = check_equivalence(a, b, **kwargs)
    if not res.equivalent:
        raise EquivalenceError(
            f"networks differ (method={res.method})", res.counterexample
        )

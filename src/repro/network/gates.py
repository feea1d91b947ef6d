"""Gate alphabet of the logic network.

The network is a DAG of single-output nodes.  Most gates are ordinary
Boolean functions; the T1 flip-flop is represented by one clocked
``T1_CELL`` node (fanins = the three leaves a, b, c) plus *tap* nodes that
select one of its synchronous outputs:

====== ===========================
tap    function of (a, b, c)
====== ===========================
T1_S   XOR3  (sum, read out by R)
T1_C   MAJ3  (carry)
T1_Q   OR3
T1_CN  NOT MAJ3  (C* + inverter)
T1_QN  NOT OR3   (Q* + inverter)
====== ===========================

Tap nodes have exactly one fanin (the T1_CELL) and zero area: the physical
cell already provides the distinct output ports; only splitters for
fanout > 1 are charged at mapping time.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Sequence, Tuple

from repro.errors import GateArityError


class Gate(enum.Enum):
    """Every node kind that can appear in a :class:`LogicNetwork`."""

    CONST0 = "const0"
    CONST1 = "const1"
    PI = "pi"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MAJ3 = "maj3"
    T1_CELL = "t1_cell"
    T1_S = "t1_s"
    T1_C = "t1_c"
    T1_Q = "t1_q"
    T1_CN = "t1_cn"
    T1_QN = "t1_qn"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gate.{self.name}"


#: taps reading one synchronous output of a T1 cell
T1_TAPS: Tuple[Gate, ...] = (Gate.T1_S, Gate.T1_C, Gate.T1_Q, Gate.T1_CN, Gate.T1_QN)

#: dense integer codes for the network kernel: ``GATES_BY_CODE[c]``
#: is the enum member stored as byte ``c`` in ``LogicNetwork``'s gate
#: bytearray, and ``CODE_BY_GATE`` is the inverse.  Codes are the enum's
#: declaration order; they are an in-memory representation detail, never
#: serialized (files and hashes use gate *names*).
GATES_BY_CODE: Tuple[Gate, ...] = tuple(Gate)
CODE_BY_GATE: Dict[Gate, int] = {g: i for i, g in enumerate(GATES_BY_CODE)}

#: code-level sets mirroring the enum-level predicates, for loops that
#: run over the raw gate-code bytearray
T1_TAP_CODES = frozenset(CODE_BY_GATE[g] for g in T1_TAPS)
SOURCE_CODES = frozenset(
    CODE_BY_GATE[g] for g in (Gate.CONST0, Gate.CONST1, Gate.PI)
)

#: gates whose SFQ realisation is clocked (participates in stage assignment)
CLOCKED_GATES = frozenset(
    {
        Gate.NOT,
        Gate.AND,
        Gate.NAND,
        Gate.OR,
        Gate.NOR,
        Gate.XOR,
        Gate.XNOR,
        Gate.MAJ3,
        Gate.T1_CELL,
    }
)

#: allowed fanin counts per gate; ``None`` means "2 or more"
_ARITY: Dict[Gate, object] = {
    Gate.CONST0: (0,),
    Gate.CONST1: (0,),
    Gate.PI: (0,),
    Gate.BUF: (1,),
    Gate.NOT: (1,),
    Gate.AND: None,
    Gate.NAND: None,
    Gate.OR: None,
    Gate.NOR: None,
    Gate.XOR: None,
    Gate.XNOR: None,
    Gate.MAJ3: (3,),
    Gate.T1_CELL: (3,),
    Gate.T1_S: (1,),
    Gate.T1_C: (1,),
    Gate.T1_Q: (1,),
    Gate.T1_CN: (1,),
    Gate.T1_QN: (1,),
}

#: maximum fanin count accepted for variadic gates
MAX_VARIADIC_ARITY = 8


def check_arity(gate: Gate, n_fanins: int) -> None:
    """Raise :class:`GateArityError` if *gate* cannot take *n_fanins* inputs."""
    allowed = _ARITY[gate]
    if allowed is None:
        if not 2 <= n_fanins <= MAX_VARIADIC_ARITY:
            raise GateArityError(
                f"{gate.name} takes 2..{MAX_VARIADIC_ARITY} fanins, got {n_fanins}"
            )
    elif n_fanins not in allowed:  # type: ignore[operator]
        raise GateArityError(
            f"{gate.name} takes {allowed} fanins, got {n_fanins}"
        )


def _maj3(a: int, b: int, c: int) -> int:
    return (a & b) | (a & c) | (b & c)


def _reduce_and(values: Sequence[int], mask: int) -> int:
    out = mask
    for v in values:
        out &= v
    return out


def _reduce_or(values: Sequence[int]) -> int:
    out = 0
    for v in values:
        out |= v
    return out


def _reduce_xor(values: Sequence[int]) -> int:
    out = 0
    for v in values:
        out ^= v
    return out


def eval_gate(gate: Gate, fanin_values: Sequence[int], mask: int = 1) -> int:
    """Evaluate *gate* bitwise over words of fanin values.

    ``mask`` is the all-ones word for the chosen width, so the function
    works equally for single bits (mask=1), truth tables (mask=2**2**k - 1)
    and 64-bit simulation words (mask=2**64 - 1).

    T1 taps evaluate the corresponding function of the *cell's* fanins;
    callers must pass the cell fanin values (3 words) rather than the tap's
    single structural fanin.  ``T1_CELL`` itself has no single-output value
    and must not be evaluated directly.
    """
    v = fanin_values
    if gate is Gate.CONST0:
        return 0
    if gate is Gate.CONST1:
        return mask
    if gate is Gate.BUF:
        return v[0]
    if gate is Gate.NOT:
        return v[0] ^ mask
    if gate is Gate.AND:
        return _reduce_and(v, mask)
    if gate is Gate.NAND:
        return _reduce_and(v, mask) ^ mask
    if gate is Gate.OR:
        return _reduce_or(v)
    if gate is Gate.NOR:
        return _reduce_or(v) ^ mask
    if gate is Gate.XOR:
        return _reduce_xor(v)
    if gate is Gate.XNOR:
        return _reduce_xor(v) ^ mask
    if gate is Gate.MAJ3:
        return _maj3(v[0], v[1], v[2])
    if gate is Gate.T1_S:
        return _reduce_xor(v)
    if gate is Gate.T1_C:
        return _maj3(v[0], v[1], v[2])
    if gate is Gate.T1_Q:
        return _reduce_or(v)
    if gate is Gate.T1_CN:
        return _maj3(v[0], v[1], v[2]) ^ mask
    if gate is Gate.T1_QN:
        return _reduce_or(v) ^ mask
    raise GateArityError(f"gate {gate.name} has no single-output evaluation")


#: logic function of each T1 tap in terms of a plain gate
TAP_FUNCTION: Dict[Gate, Gate] = {
    Gate.T1_S: Gate.XOR,
    Gate.T1_C: Gate.MAJ3,
    Gate.T1_Q: Gate.OR,
    Gate.T1_CN: Gate.NOR,  # NOT MAJ3 has no plain gate; handled specially
    Gate.T1_QN: Gate.NOR,
}


def is_t1_tap(gate: Gate) -> bool:
    """True for the five T1 output-tap gate kinds."""
    return gate in T1_TAPS


GATE_SYMBOLS: Dict[Gate, str] = {
    Gate.CONST0: "0",
    Gate.CONST1: "1",
    Gate.PI: "pi",
    Gate.BUF: "buf",
    Gate.NOT: "!",
    Gate.AND: "&",
    Gate.NAND: "!&",
    Gate.OR: "|",
    Gate.NOR: "!|",
    Gate.XOR: "^",
    Gate.XNOR: "!^",
    Gate.MAJ3: "maj",
    Gate.T1_CELL: "T1",
    Gate.T1_S: "T1.S",
    Gate.T1_C: "T1.C",
    Gate.T1_Q: "T1.Q",
    Gate.T1_CN: "T1.C*",
    Gate.T1_QN: "T1.Q*",
}

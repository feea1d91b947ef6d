"""ISCAS ``.bench`` format reader / writer.

The format of the ISCAS-85/89 benchmark distributions::

    INPUT(a)
    OUTPUT(y)
    y = AND(a, b)

Combinational subset only (no DFF on read).  T1 blocks are expanded
functionally on write, like the BLIF writer.  A referenced constant is
written as one definition without fanins, ``GND = CONST0()`` or
``VDD = CONST1()`` (renamed ``GND_1``, ... when a PI or PO already
holds the name), and read back as the network's constant node.  Other
nodes are written ``n<id>`` (and a T1 CN tap's helper ``n<id>_m``), or
``n<id>_1``, ... when a PI or another node's PO already holds that name.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, TextIO, Tuple

from repro.errors import GateArityError, ParseError
from repro.io.resolve import definition_order
from repro.network.gates import Gate, check_arity, is_t1_tap
from repro.network.logic_network import CONST0, CONST1, LogicNetwork
from repro.network.traversal import topological_order

_GATE_BY_NAME = {
    "AND": Gate.AND,
    "NAND": Gate.NAND,
    "OR": Gate.OR,
    "NOR": Gate.NOR,
    "XOR": Gate.XOR,
    "XNOR": Gate.XNOR,
    "NOT": Gate.NOT,
    "BUF": Gate.BUF,
    "BUFF": Gate.BUF,
    "MAJ": Gate.MAJ3,
    "MAJ3": Gate.MAJ3,
}

_NAME_BY_GATE = {
    Gate.AND: "AND",
    Gate.NAND: "NAND",
    Gate.OR: "OR",
    Gate.NOR: "NOR",
    Gate.XOR: "XOR",
    Gate.XNOR: "XNOR",
    Gate.NOT: "NOT",
    Gate.BUF: "BUFF",
    Gate.MAJ3: "MAJ3",
}

#: definition ops that name a constant node instead of adding a gate
_CONST_BY_NAME = {"CONST0": CONST0, "CONST1": CONST1}

_LINE_RE = re.compile(
    r"^\s*(?P<out>[\w.\[\]]+)\s*=\s*(?P<op>\w+)\s*\((?P<ins>[^)]*)\)\s*$"
)


def write_bench(net: LogicNetwork, fh: TextIO) -> None:
    """Write the network in ISCAS .bench syntax (T1 expanded)."""
    po_names = [n or f"po{i}" for i, n in enumerate(net.po_names)]
    used = set(net.pos)
    for node in net.nodes():
        used.update(net.fanins[node])
    # names a generated one must avoid: the PIs' and the PO aliases' (a
    # PO named like its driver's n<id> needs no alias)
    claimed = {net.get_name(pi) for pi in net.pis} | {
        name for po, name in zip(net.pos, po_names) if name != f"n{po}"
    }

    def fresh(name: str) -> str:
        """*name*, or the first free *name*_<k> when it is claimed."""
        if name in claimed:
            k = 1
            while f"{name}_{k}" in claimed:
                k += 1
            name = f"{name}_{k}"
        return name

    const_names: Dict[int, str] = {}
    const_lines: List[str] = []
    for op, base in (("CONST0", "GND"), ("CONST1", "VDD")):
        if _CONST_BY_NAME[op] in used:
            name = fresh(base)
            const_names[_CONST_BY_NAME[op]] = name
            const_lines.append(f"{name} = {op}()\n")

    def name_of(node: int) -> str:
        n = net.get_name(node)
        if n and node in net.pis:
            return n
        if node in const_names:
            return const_names[node]
        return fresh(f"n{node}")

    fh.write(f"# {net.name}\n")
    for pi in net.pis:
        fh.write(f"INPUT({name_of(pi)})\n")
    for name in po_names:
        fh.write(f"OUTPUT({name})\n")
    fh.writelines(const_lines)

    for node in topological_order(net):
        g = net.gates[node]
        if g in (Gate.PI, Gate.CONST0, Gate.CONST1, Gate.T1_CELL):
            continue
        out = name_of(node)
        if is_t1_tap(g):
            cell = net.fanins[node][0]
            a, b, c = (name_of(f) for f in net.fanins[cell])
            if g is Gate.T1_S:
                fh.write(f"{out} = XOR({a}, {b}, {c})\n")
            elif g is Gate.T1_C:
                fh.write(f"{out} = MAJ3({a}, {b}, {c})\n")
            elif g is Gate.T1_CN:
                maj = fresh(f"{out}_m")
                fh.write(f"{maj} = MAJ3({a}, {b}, {c})\n")
                fh.write(f"{out} = NOT({maj})\n")
            elif g is Gate.T1_Q:
                fh.write(f"{out} = OR({a}, {b}, {c})\n")
            else:
                fh.write(f"{out} = NOR({a}, {b}, {c})\n")
            continue
        ins = ", ".join(name_of(f) for f in net.fanins[node])
        fh.write(f"{out} = {_NAME_BY_GATE[g]}({ins})\n")
    # alias POs onto their driver names (an output named like its driver
    # needs no alias)
    for po, name in zip(net.pos, po_names):
        if name != name_of(po):
            fh.write(f"{name} = BUFF({name_of(po)})\n")


def dumps_bench(net: LogicNetwork) -> str:
    """:func:`write_bench` into a string."""
    import io

    buf = io.StringIO()
    write_bench(net, buf)
    return buf.getvalue()


def read_bench(fh: TextIO) -> LogicNetwork:
    """Parse a combinational .bench file (definitions in any order).

    The network takes its name from a leading ``# <name>`` line (the
    header :func:`write_bench` emits; ISCAS files open the same way), or
    is called ``bench``.
    """
    net = LogicNetwork("bench")
    inputs: List[Tuple[int, str]] = []
    defs: List[Tuple[int, str, List[str]]] = []
    gates: List[Optional[Gate]] = []
    consts: Dict[int, int] = {}  # definition index -> CONST0 / CONST1
    outputs: List[str] = []

    leading = True  # no non-blank line read yet
    for lineno, raw in enumerate(fh, start=1):
        if leading and raw.strip():
            leading = False
            header = raw.strip()
            if header.startswith("#") and len(header[1:].split()) == 1:
                net.name = header[1:].strip()
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("INPUT(") and line.endswith(")"):
            inputs.append((lineno, line[line.index("(") + 1 : -1].strip()))
            continue
        if upper.startswith("OUTPUT(") and line.endswith(")"):
            outputs.append(line[line.index("(") + 1 : -1].strip())
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ParseError(f"cannot parse line {line!r}", lineno)
        op = m.group("op").upper()
        if op == "DFF":
            raise ParseError("sequential .bench not supported", lineno)
        ins = [t.strip() for t in m.group("ins").split(",") if t.strip()]
        if op in _CONST_BY_NAME:
            if ins:
                raise ParseError(f"{op} takes no fanins", lineno)
            consts[len(defs)] = _CONST_BY_NAME[op]
            gate = None  # the definition names a constant node, not a gate
        else:
            gate = _GATE_BY_NAME.get(op)
            if gate is None:
                raise ParseError(f"unknown gate {op!r}", lineno)
        defs.append((lineno, m.group("out"), ins))
        gates.append(gate)

    order = definition_order(inputs, defs)
    signals: Dict[str, int] = {name: net.add_pi(name) for _l, name in inputs}
    # one bulk append in dependency order: a gate's id is its batch slot
    base = net.num_nodes()
    batch: List[int] = []
    for i in order:
        const = consts.get(i)
        if const is None:
            signals[defs[i][1]] = base + len(batch)
            batch.append(i)
        else:
            signals[defs[i][1]] = const
    try:
        net.add_gates_bulk(
            [(gates[i], [signals[name] for name in defs[i][2]]) for i in batch]
        )
    except GateArityError as exc:  # the batch is atomic: find the line
        for i in batch:
            try:
                check_arity(gates[i], len(defs[i][2]))
            except GateArityError as bad:
                raise ParseError(str(bad), defs[i][0]) from exc
        raise

    for name in outputs:
        if name not in signals:
            raise ParseError(f"undefined output {name!r}")
        net.add_po(signals[name], name)
    return net


def loads_bench(text: str) -> LogicNetwork:
    """:func:`read_bench` from a string."""
    import io

    return read_bench(io.StringIO(text))

"""BLIF (Berkeley Logic Interchange Format) reader / writer.

Supports the combinational subset: ``.model``, ``.inputs``, ``.outputs``,
``.names`` (PLA-style cover) and ``.end``.  Covers are converted to AND/OR
/NOT structures on read; on write, every gate is emitted as its canonical
cover.  T1 blocks are expanded functionally on write (BLIF has no
multi-output cells), so a written-then-read network is logically — not
structurally — equivalent.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.errors import ParseError
from repro.io.resolve import definition_order
from repro.network.gates import Gate, is_t1_tap
from repro.network.logic_network import CONST0, CONST1, LogicNetwork
from repro.network.traversal import topological_order


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

_COVERS: Dict[Gate, str] = {}


def _cover_lines(gate: Gate, arity: int) -> List[str]:
    """PLA cover of one gate (input rows + output value)."""
    if gate is Gate.BUF:
        return ["1 1"]
    if gate is Gate.NOT:
        return ["0 1"]
    if gate is Gate.AND:
        return ["1" * arity + " 1"]
    if gate is Gate.NAND:
        return [
            "-" * i + "0" + "-" * (arity - i - 1) + " 1" for i in range(arity)
        ]
    if gate is Gate.OR:
        return [
            "-" * i + "1" + "-" * (arity - i - 1) + " 1" for i in range(arity)
        ]
    if gate is Gate.NOR:
        return ["0" * arity + " 1"]
    if gate in (Gate.XOR, Gate.XNOR):
        rows = []
        want = 1 if gate is Gate.XOR else 0
        for bits in range(1 << arity):
            ones = bin(bits).count("1")
            if ones % 2 == want:
                row = "".join(
                    "1" if (bits >> i) & 1 else "0" for i in range(arity)
                )
                rows.append(row + " 1")
        return rows
    if gate is Gate.MAJ3:
        return ["11- 1", "1-1 1", "-11 1"]
    raise ParseError(f"gate {gate.name} has no BLIF cover")


def write_blif(net: LogicNetwork, fh: TextIO) -> None:
    """Write the network as combinational BLIF."""
    def name_of(node: int) -> str:
        n = net.get_name(node)
        if n and node in net.pis:
            return n
        return f"n{node}"

    fh.write(f".model {net.name}\n")
    fh.write(".inputs " + " ".join(name_of(pi) for pi in net.pis) + "\n")
    po_names = [
        po_name or f"po{idx}" for idx, po_name in enumerate(net.po_names)
    ]
    fh.write(".outputs " + " ".join(po_names) + "\n")

    live = set(topological_order(net))
    emitted_consts: List[int] = []

    def const_line(node: int) -> None:
        if node in emitted_consts:
            return
        emitted_consts.append(node)
        if node == CONST1:
            fh.write(f".names n{CONST1}\n1\n")
        else:
            fh.write(f".names n{CONST0}\n")

    used = set()
    for node in live:
        used.update(net.fanins[node])
    used.update(net.pos)
    for c in (CONST0, CONST1):
        if c in used:
            const_line(c)

    for node in topological_order(net):
        g = net.gates[node]
        if g in (Gate.PI, Gate.CONST0, Gate.CONST1):
            continue
        if g is Gate.T1_CELL:
            continue  # taps carry the functions
        if is_t1_tap(g):
            cell = net.fanins[node][0]
            a, b, c = (name_of(f) for f in net.fanins[cell])
            out = name_of(node)
            if g is Gate.T1_S:
                rows = _cover_lines(Gate.XOR, 3)
            elif g is Gate.T1_C:
                rows = _cover_lines(Gate.MAJ3, 3)
            elif g is Gate.T1_CN:
                rows = ["00- 1", "0-0 1", "-00 1"]
            elif g is Gate.T1_Q:
                rows = _cover_lines(Gate.OR, 3)
            else:  # T1_QN
                rows = _cover_lines(Gate.NOR, 3)
            fh.write(f".names {a} {b} {c} {out}\n")
            for row in rows:
                fh.write(row + "\n")
            continue
        fins = " ".join(name_of(f) for f in net.fanins[node])
        fh.write(f".names {fins} {name_of(node)}\n")
        for row in _cover_lines(g, len(net.fanins[node])):
            fh.write(row + "\n")

    # alias POs onto their driver names (an output named like its driver
    # needs no alias)
    for po, po_name in zip(net.pos, po_names):
        if po_name != name_of(po):
            fh.write(f".names {name_of(po)} {po_name}\n1 1\n")
    fh.write(".end\n")


def dumps_blif(net: LogicNetwork) -> str:
    """:func:`write_blif` into a string."""
    import io

    buf = io.StringIO()
    write_blif(net, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def _tokens(fh: TextIO) -> Iterable[Tuple[int, List[str]]]:
    """Logical lines (backslash continuation, comments stripped)."""
    pending = ""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = pending + line
        pending = ""
        if line.strip():
            yield lineno, line.split()
    if pending.strip():
        yield -1, pending.split()


def read_blif(fh: TextIO) -> LogicNetwork:
    """Parse combinational BLIF into a :class:`LogicNetwork`."""
    model_name = "top"
    inputs: List[Tuple[int, str]] = []
    outputs: List[str] = []
    covers: List[Tuple[int, List[str], str, List[str]]] = []
    state_rows: Optional[Tuple[List[str], str, List[str], int]] = None

    def flush_cover() -> None:
        nonlocal state_rows
        if state_rows is not None:
            ins, out, rows, lineno = state_rows
            covers.append((lineno, ins, out, rows))
            state_rows = None

    for lineno, toks in _tokens(fh):
        head = toks[0]
        if head.startswith("."):
            if head != ".names":
                flush_cover()
            if head == ".model":
                model_name = toks[1] if len(toks) > 1 else "top"
            elif head == ".inputs":
                inputs.extend((lineno, name) for name in toks[1:])
            elif head == ".outputs":
                outputs.extend(toks[1:])
            elif head == ".names":
                flush_cover()
                if len(toks) < 2:
                    raise ParseError(".names needs at least an output", lineno)
                state_rows = (toks[1:-1], toks[-1], [], lineno)
            elif head == ".end":
                flush_cover()
                break
            elif head in (".latch", ".subckt", ".gate"):
                raise ParseError(f"{head} is not supported (combinational only)", lineno)
            # silently ignore other dot-directives
        else:
            if state_rows is None:
                raise ParseError(f"unexpected token {head!r}", lineno)
            state_rows[2].append(" ".join(toks))
    flush_cover()

    order = definition_order(
        inputs, [(lineno, out, ins) for lineno, ins, out, _rows in covers]
    )
    net = LogicNetwork(model_name)
    signals: Dict[str, int] = {name: net.add_pi(name) for _l, name in inputs}

    def build_cover(
        lineno: int, ins: List[str], rows: List[str]
    ) -> int:
        if not ins:
            # constant: a single "1" row means const1, empty means const0
            if any(r.strip() == "1" for r in rows):
                return CONST1
            return CONST0
        terms: List[int] = []
        out_value = None
        for row in rows:
            parts = row.split()
            if len(parts) != 2:
                raise ParseError(f"malformed cover row {row!r}", lineno)
            pattern, value = parts
            if len(pattern) != len(ins):
                raise ParseError(
                    f"pattern width {len(pattern)} != {len(ins)} inputs", lineno
                )
            if out_value is None:
                out_value = value
            elif out_value != value:
                raise ParseError("mixed-polarity cover rows", lineno)
            lits: List[int] = []
            for ch, name in zip(pattern, ins):
                if ch == "1":
                    lits.append(signals[name])
                elif ch == "0":
                    lits.append(net.add_not(signals[name]))
                elif ch != "-":
                    raise ParseError(f"bad cover character {ch!r}", lineno)
            if not lits:
                terms.append(CONST1)
            elif len(lits) == 1:
                terms.append(lits[0])
            else:
                while len(lits) > 2:
                    merged = [
                        net.add_and(*lits[i : i + 2])
                        if len(lits[i : i + 2]) == 2
                        else lits[i]
                        for i in range(0, len(lits), 2)
                    ]
                    lits = merged
                terms.append(net.add_and(*lits) if len(lits) == 2 else lits[0])
        if not rows:
            return CONST0
        if len(terms) == 1:
            node = terms[0]
        else:
            while len(terms) > 2:
                terms = [
                    net.add_or(*terms[i : i + 2])
                    if len(terms[i : i + 2]) == 2
                    else terms[i]
                    for i in range(0, len(terms), 2)
                ]
            node = net.add_or(*terms)
        if out_value == "0":
            node = net.add_not(node)
        return node

    for i in order:
        lineno, ins, out, rows = covers[i]
        signals[out] = build_cover(lineno, ins, rows)

    for name in outputs:
        if name not in signals:
            raise ParseError(f"undefined output {name!r}")
        net.add_po(signals[name], name)
    return net


def loads_blif(text: str) -> LogicNetwork:
    """:func:`read_blif` from a string."""
    import io

    return read_blif(io.StringIO(text))

"""Definition order for netlist readers whose files may define signals
out of order (``.bench`` gate lines, BLIF ``.names`` covers).

:func:`definition_order` is Kahn's algorithm over the definitions,
taking the earliest definition in file order among those that are
ready.  A file already in topological order therefore comes back in
file order, so readers build it node for node as written.  One scan
plus one release per fanin reference keeps it linear in the file
(times a log factor for out-of-order releases), where repeated
fixpoint passes over the pending definitions were quadratic.

It also rejects what a netlist must not contain, with the line number:
an input declared twice, a signal defined twice or defined over an
input, a reference to a signal nothing defines, and a combinational
loop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from repro.errors import ParseError


def definition_order(
    inputs: Sequence[Tuple[int, str]],
    defs: Sequence[Tuple[int, str, Sequence[str]]],
) -> List[int]:
    """Indices of *defs* in dependency order, file order among ready ones.

    *inputs* holds ``(line, name)`` per declared primary input and
    *defs* ``(line, output name, input names)`` per definition.  Raises
    :class:`~repro.errors.ParseError` for a duplicate input, a
    redefinition, an undefined signal or a loop.
    """
    declared: Dict[str, int] = {}
    for line, name in inputs:
        if name in declared:
            raise ParseError(
                f"input {name!r} declared twice (first on line {declared[name]})",
                line,
            )
        declared[name] = line
    where: Dict[str, int] = {}
    for i, (line, out, _ins) in enumerate(defs):
        if out in declared:
            raise ParseError(
                f"{out!r} redefines the input declared on line {declared[out]}",
                line,
            )
        if out in where:
            raise ParseError(
                f"{out!r} defined twice (first on line {defs[where[out]][0]})",
                line,
            )
        where[out] = i

    available = set(declared)
    order: List[int] = []
    # a waiting definition counts its unresolved fanin references and is
    # listed once per reference under the signal it waits for
    waiting = [0] * len(defs)
    waiters: Dict[str, List[int]] = {}
    for i, (line, out, ins) in enumerate(defs):
        need = 0
        for name in ins:
            if name not in available:
                if name not in where:
                    raise ParseError(f"undefined signal {name!r}", line)
                waiters.setdefault(name, []).append(i)
                need += 1
        if need:
            waiting[i] = need
            continue
        order.append(i)
        available.add(out)
        released = waiters.pop(out, None)
        if released is None:
            continue
        # everything this releases was scanned earlier, so it comes next,
        # smallest index first, together with what it releases in turn
        ready: List[int] = []
        while True:
            for w in released:
                waiting[w] -= 1
                if not waiting[w]:
                    heapq.heappush(ready, w)
            if not ready:
                break
            j = heapq.heappop(ready)
            order.append(j)
            out_j = defs[j][1]
            available.add(out_j)
            released = waiters.pop(out_j, ())
    if len(order) < len(defs):
        _raise_loop(defs, where, available)
    return order


def _raise_loop(defs, where: Dict[str, int], available: set) -> None:
    """Raise a :class:`ParseError` naming one loop among the unresolved."""
    i = next(i for i, d in enumerate(defs) if d[1] not in available)
    path: Dict[int, int] = {}
    while i not in path:
        path[i] = len(path)
        # every unresolved definition waits on some unresolved definition
        i = next(where[n] for n in defs[i][2] if n not in available)
    loop = [j for j, pos in path.items() if pos >= path[i]]
    names = " -> ".join(defs[j][1] for j in loop + loop[:1])
    raise ParseError(f"combinational loop: {names}", defs[loop[0]][0])

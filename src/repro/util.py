"""Small shared runtime utilities."""

from __future__ import annotations

import sys


def getsizeof_deep_rows(containers, items) -> int:
    """Byte size of flat row storage: container overhead + per-item size.

    Helper for ``nbytes()``-style reporting: sums ``sys.getsizeof`` over
    the given top-level *containers* and over every element of the
    *items* iterables (tuples/ints of flat parallel-array stores).
    Shared leaf integers inside tuples are intentionally not counted —
    they are interned node ids shared across rows.
    """
    gs = sys.getsizeof
    total = sum(gs(c) for c in containers)
    for it in items:
        for x in it:
            total += gs(x)
    return total


__all__ = ["getsizeof_deep_rows"]

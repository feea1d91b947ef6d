"""NPN canonisation of small Boolean functions.

Two functions are NPN-equivalent when one can be obtained from the other
by Negating inputs, Permuting inputs and/or Negating the output.  The
canonical representative is the numerically smallest truth table reachable
by any of the ``2^k * k! * 2`` transforms.

The mapping kernel makes :func:`npn_canon` / :func:`match_against` *table
lookups* for k <= 3: the complete function space is tiny (256 entries for
k = 3), so the canonical bits and the producing transform of **every**
function are precomputed once per process and the per-call cost collapses
to a list index.  k = 4 keeps the enumerating search but memoises it per
function (65536 functions exist; only the ones actually seen pay).

The tables are tested against an exhaustive search over every
transform (Boolean matching per De Micheli, ref. [9] of the paper),
which lives in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TruthTableError
from repro.network.truth_table import TruthTable


@dataclass(frozen=True)
class NpnTransform:
    """Input permutation + input polarity + output polarity.

    Applying the transform to a function f yields
    ``g(x) = f(rho(x)) ^ output_neg`` via :meth:`apply`, where bit ``i``
    of ``rho(x)`` is ``x[perm[i]] ^ input_neg[i]``.
    """

    perm: Tuple[int, ...]
    input_neg: int
    output_neg: bool

    def apply(self, tt: TruthTable) -> TruthTable:
        out = tt.negate_vars(self.input_neg).permute(self.perm)
        return ~out if self.output_neg else out

    def apply_bits(self, bits: int, num_vars: int) -> int:
        """:meth:`apply` on a raw table int (no TruthTable construction)."""
        out = 0
        for row, src in enumerate(_row_map(self.perm, self.input_neg)):
            if (bits >> src) & 1:
                out |= 1 << row
        if self.output_neg:
            out ^= (1 << (1 << num_vars)) - 1
        return out

    def after(self, inner: "NpnTransform") -> "NpnTransform":
        """The composite transform applying *inner* first, then ``self``.

        ``self.after(inner).apply(f) == self.apply(inner.apply(f))`` for
        every function f of the right arity.
        """
        p1, n1 = inner.perm, inner.input_neg
        p2, n2 = self.perm, self.input_neg
        perm = tuple(p2[p1[i]] for i in range(len(p1)))
        neg = 0
        for i in range(len(p1)):
            if ((n1 >> i) & 1) ^ ((n2 >> p1[i]) & 1):
                neg |= 1 << i
        return NpnTransform(perm, neg, self.output_neg ^ inner.output_neg)

    def inverse(self) -> "NpnTransform":
        """The transform undoing ``self``:
        ``self.inverse().apply(self.apply(f)) == f``."""
        k = len(self.perm)
        inv_perm = [0] * k
        neg = 0
        for i in range(k):
            inv_perm[self.perm[i]] = i
            if (self.input_neg >> i) & 1:
                neg |= 1 << self.perm[i]
        return NpnTransform(tuple(inv_perm), neg, self.output_neg)


@lru_cache(maxsize=None)
def _row_map(perm: Tuple[int, ...], input_neg: int) -> Tuple[int, ...]:
    """``row -> source row`` table of one input transform."""
    k = len(perm)
    out = []
    for row in range(1 << k):
        src = 0
        for i in range(k):
            if (row >> perm[i]) & 1:
                src |= 1 << i
        out.append(src ^ input_neg)
    return tuple(out)


@lru_cache(maxsize=None)
def _all_transforms(k: int) -> Tuple[NpnTransform, ...]:
    out = []
    for perm in itertools.permutations(range(k)):
        for neg in range(1 << k):
            for oneg in (False, True):
                out.append(NpnTransform(perm, neg, oneg))
    return tuple(out)


# -- precomputed canonisation tables (k <= 3) --------------------------------

@lru_cache(maxsize=None)
def _npn_table(k: int) -> Tuple[Tuple[int, int], ...]:
    """``bits -> (canonical bits, index into _all_transforms(k))``.

    Built by sweeping every transform over the complete function space in
    ``_all_transforms`` order with a strict-minimum update, so both the
    canonical form *and the chosen transform* are identical to what the
    enumerating oracle returns.
    """
    size = 1 << (1 << k)
    mask = size - 1
    best = list(range(size))
    best_tf = [0] * size
    first = True
    for idx, tf in enumerate(_all_transforms(k)):
        rows = _row_map(tf.perm, tf.input_neg)
        oneg = mask if tf.output_neg else 0
        for bits in range(size):
            cand = 0
            for row, src in enumerate(rows):
                if (bits >> src) & 1:
                    cand |= 1 << row
            cand ^= oneg
            if first or cand < best[bits]:
                best[bits] = cand
                best_tf[bits] = idx
        first = False
    return tuple(zip(best, best_tf))


@lru_cache(maxsize=65536)
def _npn4_canon(bits: int) -> Tuple[int, int]:
    """Lazily memoised enumeration for k = 4 (too large to tabulate)."""
    best: Optional[int] = None
    best_idx = 0
    for idx, tf in enumerate(_all_transforms(4)):
        cand = tf.apply_bits(bits, 4)
        if best is None or cand < best:
            best = cand
            best_idx = idx
    assert best is not None
    return best, best_idx


def npn_canon(tt: TruthTable) -> Tuple[TruthTable, NpnTransform]:
    """Canonical representative and the transform that produces it.

    ``transform.apply(tt) == canonical``.  Table lookup for k <= 3,
    memoised enumeration for k = 4; bit-identical to the exhaustive
    first-minimum search over :func:`_all_transforms` (including the
    chosen transform).
    """
    k = tt.num_vars
    if k > 4:
        raise TruthTableError("NPN canonisation supported up to 4 variables")
    if k == 4:
        bits, idx = _npn4_canon(tt.bits)
    else:
        bits, idx = _npn_table(k)[tt.bits]
    return TruthTable(bits, k), _all_transforms(k)[idx]


def warm_tables(max_k: int = 3) -> None:
    """Force-build the precomputed canonisation tables for ``k <= max_k``.

    The tables are lazy module-level ``lru_cache`` entries, so every
    fresh process pays the build cost on its first :func:`npn_canon`
    call.  Long-lived worker processes (the ``run_many`` pool, the
    service daemon's warm pool) call this once at startup instead.
    """
    for k in range(min(max_k, 3) + 1):
        _npn_table(k)


def npn_equivalent(a: TruthTable, b: TruthTable) -> bool:
    """True when the two functions share an NPN class."""
    if a.num_vars != b.num_vars:
        return False
    return npn_canon(a)[0].bits == npn_canon(b)[0].bits


def match_against(
    target: TruthTable, candidate: TruthTable
) -> Optional[NpnTransform]:
    """Find a transform with ``tf.apply(candidate) == target`` if one exists.

    Computed through the canonical forms: when both functions canonise to
    the same table, ``canon_tf(target)^-1 . canon_tf(candidate)`` is a
    witness.  The returned transform is always valid but need not be the
    first one an exhaustive search would enumerate.
    """
    if target.num_vars != candidate.num_vars:
        return None
    canon_t, tf_t = npn_canon(target)
    canon_c, tf_c = npn_canon(candidate)
    if canon_t.bits != canon_c.bits:
        return None
    return tf_t.inverse().after(tf_c)


def npn_class_members(tt: TruthTable) -> frozenset:
    """All function tables (as ints) in the NPN class of *tt*.

    For k <= 3 this is the inverse of the canonisation table: every
    function whose precomputed canonical form equals *tt*'s.
    """
    k = tt.num_vars
    if k <= 3:
        canon = npn_canon(tt)[0].bits
        table = _npn_table(k)
        return frozenset(
            bits for bits in range(1 << (1 << k)) if table[bits][0] == canon
        )
    return frozenset(
        tf.apply_bits(tt.bits, k) for tf in _all_transforms(k)
    )


def npn_class_size(tt: TruthTable) -> int:
    """Number of distinct functions in the NPN class of *tt*."""
    return len(npn_class_members(tt))

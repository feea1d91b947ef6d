"""The exhaustive NPN search — the canonisation tables' oracle."""

from typing import Optional, Tuple

from repro.errors import TruthTableError
from repro.network.npn import NpnTransform, _all_transforms
from repro.network.truth_table import TruthTable

def npn_canon_enum(tt: TruthTable) -> Tuple[TruthTable, NpnTransform]:
    """First-minimum canonical form over every transform, in enumeration order."""
    if tt.num_vars > 4:
        raise TruthTableError("NPN canonisation supported up to 4 variables")
    best: Optional[TruthTable] = None
    best_tf: Optional[NpnTransform] = None
    for tf in _all_transforms(tt.num_vars):
        cand = tf.apply(tt)
        if best is None or cand.bits < best.bits:
            best = cand
            best_tf = tf
    assert best is not None and best_tf is not None
    return best, best_tf


def match_against_enum(
    target: TruthTable, candidate: TruthTable
) -> Optional[NpnTransform]:
    """The first transform, in enumeration order, mapping *candidate* to *target*."""
    if target.num_vars != candidate.num_vars:
        return None
    for tf in _all_transforms(target.num_vars):
        if tf.apply(candidate).bits == target.bits:
            return tf
    return None

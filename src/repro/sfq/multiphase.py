"""Multiphase clocking algebra (eq. 1 of the paper and the DFF-count rules).

An n-phase system has clock signals t_0..t_{n-1}; a clocked element g has
phase φ(g) and epoch S(g), combined into the *stage*

    σ(g) = n · S(g) + φ(g).

Throughput is one wave per cycle: every clocked element fires once per
cycle at its phase.  A pulse produced by a driver at stage σ_d must be
consumed within n stages, otherwise the *next* wave's pulse catches up —
hence a producer→consumer stage gap g needs ⌈g/n⌉ − 1 path-balancing DFFs
(evenly reachable chain positions σ_d + n, σ_d + 2n, ...).  With n = 1
this degenerates to the classical g − 1 full path balancing.  A net's
shared chain and its consumers' taps are placed by
:func:`repro.core.dff_insertion.insert_dffs`.
"""

from __future__ import annotations

import math

from repro.errors import TimingError


def stage_of(epoch: int, phase: int, n_phases: int) -> int:
    """σ = n·S + φ (eq. 1)."""
    if not 0 <= phase < n_phases:
        raise TimingError(f"phase {phase} out of range for n={n_phases}")
    return n_phases * epoch + phase


def phase_of(stage: int, n_phases: int) -> int:
    """φ(g) from a stage."""
    return stage % n_phases


def epoch_of(stage: int, n_phases: int) -> int:
    """S(g) from a stage."""
    return stage // n_phases


def depth_cycles(max_stage: int, n_phases: int) -> int:
    """Circuit depth in clock cycles: ⌈σ_max / n⌉."""
    return math.ceil(max_stage / n_phases) if max_stage > 0 else 0


def edge_dffs(gap: int, n_phases: int) -> int:
    """Path-balancing DFFs on one producer→consumer edge of stage gap *gap*."""
    if gap < 1:
        raise TimingError(f"stage gap must be >= 1, got {gap}")
    return (gap - 1) // n_phases

"""The CP model of eq. 5 — the closed-form T1 slot planner's cross-check."""

from typing import Sequence

from oracles.cpsat import CpModel, InfeasibleError
from repro.core.dff_insertion import T1InputPlan
from repro.errors import TimingError


def build_t1_input_model(t1_stage: int, fanin_stages: Sequence[int], n: int):
    """The T1 staggering model (eq. 5) on the CP solver.

    Slot variables live in the freshness window, are pairwise distinct
    (eq. 5) and >= their driver stage; the ``k`` variables count chain
    DFFs, whose sum :func:`plan_t1_inputs_cp` minimises (the paper's
    CP-SAT formulation).  Returns ``(model, slot_vars, k_vars)``.
    """
    lo = max(0, t1_stage - n)
    hi = t1_stage - 1
    if hi < lo:
        raise TimingError("empty T1 freshness window")
    model = CpModel()
    slot_vars = []
    k_vars = []
    for i, sd in enumerate(fanin_stages):
        if sd > hi:
            raise TimingError(f"fanin {i} at {sd} cannot precede T1 at {t1_stage}")
        slot = model.new_int_var(max(lo, sd), hi, name=f"slot{i}")
        # k_i = chain length; n*k_i >= slot_i - sd and minimisation make
        # k_i == ceil((slot_i - sd) / n) without any reification
        k = model.new_int_var(0, n + 2, name=f"k{i}")
        model.add_linear({k: n, slot: -1}, ">=", -sd)
        slot_vars.append(slot)
        k_vars.append(k)
    model.add_all_different(slot_vars)
    return model, slot_vars, k_vars


def plan_t1_inputs_cp(
    t1_stage: int, fanin_stages: Sequence[int], n: int
) -> T1InputPlan:
    """:func:`build_t1_input_model` minimised on the CP solver.

    Cross-checks :func:`repro.core.dff_insertion.plan_t1_inputs`.
    """
    model, slot_vars, k_vars = build_t1_input_model(t1_stage, fanin_stages, n)
    try:
        values, _ = model.minimize({k: 1 for k in k_vars})
    except InfeasibleError as exc:
        raise TimingError(f"CP model infeasible: {exc}") from exc
    slots = tuple(values[v.index] for v in slot_vars)
    dffs = tuple(values[v.index] for v in k_vars)
    return T1InputPlan(slots=slots, dffs=dffs)  # type: ignore[arg-type]

"""Optimisation substrate: a finite-domain CP solver.

:class:`CpModel` replaces Google OR-Tools' CP-SAT in the paper's flow.
The flow itself plans T1 input slots in closed form
(:func:`repro.core.dff_insertion.plan_t1_inputs`); the CP formulation
of eq. 5 (:func:`repro.core.dff_insertion.plan_t1_inputs_cp`) is kept
as its cross-check.
"""

from repro.solvers.cpsat import CpModel, IntVar

__all__ = ["CpModel", "IntVar"]

"""repro — reproduction of "Unleashing the Power of T1-Cells in SFQ
Arithmetic Circuits" (DATE 2024).

Top-level convenience re-exports; see subpackages for the full API:

* :mod:`repro.pipeline` — **primary API**: composable Pass/Pipeline
  flows and the ``run_many`` batch executor
* :mod:`repro.network` — logic-network kernel (mockturtle replacement)
* :mod:`repro.sat` — the SAT engine behind complete CEC (stdlib only:
  the package has no runtime dependency)
* :mod:`repro.sfq` — SFQ technology substrate and pulse-level simulator
* :mod:`repro.core` — T1 detection / phase assignment / DFF insertion
  algorithms
* :mod:`repro.circuits` — benchmark circuit generators
* :mod:`repro.io` — BLIF / bench / dot
"""

from repro.network import Gate, LogicNetwork, TruthTable

__version__ = "5.0.0"

__all__ = ["Gate", "LogicNetwork", "TruthTable", "__version__"]


def __getattr__(name):
    if name in ("Pipeline", "FlowContext", "run_many", "run_table"):
        from repro import pipeline

        return getattr(pipeline, name)
    if name == "benchmark_registry":
        from repro.circuits import registry

        return registry.benchmark_registry
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class.  Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class NetworkError(ReproError):
    """Malformed or inconsistently used logic network."""


class GateArityError(NetworkError):
    """A gate was created with an unsupported number of fanins."""


class CycleError(NetworkError):
    """The network contains a combinational cycle."""


class SimulationError(ReproError):
    """Invalid simulation request (wrong vector width, unknown node...)."""


class TruthTableError(ReproError):
    """Invalid truth-table construction or operation."""


class ParseError(ReproError):
    """A netlist file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SolverError(ReproError):
    """Base class for optimisation-solver errors."""


class MappingError(ReproError):
    """Technology mapping failed (unsupported gate, missing cell...)."""


class PipelineError(ReproError):
    """Invalid pipeline composition or use (unknown pass name, duplicate
    pass, artefact read before the pass that produces it has run...)."""


class TimingError(ReproError):
    """A multiphase timing rule is violated (stage gaps, freshness...)."""


class HazardError(TimingError):
    """The pulse-level simulator detected a data hazard.

    Raised when two pulses overlap on one input within a clock window or a
    cell consumes a pulse belonging to the wrong wave.
    """


class ServiceError(ReproError):
    """A flow-service request failed (bad job spec, unknown job, worker
    crash/timeout, backpressure rejection, transport failure...).

    ``status`` carries the HTTP status code when the error crossed the
    wire (0 for purely local failures).
    """

    def __init__(self, message: str, status: int = 0):
        self.status = status
        super().__init__(message)


class FaultPlanError(ReproError):
    """A ``repro.faults`` plan string could not be parsed."""


class FaultInjected(ReproError):
    """An injected fault fired at a named fault point.

    Raised by fault points whose failure mode is "this operation
    errors" (cache access, batch collection, solver search...).  The
    resilience layers are expected to handle it exactly like the real
    failure it stands in for; seeing it escape to a caller means a
    recovery path is missing.
    """

    def __init__(self, point: str, detail: str = ""):
        self.point = point
        message = f"injected fault at {point!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class EquivalenceError(ReproError):
    """Two networks that must be equivalent are not (includes witness)."""

    def __init__(self, message: str, counterexample: dict | None = None):
        self.counterexample = counterexample
        super().__init__(message)

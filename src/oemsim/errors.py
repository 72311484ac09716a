"""Exception types and warnings shared across the simulator."""


class SimulationError(Exception):
    """Base class for physics-domain failures."""


class StaticInstabilityError(SimulationError):
    """Coulomb softening exceeds the mechanical restoring force (K <= 0)."""


class InvariantViolationError(SimulationError):
    """An internal numerical invariant failed (e.g. the steady-state residual)."""


class SingularResponseError(SimulationError):
    """Response denominator vanishes or the sideband system is near-singular."""

    def __init__(self, message, delta=None):
        if delta is not None:
            message = f"{message} (delta = {delta!r})"
        super().__init__(message)
        self.delta = delta


class MechanicalPoleError(SimulationError):
    """Second-resonator susceptibility vanishes exactly.

    Only possible for gamma2 = 0 at delta = omega2; use gamma2 > 0.
    """


class GridTooCoarseError(SimulationError):
    """Adjacent phase samples jump by >= pi; the detuning grid is too coarse."""

    def __init__(self, message, interval=None):
        if interval is not None:
            message = f"{message} (interval delta = [{interval[0]!r}, {interval[1]!r}])"
        super().__init__(message)
        self.interval = interval


class UndefinedPhaseError(SimulationError):
    """|t_p| is too small for the phase (and its derivative) to be defined."""


class IntegrationError(SimulationError):
    """Adaptive integrator failed (step-size underflow, stiffness)."""


class DivergenceError(IntegrationError):
    """Trajectory left the finite domain (e.g. unstable branch)."""

    def __init__(self, message, time=None):
        if time is not None:
            message = f"{message} (t = {time!r})"
        super().__init__(message)
        self.time = time


class InsufficientDataError(SimulationError):
    """Demodulation window shorter than one beat period."""


class ConfigError(SimulationError):
    """Configuration text could not be parsed or violates an invariant."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PerturbativeRegimeWarning(UserWarning):
    """Probe amplitude is not small against the pump; linear response is suspect."""


class TrajectoryConfigWarning(UserWarning):
    """Trajectory settings below recommended minima (results may be biased)."""


# Per-point status of a batch (`steady`, `response`, a sweep's status column):
# OK, or the index here of the point's first failure.
OK = 0
STATUS_ERRORS = (None, StaticInstabilityError, InvariantViolationError,
                 MechanicalPoleError, SingularResponseError, UndefinedPhaseError)

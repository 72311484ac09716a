"""Probe response of an optomechanical cavity Coulomb-coupled to a second resonator.

Core pipeline: a self-consistent steady state (`solve_steady_state`), the
closed-form sideband amplitude and transmission (`response`), an
independent linear-system oracle (`linsys`), a full nonlinear time-domain
oracle (`timedomain`), and a parallel sweep engine with a CLI (`sweep`,
`cli`).
"""

__version__ = "0.1.0"

from .config import SweepAxis, SweepSpec, parse_config, parse_config_file, serialize_config
from .errors import (
    ConfigError,
    DivergenceError,
    GridTooCoarseError,
    InsufficientDataError,
    IntegrationError,
    InvariantViolationError,
    MechanicalPoleError,
    SimulationError,
    SingularResponseError,
    StaticInstabilityError,
    UndefinedPhaseError,
)
from .linsys import SidebandSolution, build_linear_system, solve_sidebands
from .params import (
    CavityParams,
    CouplingParams,
    DriveParams,
    MechanicalMode,
    SystemParams,
)
from .presets import get_preset
from .response import (
    ResponseSample,
    group_delay,
    phase_spectrum,
    sideband_amplitude,
    transmission,
    transmission_maxima,
)
from .steady import OperatingPoint, photon_number_roots, solve_steady_state, solve_steady_states
from .sweep import SweepResult, emit_csv, run_sweep
from .timedomain import (
    DemodResult,
    Trajectory,
    TrajectoryConfig,
    demodulate,
    integrate,
    probe_response,
)

__all__ = [
    "__version__",
    "CavityParams",
    "ConfigError",
    "CouplingParams",
    "DemodResult",
    "DivergenceError",
    "DriveParams",
    "GridTooCoarseError",
    "InsufficientDataError",
    "IntegrationError",
    "InvariantViolationError",
    "MechanicalMode",
    "MechanicalPoleError",
    "OperatingPoint",
    "ResponseSample",
    "SidebandSolution",
    "SimulationError",
    "SingularResponseError",
    "StaticInstabilityError",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "Trajectory",
    "TrajectoryConfig",
    "UndefinedPhaseError",
    "build_linear_system",
    "demodulate",
    "emit_csv",
    "get_preset",
    "group_delay",
    "integrate",
    "parse_config",
    "parse_config_file",
    "phase_spectrum",
    "photon_number_roots",
    "probe_response",
    "run_sweep",
    "serialize_config",
    "sideband_amplitude",
    "solve_sidebands",
    "solve_steady_state",
    "solve_steady_states",
    "transmission",
    "transmission_maxima",
]

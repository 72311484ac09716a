"""Probe response of an optomechanical cavity Coulomb-coupled to a second resonator.

Core pipeline: a self-consistent steady state (`solve_steady_state`), the
closed-form sideband amplitude and transmission (`response`), an
independent linear-system oracle (`linsys`), a full nonlinear time-domain
oracle (`timedomain`), and a parallel sweep engine with a CLI (`sweep`,
`cli`).  Each name in `__all__` is imported from its module on first use
(PEP 562), so ``import oemsim`` alone loads no submodule and no numpy.
"""
import importlib

__version__ = "0.1.0"

# each export, by the module that defines it
_EXPORTS = {
    "config": ("SweepAxis", "SweepSpec", "parse_config", "parse_config_file", "serialize_config"),
    "errors": ("ConfigError", "DivergenceError", "GridTooCoarseError", "InsufficientDataError",
               "IntegrationError", "InvariantViolationError", "MechanicalPoleError", "SimulationError",
               "SingularResponseError", "StaticInstabilityError", "UndefinedPhaseError"),
    "linsys": ("SidebandSolution", "build_linear_system", "solve_sidebands"),
    "params": ("CavityParams", "CouplingParams", "DriveParams", "MechanicalMode", "SystemParams"),
    "presets": ("get_preset",),
    "response": ("ResponseSample", "group_delay", "phase_spectrum", "sideband_amplitude", "transmission",
                 "transmission_maxima"),
    "steady": ("OperatingPoint", "photon_number_roots", "solve_steady_state", "solve_steady_states"),
    "sweep": ("SweepResult", "emit_csv", "run_sweep"),
    "timedomain": ("DemodResult", "Trajectory", "TrajectoryConfig", "demodulate", "integrate",
                   "probe_response"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    """Import export ``name`` from its module and keep it in the package namespace."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

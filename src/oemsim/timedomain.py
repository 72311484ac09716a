"""Full nonlinear time-domain oracle: integrate the mean-value equations,
then extract sideband amplitudes by least-squares demodulation.

This is the end-to-end check of the linearized pipeline: both drives run in
the integration, nothing is linearized, and the demodulated coefficients
are compared against the linear-system solve.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    InsufficientDataError,
    IntegrationError,
    PerturbativeRegimeWarning,
    TrajectoryConfigWarning,
)
from .params import SystemParams
from .steady import OperatingPoint, solve_steady_state

TRAJECTORY_COLUMNS = ("t", "q1", "p1", "q2", "p2", "re_c", "im_c")
MIN_BEAT_SAMPLES = 16
RECOMMENDED_RINGDOWNS = 20
RECOMMENDED_BEATS = 32
LEAKAGE_LIMIT = 1e-4
PERTURBATIVE_RATIO = 0.05
# DOP853 gets a quarter of the requested tolerance.  At the full tolerance its
# energy drift on the dissipation-free test system is 31.6 x rtol, above the
# 30 x that tests/test_timedomain.py allows; at a quarter it is 8.8 x, and at
# most 17.2 x from three random initial states (RK45 at the full tolerance:
# 23 x, and 290-375 x from the random states).  It still makes fewer than half
# of RK45's right-hand-side calls.
DOP853_TOLERANCE_FACTOR = 0.25


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration and demodulation settings."""

    duration: float  # s, total integration time
    dt: float  # s, output sampling step
    transient_fraction: float = 0.75  # fraction discarded before demodulation
    # accuracy target of the integration; DOP853 is handed
    # DOP853_TOLERANCE_FACTOR times it as rtol and as the atol scale
    integrator_tolerance: float = 1e-10

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0.5 <= self.transient_fraction <= 0.95:
            raise ValueError("transient_fraction must lie in [0.5, 0.95]")
        if not 0 < self.integrator_tolerance < 1:
            raise ValueError("integrator_tolerance must lie in (0, 1)")


@dataclass(frozen=True)
class Trajectory:
    """Sampled mean-value trajectory (q1, p1, q2, p2, Re c, Im c)."""

    t: np.ndarray
    states: np.ndarray  # shape (len(t), 6)

    @property
    def cavity_field(self) -> np.ndarray:
        return self.states[:, 4] + 1j * self.states[:, 5]

    def dump_csv(self, path) -> None:
        """Full-precision CSV dump, one row per sample."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
            for i in range(len(self.t)):
                row = [self.t[i], *self.states[i]]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class DemodResult:
    """Least-squares projection of the cavity field onto {1, e^-i delta t, e^+i delta t}."""

    cs_est: complex
    c_minus_est: complex  # normalized by the probe amplitude
    c_plus_est: complex
    leakage: float  # residual power fraction outside the three tones

    @property
    def accepted(self) -> bool:
        return self.leakage < LEAKAGE_LIMIT


class _NonFiniteState(Exception):
    def __init__(self, time):
        super().__init__(f"state left the finite domain near t = {time!r}")
        self.time = time


def _rhs_factory(params: SystemParams, op: OperatingPoint, delta: float, eps_p: float):
    """The right-hand side, on Python floats: the state comes in as a numpy array and is unpacked
    with ``tolist``, and every attribute and function it reads is a local."""
    m1, m2 = params.mech1, params.mech2
    m1_mass, m1_gamma, m2_mass, m2_gamma = m1.mass, m1.gamma, m2.mass, m2.gamma
    hbar = params.hbar
    kappa = params.cavity.kappa
    delta_c = op.delta_c
    g_cav = params.coupling.g_cav
    g_c = params.coupling.g_coulomb
    omega_l = params.pump_amplitude()
    w1_sq = m1.omega**2
    w2_sq = m2.omega**2
    isfinite, cos, sin = math.isfinite, math.cos, math.sin

    def rhs(t, y):
        q1, p1, q2, p2, rc, ic = y.tolist()
        if not (
            isfinite(q1) and isfinite(p1) and isfinite(q2)
            and isfinite(p2) and isfinite(rc) and isfinite(ic)
        ):
            raise _NonFiniteState(t)
        c = complex(rc, ic)
        n_c = rc * rc + ic * ic
        dq1 = p1 / m1_mass
        dq2 = p2 / m2_mass
        dp1 = -m1_mass * w1_sq * q1 - hbar * g_c * q2 + hbar * g_cav * n_c - m1_gamma * p1
        dp2 = -m2_mass * w2_sq * q2 - hbar * g_c * q1 - m2_gamma * p2
        dc = (
            -(kappa + 1j * delta_c) * c
            + 1j * g_cav * q1 * c
            + omega_l
            + eps_p * complex(cos(delta * t), -sin(delta * t))
        )
        return (dq1, dp1, dq2, dp2, dc.real, dc.imag)

    return rhs


def integrate(
    params: SystemParams,
    delta: float,
    config: TrajectoryConfig,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the six mean-value equations with both drives active.

    Starts at the analytic operating point (static transient already
    settled) unless an explicit initial state is given.  Adaptive
    Dormand-Prince 8(5,3) (DOP853) with dense output sampled every
    ``config.dt``, run at ``DOP853_TOLERANCE_FACTOR`` times the requested
    ``config.integrator_tolerance``.

    The package's one perturbative check is here, where the probe drives the
    run: a probe/pump ratio above PERTURBATIVE_RATIO warns `PerturbativeRegimeWarning`.
    """
    # imported here so that table commands, which never integrate, do not
    # pay for loading scipy
    from scipy.integrate import solve_ivp

    if delta > 0 and config.dt > (2.0 * math.pi / delta) / MIN_BEAT_SAMPLES:
        raise ValueError(
            f"dt = {config.dt!r} undersamples the beat period; need at least "
            f"{MIN_BEAT_SAMPLES} samples per 2*pi/delta"
        )
    gamma_min = min(params.mech1.gamma, params.mech2.gamma)
    if gamma_min > 0:
        recommended = RECOMMENDED_RINGDOWNS * 2.0 * math.pi / gamma_min
        if config.duration < recommended:
            warnings.warn(
                f"duration {config.duration:.3g} below recommended minimum "
                f"{recommended:.3g} (20 ring-down periods)",
                TrajectoryConfigWarning,
                stacklevel=2,
            )
    omega_l = params.pump_amplitude()
    eps_p = params.probe_amplitude(delta)
    if omega_l > 0 and eps_p / omega_l > PERTURBATIVE_RATIO:
        warnings.warn(
            f"probe/pump ratio {eps_p / omega_l:.3g} exceeds {PERTURBATIVE_RATIO}",
            PerturbativeRegimeWarning,
            stacklevel=2,
        )
    op = solve_steady_state(params)
    if initial_state is None:
        y0 = np.array([op.q1s, 0.0, op.q2s, 0.0, op.cs.real, op.cs.imag])
    else:
        y0 = np.asarray(initial_state, dtype=float)
    t_eval = np.arange(0.0, config.duration + 0.5 * config.dt, config.dt)
    scale = max(np.max(np.abs(y0)), 1.0)
    tolerance = DOP853_TOLERANCE_FACTOR * config.integrator_tolerance
    atol = tolerance * np.maximum(np.abs(y0), 1e-6 * scale)
    try:
        sol = solve_ivp(
            _rhs_factory(params, op, delta, eps_p),
            (0.0, float(t_eval[-1])),
            y0,
            method="DOP853",
            rtol=tolerance,
            atol=atol,
            t_eval=t_eval,
        )
    except _NonFiniteState as exc:
        raise DivergenceError("trajectory diverged", time=exc.time) from None
    if not sol.success:
        last_t = float(sol.t[-1]) if sol.t.size else 0.0
        last_y = sol.y[:, -1] if sol.t.size else y0
        if not np.all(np.isfinite(last_y)):
            raise DivergenceError("trajectory diverged", time=last_t)
        raise IntegrationError(
            f"integrator failed at t = {last_t!r}: {sol.message}; consider a smaller "
            "kappa/omega1 separation or dimensionless units"
        )
    states = sol.y.T.copy()
    if not np.all(np.isfinite(states)):
        bad = int(np.argmax(~np.all(np.isfinite(states), axis=1)))
        raise DivergenceError("trajectory left the finite domain", time=float(sol.t[bad]))
    return Trajectory(t=sol.t.copy(), states=states)


def demodulate(
    trajectory: Trajectory,
    delta: float,
    config: TrajectoryConfig,
    probe_amplitude: float = 1.0,
) -> DemodResult:
    """Project the cavity field onto the three-tone ansatz by least squares.

    The analysis window starts after the transient fraction and is truncated
    to an integer number of beat periods, which makes the projection exact
    for a pure three-tone signal regardless of the window length.
    """
    duration = float(trajectory.t[-1])
    t_start = config.transient_fraction * duration
    keep = trajectory.t >= t_start
    t_kept = trajectory.t[keep]
    if t_kept.size < 4:
        raise InsufficientDataError("no samples left after transient discard")
    beat = 2.0 * math.pi / delta
    span = float(t_kept[-1] - t_kept[0])
    n_periods = int(math.floor(span / beat + 1e-9))
    if n_periods < 1:
        raise InsufficientDataError(
            f"window of {span!r} shorter than one beat period {beat!r}"
        )
    if n_periods < RECOMMENDED_BEATS:
        warnings.warn(
            f"window holds {n_periods} beat periods; {RECOMMENDED_BEATS} recommended",
            TrajectoryConfigWarning,
            stacklevel=2,
        )
    window = t_kept <= t_kept[0] + n_periods * beat * (1.0 + 1e-12)
    t_win = t_kept[window]
    field = trajectory.cavity_field[keep][window]
    basis = np.column_stack(
        [
            np.ones_like(t_win, dtype=complex),
            np.exp(-1j * delta * t_win),
            np.exp(+1j * delta * t_win),
        ]
    )
    coeffs, *_ = np.linalg.lstsq(basis, field, rcond=None)
    residual = field - basis @ coeffs
    total_power = float(np.sum(np.abs(field) ** 2))
    leakage = float(np.sum(np.abs(residual) ** 2) / total_power) if total_power > 0 else 0.0
    return DemodResult(
        cs_est=complex(coeffs[0]),
        c_minus_est=complex(coeffs[1]) / probe_amplitude,
        c_plus_est=complex(coeffs[2]) / probe_amplitude,
        leakage=leakage,
    )


def probe_response(params: SystemParams, delta: float, config: TrajectoryConfig) -> DemodResult:
    """Integrate and demodulate in one step, normalizing by the probe drive."""
    eps_p = params.probe_amplitude(delta)
    if eps_p == 0:
        raise ValueError("probe drive is zero; nothing to demodulate against")
    trajectory = integrate(params, delta, config)
    return demodulate(trajectory, delta, config, probe_amplitude=eps_p)


def hamiltonian_value(params: SystemParams, op_delta_c: float, state: np.ndarray) -> float:
    """Drive-free energy function of one sampled state (conserved when
    kappa = gamma1 = gamma2 = 0 and drives are off)."""
    q1, p1, q2, p2, rc, ic = state
    m1, m2 = params.mech1, params.mech2
    hbar = params.hbar
    n_c = rc * rc + ic * ic
    return (
        p1**2 / (2.0 * m1.mass)
        + 0.5 * m1.mass * m1.omega**2 * q1**2
        + p2**2 / (2.0 * m2.mass)
        + 0.5 * m2.mass * m2.omega**2 * q2**2
        + hbar * op_delta_c * n_c
        - hbar * params.coupling.g_cav * n_c * q1
        + hbar * params.coupling.g_coulomb * q1 * q2
    )

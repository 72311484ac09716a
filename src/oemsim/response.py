"""Closed-form probe response: sideband amplitude, transmission, phase, group delay.

The normalized sideband amplitude is

    X(delta) = [ (kappa - i(Delta+delta)) (chi1 - alpha) - 2 i w1 beta ]
             / [ (Delta^2 - (delta + i kappa)^2) (chi1 - alpha) + 4 Delta w1 beta ]

with chi_j = delta^2 - w_j^2 + i delta gamma_j,
alpha = hbar^2 g_c^2 / (m1 m2 chi2) and beta = hbar g_cav^2 n / (2 m1 w1).
The probe transmission is reported in two conventions: ``paper-corrected``
t_p = 1 - 2 kappa X (a lossless single-port all-pass when the pump is off)
and ``intracavity`` t_p = 2 kappa X (a Lorentzian of half-width kappa when
the pump is off).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    GridTooCoarseError,
    MechanicalPoleError,
    SingularResponseError,
    UndefinedPhaseError,
)
from .params import SystemParams
from .steady import OperatingPoint

CONVENTION_CORRECTED = "paper-corrected"
CONVENTION_INTRACAVITY = "intracavity"
CONVENTIONS = (CONVENTION_CORRECTED, CONVENTION_INTRACAVITY)

SINGULAR_DENOMINATOR_RATIO = 1e-30
PHASE_JUMP_LIMIT = math.pi * (1.0 - 1e-12)
FD_STEP_SCALE = 1e-6
MIN_ABS_T = 1e-12


@dataclass(frozen=True)
class SusceptibilityParts:
    """Ingredients of the response at one probe detuning."""

    alpha: complex  # Coulomb-mediated self-energy of mode 1, s^-2
    beta: float  # radiation-pressure coefficient, s^-2
    chi_m1: complex  # delta^2 - w1^2 + i delta gamma1
    chi_m2: complex  # delta^2 - w2^2 + i delta gamma2


@dataclass(frozen=True)
class ResponseSample:
    """Probe response at one detuning, both conventions attached."""

    delta: float
    delta_bar: float
    X: complex  # normalized sideband amplitude c_-/eps_p, units of seconds
    convention: str
    t_p: complex  # selected convention
    transmission: float  # |t_p|^2
    phase: float  # rad; unwrapped along a grid, principal value pointwise
    t_corrected: complex
    t_intracavity: complex

    @property
    def transmission_corrected(self) -> float:
        return abs(self.t_corrected) ** 2

    @property
    def transmission_intracavity(self) -> float:
        return abs(self.t_intracavity) ** 2


def susceptibility_parts(delta: float, params: SystemParams, op: OperatingPoint) -> SusceptibilityParts:
    """Mechanical susceptibilities and coupling coefficients at one detuning."""
    m1, m2 = params.mech1, params.mech2
    hbar = params.hbar
    chi1 = delta**2 - m1.omega**2 + 1j * delta * m1.gamma
    chi2 = delta**2 - m2.omega**2 + 1j * delta * m2.gamma
    if chi2 == 0:
        raise MechanicalPoleError(
            "second-resonator susceptibility vanishes exactly at this detuning; "
            "use gamma2 > 0"
        )
    alpha = (hbar * params.coupling.g_coulomb) ** 2 / (m1.mass * m2.mass * chi2)
    beta = hbar * params.coupling.g_cav**2 * op.photon_number / (2.0 * m1.mass * m1.omega)
    return SusceptibilityParts(alpha=alpha, beta=beta, chi_m1=chi1, chi_m2=chi2)


def _amplitude_terms(delta, params, op):
    parts = susceptibility_parts(delta, params, op)
    w1 = params.mech1.omega
    kappa = params.cavity.kappa
    big_delta = op.delta_eff
    a_fac = kappa - 1j * (big_delta + delta)
    d_fac = big_delta**2 - (delta + 1j * kappa) ** 2
    b_fac = parts.chi_m1 - parts.alpha
    numerator = a_fac * b_fac - 2j * w1 * parts.beta
    denominator = d_fac * b_fac + 4.0 * big_delta * w1 * parts.beta
    if denominator == 0 or abs(denominator) < SINGULAR_DENOMINATOR_RATIO * abs(numerator):
        raise SingularResponseError("response denominator vanished", delta=delta)
    return parts, a_fac, d_fac, b_fac, numerator, denominator


def sideband_amplitude(delta: float, params: SystemParams, op: OperatingPoint) -> complex:
    """Normalized sideband amplitude X(delta) = c_-/eps_p."""
    _, _, _, _, numerator, denominator = _amplitude_terms(delta, params, op)
    return numerator / denominator


def sideband_amplitude_derivative(delta: float, params: SystemParams, op: OperatingPoint) -> complex:
    """Exact dX/d delta from term-by-term differentiation of the rational form."""
    parts, a_fac, d_fac, b_fac, numerator, denominator = _amplitude_terms(delta, params, op)
    m1, m2 = params.mech1, params.mech2
    w1 = params.mech1.omega
    kappa = params.cavity.kappa
    big_delta = op.delta_eff
    chi1_p = 2.0 * delta + 1j * m1.gamma
    chi2_p = 2.0 * delta + 1j * m2.gamma
    alpha_p = -parts.alpha * chi2_p / parts.chi_m2
    b_p = chi1_p - alpha_p
    a_p = -1j
    d_p = -2.0 * (delta + 1j * kappa)
    num_p = a_p * b_fac + a_fac * b_p
    den_p = d_p * b_fac + d_fac * b_p
    return (num_p * denominator - numerator * den_p) / denominator**2


def _both_conventions(delta, params, op):
    x = sideband_amplitude(delta, params, op)
    two_kappa_x = 2.0 * params.cavity.kappa * x
    return x, 1.0 - two_kappa_x, two_kappa_x


def transmission(
    delta: float,
    params: SystemParams,
    op: OperatingPoint,
    convention: str = CONVENTION_CORRECTED,
) -> ResponseSample:
    """Probe transmission sample at one detuning."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")
    x, t_corr, t_intra = _both_conventions(delta, params, op)
    t_p = t_corr if convention == CONVENTION_CORRECTED else t_intra
    return ResponseSample(
        delta=delta,
        delta_bar=delta - params.mech1.omega,
        X=x,
        convention=convention,
        t_p=t_p,
        transmission=abs(t_p) ** 2,
        phase=math.atan2(t_p.imag, t_p.real),
        t_corrected=t_corr,
        t_intracavity=t_intra,
    )


def wrap_phase_jump(jump: float) -> float:
    """Phase difference shifted by a multiple of 2pi into [-pi, pi]."""
    return jump - 2.0 * math.pi * round(jump / (2.0 * math.pi))


def phase_spectrum(
    deltas: Sequence[float],
    params: SystemParams,
    op: OperatingPoint,
    convention: str = CONVENTION_CORRECTED,
) -> list[ResponseSample]:
    """Response samples over a strictly increasing grid with unwrapped phase.

    The unwrap is a cumulative +-2pi correction seeded at the lowest
    detuning; a corrected adjacent jump at or above pi rejects the grid.
    """
    deltas = list(deltas)
    if len(deltas) < 3:
        raise ValueError("phase spectra need at least 3 grid points")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("detuning grid must be strictly increasing")
    samples = [transmission(d, params, op, convention) for d in deltas]
    unwrapped = [samples[0].phase]
    for i in range(1, len(samples)):
        jump = wrap_phase_jump(samples[i].phase - unwrapped[i - 1])
        if abs(jump) >= PHASE_JUMP_LIMIT:
            raise GridTooCoarseError(
                "phase jump of at least pi between adjacent samples",
                interval=(deltas[i - 1], deltas[i]),
            )
        unwrapped.append(unwrapped[i - 1] + jump)
    return [replace(s, phase=p) for s, p in zip(samples, unwrapped)]


def _t_p_value(delta, params, op, convention):
    _, t_corr, t_intra = _both_conventions(delta, params, op)
    return t_corr if convention == CONVENTION_CORRECTED else t_intra


def group_delay(
    delta0: float,
    params: SystemParams,
    op: OperatingPoint,
    method: str = "analytic",
    convention: str = CONVENTION_CORRECTED,
) -> float:
    """Group delay d arg(t_p) / d omega_p at probe detuning delta0 (seconds).

    ``analytic`` differentiates the closed form exactly; ``finite-difference``
    uses central differences with step 1e-6 * omega1 plus one Richardson
    extrapolation level.  Positive values mean slow light, negative fast.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")
    t_center = _t_p_value(delta0, params, op, convention)
    if abs(t_center) < MIN_ABS_T:
        raise UndefinedPhaseError(f"|t_p| = {abs(t_center)!r} too small at delta = {delta0!r}")
    if method == "analytic":
        dx = sideband_amplitude_derivative(delta0, params, op)
        sign = -1.0 if convention == CONVENTION_CORRECTED else 1.0
        t_prime = sign * 2.0 * params.cavity.kappa * dx
        return (t_prime / t_center).imag
    if method == "finite-difference":
        h = FD_STEP_SCALE * params.mech1.omega

        def slope(step):
            t_plus = _t_p_value(delta0 + step, params, op, convention)
            t_minus = _t_p_value(delta0 - step, params, op, convention)
            return np.angle(t_plus * np.conj(t_minus)) / (2.0 * step)

        coarse = slope(h)
        fine = slope(h / 2.0)
        return (4.0 * fine - coarse) / 3.0
    raise ValueError(f"unknown method {method!r}; use 'analytic' or 'finite-difference'")


def transmission_maxima(
    params: SystemParams,
    op: OperatingPoint,
    convention: str = CONVENTION_CORRECTED,
    half_width: float | None = None,
    points: int = 4001,
) -> list[tuple[float, float]]:
    """Interior strict local maxima of |t_p|^2 over delta_bar in [-hw, +hw].

    Returns (delta_bar, transmission) pairs in ascending delta_bar order;
    endpoints are never counted.
    """
    w1 = params.mech1.omega
    if half_width is None:
        half_width = 0.2 * w1
    grid = np.linspace(w1 - half_width, w1 + half_width, points)
    values = np.empty(points)
    for i, d in enumerate(grid):
        values[i] = transmission(float(d), params, op, convention).transmission
    peaks = []
    for i in range(1, points - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            peaks.append((float(grid[i] - w1), float(values[i])))
    return peaks

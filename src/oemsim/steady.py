"""Self-consistent steady state of the pumped cavity, including bistability.

The intracavity photon number n solves the cubic fixed point
``n (kappa^2 + (Delta_c - a n)^2) = Omega_l^2`` with the radiation-pressure
pull coefficient ``a = hbar g_cav^2 / K``.  All real nonnegative roots are
located; the returned root is the branch continuously connected to n = 0
(unless the detuning is locked, which pins the root with Delta = omega1).
Roots leave as Python floats, so every operating point carries Python
numbers on every branch: the response closed form rounds by operand type,
and a numpy scalar would switch its complex divisions to numpy's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .params import DETUNING_LOCKED, SystemParams

ROOT_IMAG_TOL = 1e-8
ROOT_DEDUPE_TOL = 1e-8
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class OperatingPoint:
    """Static solution the probe response is linearized around; Python numbers on every branch."""

    q1s: float  # m
    q2s: float  # m
    cs: complex  # dimensionless field amplitude
    photon_number: float  # |cs|^2
    delta_eff: float  # rad/s, Delta = Delta_c - g_cav q1s
    delta_c: float  # rad/s, resolved cavity detuning
    branch_count: int  # number of distinct real nonnegative photon roots
    residual: float  # |n (kappa^2 + Delta^2) - Omega^2|


def _fixed_point_residual(n, a, delta_c, kappa, omega_sq):
    return n * (kappa**2 + (delta_c - a * n) ** 2) - omega_sq


def _fixed_point_slope(n, a, delta_c, kappa):
    d = delta_c - a * n
    return kappa**2 + d**2 - 2.0 * a * n * d


def _newton_polish(n, a, delta_c, kappa, omega_sq, iterations=4):
    for _ in range(iterations):
        slope = _fixed_point_slope(n, a, delta_c, kappa)
        if slope == 0.0:
            break
        step = _fixed_point_residual(n, a, delta_c, kappa, omega_sq) / slope
        n_new = n - step
        if n_new == n:
            break
        n = n_new
    return n


def photon_number_roots(a: float, delta_c: float, kappa: float, omega_l: float) -> list[float]:
    """All distinct real nonnegative photon-number roots, ascending, as Python floats."""
    omega_sq = omega_l**2
    if omega_sq == 0.0:
        return [0.0]
    if a == 0.0:
        return [omega_sq / (kappa**2 + delta_c**2)]
    # Scale by the linear-cavity estimate so the companion matrix sees O(1) numbers.
    n0 = omega_sq / (kappa**2 + delta_c**2)
    coeffs = [
        a**2 * n0**3,
        -2.0 * a * delta_c * n0**2,
        (kappa**2 + delta_c**2) * n0,
        -omega_sq,
    ]
    raw = np.roots(coeffs)
    roots = []
    for r in raw:
        if abs(r.imag) >= ROOT_IMAG_TOL * max(1.0, abs(r)):
            continue
        n = r.real * n0
        if n < -ROOT_DEDUPE_TOL * n0:
            continue
        n = _newton_polish(max(n, 0.0), a, delta_c, kappa, omega_sq)
        if n < 0.0:
            continue
        roots.append(float(n))
    roots.sort()
    deduped: list[float] = []
    for n in roots:
        if deduped and abs(n - deduped[-1]) <= ROOT_DEDUPE_TOL * max(1.0, abs(n)):
            continue
        deduped.append(n)
    if not deduped:
        raise InvariantViolationError("photon-number cubic lost all real nonnegative roots")
    return deduped


def solve_steady_state(params: SystemParams) -> OperatingPoint:
    """Solve the self-consistent operating point for the given parameters.

    Raises StaticInstabilityError (via the stiffness check) before any root
    finding when the Coulomb term destabilizes the static problem.
    """
    hbar = params.hbar
    stiffness = params.stiffness()
    kappa = params.cavity.kappa
    omega_l = params.pump_amplitude()
    g_cav = params.coupling.g_cav
    a = hbar * g_cav**2 / stiffness

    if params.cavity.detuning_mode == DETUNING_LOCKED:
        omega1 = params.mech1.omega
        n = omega_l**2 / (kappa**2 + omega1**2)
        delta_c = omega1 + a * n
        delta_eff = omega1
        branch_count = len(photon_number_roots(a, delta_c, kappa, omega_l))
    else:
        delta_c = params.cavity.detuning
        roots = photon_number_roots(a, delta_c, kappa, omega_l)
        n = roots[0]
        delta_eff = delta_c - a * n
        branch_count = len(roots)

    q1s = hbar * g_cav * n / stiffness
    mech2 = params.mech2
    q2s = -hbar * params.coupling.g_coulomb * q1s / (mech2.mass * mech2.omega**2)
    cs = omega_l / (kappa + 1j * delta_eff)
    residual = abs(_fixed_point_residual(n, a, delta_c, kappa, omega_l**2))
    if not residual <= RESIDUAL_TOL * max(omega_l**2, 1.0):
        raise InvariantViolationError(f"steady-state residual {residual!r} out of tolerance")
    return OperatingPoint(
        q1s=q1s,
        q2s=q2s,
        cs=cs,
        photon_number=n,
        delta_eff=delta_eff,
        delta_c=delta_c,
        branch_count=branch_count,
        residual=residual,
    )

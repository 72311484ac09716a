"""Self-consistent steady state of the pumped cavity, including bistability.

The intracavity photon number n solves the cubic fixed point
``n (kappa^2 + (Delta_c - a n)^2) = Omega_l^2`` with the radiation-pressure
pull coefficient ``a = hbar g_cav^2 / K``.  All real nonnegative roots are
located; the returned root is the branch continuously connected to n = 0
(unless the detuning is locked, which pins the root with Delta = omega1).
Roots leave as Python floats, so every operating point carries Python
numbers on every branch: the response closed form rounds by operand type,
and a numpy scalar would switch its complex divisions to numpy's.

The cubics of many operating points are solved together
(`solve_steady_states`): their companion matrices, built as ``numpy.roots``
builds them, go to one ``np.linalg.eigvals`` call per degree.  ``numpy.roots``
is ``eigvals`` of the same matrix, and LAPACK solves a stack matrix by
matrix, so each point's roots are bit-identical to a solve of that point
alone.  The other steps (stiffness, pump, detuning, Newton polish, dedupe,
residual check) run point by point.  A point that fails, a float overflow
included, gets its own error and leaves the others alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolationError, SimulationError
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


def _guarded(step, *args):
    """``step(*args)``, or the SimulationError it raised.

    A float overflow or division by zero (a huge pump, a kappa whose square
    underflows) is an InvariantViolationError of that point.
    """
    try:
        return step(*args)
    except SimulationError as exc:
        return exc
    except (OverflowError, ZeroDivisionError) as exc:
        return InvariantViolationError(f"steady state leaves the float range: {exc.args[-1]}")


def _raise_or_return(result):
    if isinstance(result, SimulationError):
        raise result
    return result


def _companion_row(a, delta_c, kappa, omega_l):
    """The root list when the pump is off or a = 0, else (n0, first companion row).

    The cubic is solved for n / n0, with n0 the linear-cavity estimate, so
    the companion matrix sees O(1) numbers.  The matrix is built as
    ``numpy.roots`` builds it: zero leading coefficients are dropped (an
    underflowed a^2 n0^3 leaves a quadratic), and the constant term -Omega^2
    is nonzero here, so no zero roots are split off.  A non-finite entry
    would make the batched ``eigvals`` call fail for every point, so it is
    this point's InvariantViolationError instead.
    """
    omega_sq = omega_l**2
    if omega_sq == 0.0:
        return [0.0]
    if a == 0.0:
        return [omega_sq / (kappa**2 + delta_c**2)]
    n0 = omega_sq / (kappa**2 + delta_c**2)
    p = [a**2 * n0**3, -2.0 * a * delta_c * n0**2, (kappa**2 + delta_c**2) * n0, -omega_sq]
    while p[0] == 0.0:
        del p[0]
    row = tuple(-c / p[0] for c in p[1:])
    if not all(map(math.isfinite, row)):
        raise InvariantViolationError(f"photon-number companion matrix not finite for {p!r}")
    return n0, row


def _real_nonnegative_roots(raw, n0, a, delta_c, kappa, omega_l):
    """Polished, sorted and deduplicated real nonnegative roots from the eigenvalues of n / n0."""
    omega_sq = omega_l**2
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


def photon_number_roots_batch(cubics) -> list[list[float] | SimulationError]:
    """`photon_number_roots` of each (a, delta_c, kappa, omega_l): its root list or its error.

    The companion matrices of one degree go to one ``eigvals`` call.
    """
    out = [_guarded(_companion_row, *cubic) for cubic in cubics]
    by_degree: dict[int, list[int]] = {}
    for i, staged in enumerate(out):
        if isinstance(staged, tuple):
            by_degree.setdefault(len(staged[1]), []).append(i)
    # the polish runs on numpy scalars, which warn where a float overflows; a
    # point reports its failure through its result, not on stderr
    with np.errstate(all="ignore"):
        for degree, index in by_degree.items():
            companion = np.zeros((len(index), degree, degree))
            if degree:  # else a nonzero constant, which has no roots
                companion[:, 0, :] = [out[i][1] for i in index]
                companion[:, range(1, degree), range(degree - 1)] = 1.0
            for i, raw in zip(index, np.linalg.eigvals(companion)):
                out[i] = _guarded(_real_nonnegative_roots, raw, out[i][0], *cubics[i])
    return out


def photon_number_roots(a: float, delta_c: float, kappa: float, omega_l: float) -> list[float]:
    """All distinct real nonnegative photon-number roots, ascending, as Python floats."""
    return _raise_or_return(photon_number_roots_batch([(a, delta_c, kappa, omega_l)])[0])


class _Pumped(NamedTuple):
    """What a point needs besides its photon-number roots."""

    stiffness: float
    a: float  # radiation-pressure pull hbar g_cav^2 / K
    locked_n: float | None  # photon number pinned by locked detuning
    cubic: tuple[float, float, float, float]  # (a, delta_c, kappa, omega_l)


def _pumped_cubic(params: SystemParams) -> _Pumped:
    """The steps before root finding: stiffness, pump amplitude, pull and detuning."""
    stiffness = params.stiffness()
    kappa = params.cavity.kappa
    omega_l = params.pump_amplitude()
    a = params.hbar * params.coupling.g_cav**2 / stiffness
    if params.cavity.detuning_mode == DETUNING_LOCKED:
        omega1 = params.mech1.omega
        n = omega_l**2 / (kappa**2 + omega1**2)
        return _Pumped(stiffness, a, n, (a, omega1 + a * n, kappa, omega_l))
    return _Pumped(stiffness, a, None, (a, params.cavity.detuning, kappa, omega_l))


def _operating_point(params: SystemParams, pumped: _Pumped, roots) -> OperatingPoint:
    stiffness, a, n, (_, delta_c, kappa, omega_l) = pumped
    roots = _raise_or_return(roots)
    if n is None:
        n = roots[0]
        delta_eff = delta_c - a * n
    else:
        delta_eff = params.mech1.omega
    hbar = params.hbar
    q1s = hbar * params.coupling.g_cav * n / stiffness
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
        branch_count=len(roots),
        residual=residual,
    )


def solve_steady_states(params_seq) -> list[OperatingPoint | SimulationError]:
    """The operating point of each parameter set, or the SimulationError that refused it.

    A point whose Coulomb term destabilizes the static problem gets its
    StaticInstabilityError (from the stiffness) before any root finding.
    """
    params_seq = list(params_seq)
    out = [_guarded(_pumped_cubic, params) for params in params_seq]
    solvable = [i for i, p in enumerate(out) if not isinstance(p, SimulationError)]
    roots = photon_number_roots_batch([out[i].cubic for i in solvable])
    for i, point_roots in zip(solvable, roots):
        out[i] = _guarded(_operating_point, params_seq[i], out[i], point_roots)
    return out


def solve_steady_state(params: SystemParams) -> OperatingPoint:
    """Solve the self-consistent operating point for the given parameters.

    Raises StaticInstabilityError (via the stiffness check) before any root
    finding when the Coulomb term destabilizes the static problem, and
    InvariantViolationError when a float overflows or the residual is off.
    """
    return _raise_or_return(solve_steady_states([params])[0])

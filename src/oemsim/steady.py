"""Self-consistent steady state of the pumped cavity, including bistability.

The intracavity photon number n solves the cubic fixed point
``n (kappa^2 + (Delta_c - a n)^2) = Omega_l^2`` with the radiation-pressure
pull coefficient ``a = hbar g_cav^2 / K``.  At explicit detuning the roots are
eigenvalues of its companion matrix, and the branch continuously connected to
n = 0 is returned.  Locked detuning pins Delta = omega1 and the root n_L =
Omega_l^2 / c, c = kappa^2 + omega1^2, so the cubic is (n - n_L)(a^2 n^2 - a b n
+ c), b = 2 omega1 + a n_L.  It is bistable, q+- = (b +- sqrt(b^2 - 4c)) / 2a real,
from a n_L >= 2 (sqrt(c) - omega1) on (Aspelmeyer, Kippenberg & Marquardt, RMP
86, 1391 (2014)), and is solved in closed form but where it degenerates (a^2 n0^3 = 0).

Float/array contract.  The solve (`_solve`) is written once.  On parameters of
Python floats it solves one point (`solve_steady_state`), and every number it
hands out is a Python float: the response closed form rounds by operand type,
and a numpy scalar would switch its complex divisions to numpy's.  On a batch
(`solve_steady_states`) a swept field has an element per operating point and
any other number one element, which broadcasts, so a step computes it once; it
is no float, on which ``**`` and ``/ 0.0`` raise and abort the batch.  Each
step runs on whole columns: stiffness, pump amplitude, detuning, the companion
rows of the cubic, one ``np.linalg.eigvals`` call per degree on the stacked
matrices, the root filter, a masked Newton polish, the sort and dedupe over
three root slots, the residual check and the kernel inputs.  `arith` rounds
each element as Python rounds the float, each step is elementwise, and LAPACK
solves a stack matrix by matrix (``numpy.roots`` is ``eigvals`` of the same
matrix), so every element of a batch is bit-identical to the solve of its point
alone.  The one-point path stays on Python floats because a size-1 array call
costs several times more.

Failures.  One point raises its SimulationError.  A batch gives each point
a status instead, OK or the code of its first failure (its error's index in
`errors.STATUS_ERRORS`), and a failed point leaves the others alone.  A float
overflow or a division by zero is an InvariantViolationError of its point: on
one point Python raises OverflowError or ZeroDivisionError, and on a batch the
element is flagged where Python would have raised (`arith.power` gives NaN
there).  The one exception is the Newton polish of a root that was not
clamped to 0: an overflow there makes that root NaN and leaves the point alone
(a NaN root counts as a branch, sorts where ``list.sort`` would put it, and as
the lowest root fails the residual check).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .arith import any_of, choose, hypot, isfinite, power, where
from .errors import OK, STATUS_ERRORS, InvariantViolationError, StaticInstabilityError
from .params import DETUNING_LOCKED, SystemParams
from .response import Coefficients, coefficients

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
    branch_count: int  # distinct real nonnegative roots; locked, 3 at a n_L >= 2 (sqrt(kappa^2 + omega1^2) - omega1)
    residual: float  # |n (kappa^2 + Delta^2) - Omega^2|


class SteadyStates(NamedTuple):
    """Operating points of a batch, as `solve_steady_states` gives them; meaningless where status is not OK."""

    status: np.ndarray  # OK, or the errors.STATUS_ERRORS code of the point's first failure
    q1s: np.ndarray
    q2s: np.ndarray
    photon_number: np.ndarray
    delta_eff: np.ndarray
    delta_c: np.ndarray
    branch_count: np.ndarray
    residual: np.ndarray
    coefficients: Coefficients | None  # kernel inputs


class _Refusals:
    """The first failure of each point of a batch; on one point a failure raises at once."""

    def __init__(self, size: int | None):
        self.status = OK if size is None else np.zeros(size, dtype=np.int8)
        self.batch = size is not None

    def refuse(self, bad, error, message):
        """Fail the points where ``bad`` holds with ``error``; ``message()`` words it for one point."""
        if self.batch:
            self.status[(self.status == OK) & bad] = STATUS_ERRORS.index(error)
        elif bad:
            raise error(message())

    def float_range(self, bad):
        """Fail the batch points where Python would have raised OverflowError or ZeroDivisionError."""
        if self.batch:
            self.status[(self.status == OK) & bad] = STATUS_ERRORS.index(InvariantViolationError)

    def power(self, x, exponent, counts=True):
        """``x ** exponent``; an overflow fails the point only where ``counts`` holds, else it is NaN."""
        if self.batch:
            result = power(x, exponent)
            self.float_range(counts & np.isnan(result) & ~np.isnan(x))
            return result
        try:
            return x**exponent
        except OverflowError:
            if counts:
                raise
            return math.nan

    def divide(self, a, b, where=True):
        """``a / b`` at the points marked by ``where``, the only ones whose zero divisor counts."""
        if not self.batch:
            return a / b if where else math.nan
        self.float_range(where & (b == 0.0))
        return a / b


def _newton_polish(n, a, delta_c, kappa_sq, omega_sq, refusals, moving=True, counts=True, iterations=4):
    """Newton steps on the fixed point for the ``moving`` points, which stop where the slope vanishes
    or n stops moving.  An overflow fails a point where ``counts`` holds; elsewhere n turns NaN."""
    for _ in range(iterations):
        if not any_of(moving):
            break
        d = delta_c - a * n
        d_sq = refusals.power(d, 2, counts & moving)
        slope = kappa_sq + d_sq - 2.0 * a * n * d
        n_new = n - (n * (kappa_sq + d_sq) - omega_sq) / where(slope == 0.0, 1.0, slope)
        moving = moving & (slope != 0.0) & (n_new != n)
        n = where(moving, n_new, n)
    return n


def _eigenvalues(p, cubic, closed, refusals):
    """Eigenvalues of each cubic's companion matrix in three slots, NaN past its degree and where ``closed``.

    The cubic is solved for n / n0, with n0 the linear-cavity estimate, so
    the companion matrix sees O(1) numbers.  The matrix is built as
    ``numpy.roots`` builds it: zero leading coefficients are dropped (an
    underflowed a^2 n0^3 leaves a quadratic), and the constant term -Omega^2
    is nonzero here, so no zero roots are split off.  A non-finite entry
    would make the stacked ``eigvals`` call fail for every point, so it fails
    its own point instead.  The matrices of one degree go to one call.
    """
    p0, p1, p2, p3 = p
    lead = where(p0 == 0.0, where(p1 == 0.0, where(p2 == 0.0, 3, 2), 1), 0)
    degree = where(cubic, 3 - lead, 0)
    shifted = [choose(lead + k, (p0, p1, p2, p3, 0.0, 0.0, 0.0)) for k in range(4)]
    pivot = where(shifted[0] == 0.0, 1.0, shifted[0])  # 0 only where there is no cubic
    row = [-c / pivot for c in shifted[1:]]
    finite = True
    for j, entry in enumerate(row):
        finite = finite & where(degree > j, isfinite(entry), True)
    refusals.refuse(
        where(finite, False, cubic),
        InvariantViolationError,
        lambda: f"photon-number companion matrix not finite for {list(p[lead:])!r}",
    )
    solvable = where(finite, where(closed, False, refusals.status == OK), False)
    if not refusals.batch:
        raw = [complex(math.nan, math.nan)] * 3
        if solvable and degree:
            raw[:degree] = np.linalg.eigvals(np.array([[row[:degree], *_SUBDIAGONAL[degree]]]))[0].tolist()
        return raw
    row = np.column_stack([np.broadcast_to(entry, solvable.shape) for entry in row])  # a constant entry too
    raw = np.full((len(row), 3), np.nan, dtype=complex)
    for d in (1, 2, 3):  # degree 0 is a nonzero constant, which has no roots
        index = np.flatnonzero(solvable & (degree == d))
        if index.size:
            raw[index, :d] = _companion_eigenvalues(row[index, :d], d)
    return raw.T


def _companion_eigenvalues(rows, degree: int):
    """Eigenvalues of the stacked companion matrices with first rows ``rows``, in one ``eigvals`` call."""
    companion = np.zeros((len(rows), degree, degree))
    companion[:, 0] = rows
    companion[:, range(1, degree), range(degree - 1)] = 1.0
    return np.linalg.eigvals(companion)


# the rows of a companion matrix below its first
_SUBDIAGONAL = {d: np.eye(d)[:-1].tolist() for d in (1, 2, 3)}


def _locked_roots(a, kappa_sq, n, omega1, c, sqrt):
    """(n_L, q-, q+) of the locked cubic (module docstring), q+- NaN below the threshold; sqrt rounds correctly."""
    r = sqrt(c)
    t = a * n - 2.0 * kappa_sq / (r + omega1)  # b - 2 r, without the cancellation of b^2 - 4c
    s = (2.0 * omega1 + a * n + sqrt(where(t >= 0.0, t, math.nan)) * sqrt(t + 4.0 * r)) / 2.0  # a q+
    return n, c / s / a, s / a  # q- = c / (a^2 q+), which does not cancel


def _photon_number_roots(a, delta_c, kappa_sq, omega_sq, refusals, locked=False):
    """The distinct real nonnegative roots in three slots, ascending, and the mask of the distinct ones.

    The eigenvalues are filtered (real, nonnegative), polished, sorted and
    deduplicated slot by slot, as columns on a batch.
    """
    pumped = omega_sq != 0.0
    cubic = pumped & (a != 0.0)
    linear = kappa_sq + refusals.power(delta_c, 2, pumped)
    n0 = refusals.divide(omega_sq, linear, pumped)
    p = (
        refusals.power(a, 2, cubic) * refusals.power(n0, 3, cubic),
        -2.0 * a * delta_c * refusals.power(n0, 2, cubic),
        linear * n0,
        -omega_sq,
    )
    values, keep = [n0] * 3, [cubic] * 3  # without a cubic, the one root set below
    if any_of(cubic):
        closed = locked and cubic & (p[0] != 0.0)  # locked = (n_L, omega1, c); a degenerate cubic keeps eigvals
        values, keep, raw = [], [], _eigenvalues(p, cubic, closed, refusals)
        closed = where(refusals.status == OK, closed, False)  # a failed point keeps no root
        for r in raw:
            r_abs = hypot(r.real, r.imag)  # NaN past the degree
            kept = where(abs(r.imag) >= ROOT_IMAG_TOL * where(r_abs > 1.0, r_abs, 1.0), False, r_abs == r_abs)
            n = r.real * n0
            if any_of(kept):
                kept = where(n < -ROOT_DEDUPE_TOL * n0, False, kept)
                # an overflow in the polish fails the point for a root clamped to 0; another root turns NaN
                clamped = 0.0 > n
                n = _newton_polish(
                    where(clamped, 0.0, n), a, delta_c, kappa_sq, omega_sq, refusals, kept, clamped
                )
                kept = where(n < 0.0, False, kept)
            values.append(n)
            keep.append(kept)
        if any_of(closed):
            for i, n in enumerate(_locked_roots(a, kappa_sq, *locked, np.sqrt if refusals.batch else math.sqrt)):
                values[i], keep[i] = where(closed, n, values[i]), where(closed, n >= 0.0, keep[i])
    # the root of a linear cavity (a = 0), or none without a pump
    values[0] = where(cubic, values[0], where(pumped, n0, 0.0))
    keep[0] = where(cubic, keep[0], True)
    distinct = keep
    if any_of(keep[1] | keep[2]):
        for i, j in ((0, 1), (1, 2), (0, 1)):  # a stable sort, with the dropped slots last
            swap = keep[j] & where(keep[i], values[j] < values[i], True)
            values[i], values[j] = where(swap, values[j], values[i]), where(swap, values[i], values[j])
            keep[i], keep[j] = where(swap, keep[j], keep[i]), where(swap, keep[i], keep[j])
        distinct, last = [keep[0]], values[0]
        for n, kept in zip(values[1:], keep[1:]):
            duplicate = abs(n - last) <= ROOT_DEDUPE_TOL * where(abs(n) > 1.0, abs(n), 1.0)
            distinct.append(kept & where(duplicate, False, True))
            last = where(distinct[-1], n, last)
    refusals.refuse(
        where(keep[0], False, True),
        InvariantViolationError,
        lambda: "photon-number cubic lost all real nonnegative roots",
    )
    return values, distinct


def _cubic_roots(a, delta_c, kappa, omega_l, refusals):
    """`_photon_number_roots` of the cubic given by (a, delta_c, kappa, omega_l)."""
    omega_sq = refusals.power(omega_l, 2)
    kappa_sq = refusals.power(kappa, 2, omega_sq != 0.0)
    return _photon_number_roots(a, delta_c, kappa_sq, omega_sq, refusals)


def photon_number_roots(a: float, delta_c: float, kappa: float, omega_l: float) -> list[float]:
    """All distinct real nonnegative photon-number roots, ascending, as Python floats."""
    values, distinct = _one_point(partial(_cubic_roots, a, delta_c, kappa, omega_l))
    return [n for n, kept in zip(values, distinct) if kept]


def _solve(params: SystemParams, refusals: _Refusals) -> SteadyStates:
    """The operating point(s) of ``params``, without the kernel inputs.

    A point whose Coulomb term destabilizes the static problem fails with
    StaticInstabilityError (from the stiffness) before any root finding.
    """
    k = params.stiffness()  # one point: raises StaticInstabilityError where K <= 0
    refusals.float_range(k != k)  # NaN: a square in K overflowed
    refusals.refuse(k <= 0, StaticInstabilityError, None)
    cavity, coupling, mech1, mech2 = params.cavity, params.coupling, params.mech1, params.mech2
    hbar = params.hbar
    omega_l = params.pump_amplitude()
    a = hbar * refusals.power(coupling.g_cav, 2) / k
    omega_sq = refusals.power(omega_l, 2)
    kappa_sq = refusals.power(cavity.kappa, 2)
    locked = cavity.detuning_mode == DETUNING_LOCKED
    if locked:
        c = kappa_sq + refusals.power(mech1.omega, 2)
        locked_n = refusals.divide(omega_sq, c)
        delta_c = mech1.omega + a * locked_n
    else:
        delta_c = cavity.detuning
    closed_form = locked and (locked_n, mech1.omega, c)
    values, distinct = _photon_number_roots(a, delta_c, kappa_sq, omega_sq, refusals, closed_form)
    if locked:
        n, delta_eff = locked_n, mech1.omega
    else:
        n = values[0]
        delta_eff = delta_c - a * n
    q1s = hbar * coupling.g_cav * n / k
    q2s = refusals.divide(-hbar * coupling.g_coulomb * q1s, mech2.mass * refusals.power(mech2.omega, 2))
    residual = abs(n * (kappa_sq + refusals.power(delta_c - a * n, 2)) - omega_sq)
    refusals.refuse(
        where(residual <= RESIDUAL_TOL * where(1.0 > omega_sq, 1.0, omega_sq), False, True),
        InvariantViolationError,
        lambda: f"steady-state residual {residual!r} out of tolerance",
    )
    branch_count = sum(distinct[1:], where(distinct[0], 1, 0))
    return SteadyStates(refusals.status, q1s, q2s, n, delta_eff, delta_c, branch_count, residual, None)


def _one_point(solve):
    """``solve`` on one point, with Python's float-range errors as its InvariantViolationError."""
    try:
        return solve(_Refusals(None))
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvariantViolationError(f"steady state leaves the float range: {exc.args[-1]}") from None


def _batch(params: SystemParams, swept: dict) -> SystemParams:
    """``params`` with the swept fields set from ``swept``, and every other number a one-element array
    that overflows and divides by zero as a batch element does (the module docstring).

    Built without validation: `sweep` checked both bounds of every swept
    axis (`config.check_axis_bound`), and a grid value lies between them.
    """

    def column(value):
        return value if value is None or isinstance(value, str) else np.array(value, dtype=float, ndmin=1)

    def section(name, fields):
        view = object.__new__(type(fields))
        view.__dict__.update((k, column(v)) for k, v in {**vars(fields), **swept.get(name, {})}.items())
        return view

    batch = object.__new__(SystemParams)
    batch.__dict__.update(
        (name, value if isinstance(value, str) else section(name, value))
        for name, value in vars(params).items()
    )
    return batch


def solve_steady_states(params: SystemParams, swept: dict) -> SteadyStates:
    """The operating points of ``params`` with the swept fields set, one per array element, as columns.

    ``swept`` maps a section of `SystemParams` to {field: array of values, or
    None to clear the field}, as `config.axis_changes` gives it; with nothing
    swept the batch is the one point of ``params``.  The status has an element
    per point; a column that no swept field moves may have one for all of them:
    ``delta_c`` (explicit detuning), ``delta_eff`` and, but for a pump or kappa
    sweep, the photon number (locked), and the `Coefficients` of the unswept
    numbers, as ``omega1``, ``gamma2``, ``masses`` and ``kappa`` or ``coulomb``.
    """
    arrays = [v for fields in swept.values() for v in fields.values() if v is not None]
    size = len(arrays[0]) if arrays else 1
    batch = _batch(params, swept)
    with np.errstate(all="ignore"):
        states = _solve(batch, _Refusals(size))
        return states._replace(coefficients=coefficients(batch, states))


def solve_steady_state(params: SystemParams) -> OperatingPoint:
    """Solve the self-consistent operating point for the given parameters.

    Raises StaticInstabilityError (via the stiffness check) before any root
    finding when the Coulomb term destabilizes the static problem, and
    InvariantViolationError when a float overflows or the residual is off.
    """
    s = _one_point(partial(_solve, params))
    cs = params.pump_amplitude() / (params.cavity.kappa + 1j * s.delta_eff)
    return OperatingPoint(
        s.q1s, s.q2s, cs, s.photon_number, s.delta_eff, s.delta_c, s.branch_count, s.residual
    )

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

One kernel, `amplitude_kernel`, evaluates X and dX/d delta on Python floats
(one point) or on numpy arrays that broadcast over delta and the
`Coefficients` of each operating point, and returns a per-element status
instead of raising.  The public functions are thin calls of it.  Its terms free
of (hbar g_c)^2 and beta (`kernel_terms`) may come ready-made, from `window_scan`.

Arithmetic contract.  An array element must be bit-identical to the closed
form written with Python complex numbers, because the tables are, and numpy's
complex ufuncs (multiply, divide, abs, arctan2) round differently.  So
complex numbers are (re, im) pairs of float64, and each pair operation copies
one CPython 3.11 complex operation:
- a float operand is promoted to complex(f, 0.0) and its 0*x terms are kept;
  they decide signed zeros;
- ``/`` is CPython's Smith division; on arrays both branches are computed
  and one is picked per element;
- z**2 is z*z (CPython's (1+0j)*(z*z) differs only where it overflows, and
  there CPython raises);
- a float square is libm ``pow``, as Python's ``**`` is (`arith.power`);
- abs is ``hypot`` (`arith.hypot`); the phase is ``math.atan2`` per element,
  while the finite-difference slope uses numpy's ``arctan2``, as ``np.angle``
  does.
Decisions from squares.  The SINGULAR test and which window-scan points are
strict maxima of |t_p|^2 compare |z| only, so on arrays they compare q =
re*re + im*im (`_squares`), and libm runs on the elements q leaves open.  For
q in SQUARE_RANGE = [1e-200, 1e200] no square overflows and the larger is a
normal float (a smaller one that underflows is below 1e-120 of q), so q is
within about 2 ULP of |z|^2, power(hypot(z), 2) within about 3, and 1e-60 q,
the squared singular bound, a normal float.  So values whose squares differ by
more than SQUARE_MARGIN = 1e-12, relative, compare alike by libm.  Other
elements, non-finite ones included, take libm; no decision or value changes.
The closed form's rounding follows its operand types: with a numpy-scalar
Delta or n every complex division would be numpy's, times the reciprocal.
`steady` therefore hands out Python floats on every branch, and the one
division rule above holds for every operating point.
CPython 3.14 changes mixed real/complex arithmetic; the property test in
``tests/test_response.py`` pins this contract.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .arith import distinct_rows, hypot, isfinite, power, where
from .errors import (
    OK,
    STATUS_ERRORS,
    GridTooCoarseError,
    InvariantViolationError,
    MechanicalPoleError,
    SingularResponseError,
    UndefinedPhaseError,
)
from .params import SystemParams

if TYPE_CHECKING:
    from .steady import OperatingPoint

CONVENTION_CORRECTED = "paper-corrected"
CONVENTION_INTRACAVITY = "intracavity"
CONVENTIONS = (CONVENTION_CORRECTED, CONVENTION_INTRACAVITY)

SINGULAR_DENOMINATOR_RATIO = 1e-30
PHASE_JUMP_LIMIT = math.pi * (1.0 - 1e-12)
FD_STEP_SCALE = 1e-6  # the largest finite-difference step, in units of omega1
FD_WIDTH_FRACTION = 3e-3  # the step as a fraction of the local feature width |t_p| / |dt_p/d delta|
FD_OFFSETS = (1.0, -1.0, 0.5, -0.5)  # finite-difference points delta0 + s h, in evaluation order
MIN_ABS_T = 1e-12
SPLITTING_WINDOW_FRACTION = 0.2  # half-width of the window scan, in units of omega1
SPLITTING_POINTS = 4001
SQUARE_RANGE = (1e-200, 1e200)  # re*re + im*im where it decides in place of libm (module docstring)
SQUARE_MARGIN = 1e-12  # the relative gap past which squares compare as libm's values do

# per-element status: OK, or the code of an error, its index in errors.STATUS_ERRORS
POLE, SINGULAR, UNDEFINED_PHASE, OUT_OF_RANGE = map(
    STATUS_ERRORS.index, (MechanicalPoleError, SingularResponseError, UndefinedPhaseError, InvariantViolationError)
)

_ONE, _I, _2I, _MINUS_I = (1.0, 0.0), (0.0, 1.0), (0.0, 2.0), (-0.0, -1.0)  # 1, 1j, 2j, -1j
_atan2 = np.frompyfunc(math.atan2, 2, 1)


@dataclass(frozen=True)
class ResponseSample:
    """Probe response at one detuning, t_p in the convention asked for."""

    delta: float
    X: complex  # normalized sideband amplitude c_-/eps_p, units of seconds
    t_p: complex
    transmission: float  # |t_p|^2
    phase: float  # rad; unwrapped along a grid, principal value pointwise


class Coefficients(NamedTuple):
    """Kernel inputs fixed by an operating point: floats, or arrays that broadcast with delta."""

    kappa: float
    detuning: float  # Delta
    detuning_sq: float
    omega1: float
    omega1_sq: float
    omega2_sq: float
    gamma1: float
    gamma2: float
    coulomb: float  # (hbar g_c)^2
    masses: float  # m1 m2
    beta: float


def coefficients(params: SystemParams, op: OperatingPoint) -> Coefficients:
    """Kernel inputs of an operating point, each computed as the scalar closed form does.

    On one point they are Python floats; on a batch (`steady.solve_steady_states`)
    they are arrays, of one element where no swept number moves them, which
    broadcasts.
    """
    m1, m2, hbar = params.mech1, params.mech2, params.hbar
    beta = hbar * power(params.coupling.g_cav, 2) * op.photon_number / (2.0 * m1.mass * m1.omega)
    values = (
        params.cavity.kappa, op.delta_eff, power(op.delta_eff, 2), m1.omega, power(m1.omega, 2),
        power(m2.omega, 2), m1.gamma, m2.gamma, power(hbar * params.coupling.g_coulomb, 2),
        m1.mass * m2.mass, beta,
    )
    return Coefficients(*(values if isinstance(beta, np.ndarray) else map(float, values)))


def _re(x):
    return x, 0.0


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _quot(a, b):
    """a / b by CPython's Smith division."""
    (ar, ai), (br, bi) = a, b
    by_real = abs(br) >= abs(bi)
    if isinstance(by_real, np.ndarray):
        ratio = np.where(by_real, bi / br, br / bi)
    elif not abs(br) + abs(bi) > 0:  # a zero or NaN divisor; the status marks the point
        return math.nan, math.nan
    else:
        ratio = bi / br if by_real else br / bi
    denominator = where(by_real, br + bi * ratio, br * ratio + bi)
    re_num = where(by_real, ar + ai * ratio, ar * ratio + ai)
    im_num = where(by_real, ai - ar * ratio, ai * ratio - ar)
    return re_num / denominator, im_num / denominator


def _abs(z):
    return hypot(*z)


def abs_squared(z):
    """abs(z)**2 of a complex pair."""
    return power(_abs(z), 2)


def _squares(re, im):
    """(q = re*re + im*im, q in SQUARE_RANGE) of arrays: the module docstring's decisions from squares."""
    q = re * re + im * im
    return q, (q >= SQUARE_RANGE[0]) & (q <= SQUARE_RANGE[1])


def phase(z):
    """Principal arg of a complex pair, math.atan2 per element."""
    if isinstance(z[0], np.ndarray):
        return _atan2(z[1], z[0]).astype(float)
    return math.atan2(z[1], z[0])


def kernel_terms(delta, c: Coefficients):
    """The terms of X free of (hbar g_c)^2 and beta: chi1, chi2, m1 m2 chi2, kappa - i(Delta+delta),
    delta + i kappa, Delta^2 - (delta + i kappa)^2 and the pole mask chi2 = 0."""
    with np.errstate(all="ignore"):
        i_delta = _mul(_I, _re(delta))
        delta_sq = power(delta, 2)
        chi1 = _add(_re(delta_sq - c.omega1_sq), _mul(i_delta, _re(c.gamma1)))
        chi2 = _add(_re(delta_sq - c.omega2_sq), _mul(i_delta, _re(c.gamma2)))
        a_fac = _sub(_re(c.kappa), _mul(_I, _re(c.detuning + delta)))
        z = _add(_re(delta), _mul(_I, _re(c.kappa)))  # delta + i kappa
        d_fac = _sub(_re(c.detuning_sq), _mul(z, z))
        return chi1, chi2, _mul(_re(c.masses), chi2), a_fac, z, d_fac, (chi2[0] == 0) & (chi2[1] == 0)


def _singular(numerator, denominator):
    """(|denominator| < 1e-30 |numerator| or denominator = 0, |denominator| < inf), by libm ``hypot``."""
    den_abs, zero = _abs(denominator), (denominator[0] == 0) & (denominator[1] == 0)
    return zero | (den_abs < SINGULAR_DENOMINATOR_RATIO * _abs(numerator)), den_abs < math.inf


def _screened_singular(numerator, denominator):
    """`_singular` of arrays, from the squares where they decide it; by libm on the other elements."""
    (q_num, in_num), (q_den, in_den) = _squares(*numerator), _squares(*denominator)
    bound = SINGULAR_DENOMINATOR_RATIO**2 * q_num
    singular, exact = q_den < bound, ~(in_num & in_den & (abs(q_den - bound) > SQUARE_MARGIN * bound))
    below_inf = np.ones(singular.shape, bool)  # q_den <= 1e200 where the squares decide
    if exact.any():
        pick = [tuple(np.broadcast_to(part, exact.shape)[exact] for part in z) for z in (numerator, denominator)]
        singular[exact], below_inf[exact] = _singular(*pick)
    return singular, below_inf


def amplitude_kernel(delta, c: Coefficients, derivative: bool = False, terms=None):
    """X(delta), dX/d delta (None unless ``derivative``) and a per-element status.

    X and dX are (re, im) pairs.  The status is OK, POLE (chi2 = 0), SINGULAR
    (|denominator| < 1e-30 |numerator|) or else OUT_OF_RANGE (X, or dX when
    asked for, not finite, or the denominator of either past the float range);
    the values of other elements are meaningless.  On arrays squares decide SINGULAR and the denominator's
    range where they can (`_screened_singular`).  ``terms``, `kernel_terms`
    (delta, c) computed here when not given, let a caller build them once for
    several (hbar g_c)^2 and beta; an element rounds alike on either route.
    """
    with np.errstate(all="ignore") if isinstance(delta, np.ndarray) else contextlib.nullcontext():
        chi1, chi2, masses_chi2, a_fac, z, d_fac, pole = kernel_terms(delta, c) if terms is None else terms
        alpha = _quot(_re(c.coulomb), masses_chi2)
        b_fac = _sub(chi1, alpha)
        numerator = _sub(_mul(a_fac, b_fac), _mul(_mul(_2I, _re(c.omega1)), _re(c.beta)))
        denominator = _add(_mul(d_fac, b_fac), _re(4.0 * c.detuning * c.omega1 * c.beta))
        screen = _screened_singular if isinstance(denominator[0], np.ndarray) else _singular
        singular, below_inf = screen(numerator, denominator)
        x, dx = _quot(numerator, denominator), None
        # a denominator past the float range rounds a representable X ~ i/delta to 0
        finite = isfinite(x[0]) & isfinite(x[1]) & below_inf
        if derivative:
            chi1_p = _add(_re(2.0 * delta), _mul(_I, _re(c.gamma1)))
            chi2_p = _add(_re(2.0 * delta), _mul(_I, _re(c.gamma2)))
            b_p = _sub(chi1_p, _quot(_mul((-alpha[0], -alpha[1]), chi2_p), chi2))
            num_p = _add(_mul(_MINUS_I, b_fac), _mul(a_fac, b_p))
            den_p = _add(_mul(_mul(_re(-2.0), z), b_fac), _mul(d_fac, b_p))
            num_p_den = _sub(_mul(num_p, denominator), _mul(numerator, den_p))
            den_sq = _mul(denominator, denominator)
            dx = _quot(num_p_den, den_sq)
            finite = finite & isfinite(dx[0]) & isfinite(dx[1]) & isfinite(den_sq[0]) & isfinite(den_sq[1])
        return x, dx, where(pole, POLE, where(singular, SINGULAR, where(finite, OK, OUT_OF_RANGE)))


def transmissions(x, kappa):
    """t_p in both conventions, (1 - 2 kappa X, 2 kappa X), as complex pairs."""
    two_kappa_x = _mul(_re(2.0 * kappa), x)
    return _sub(_ONE, two_kappa_x), two_kappa_x


def t_p_pair(x, kappa, convention):
    """t_p of one convention, as a complex pair."""
    return transmissions(x, kappa)[CONVENTIONS.index(convention)]


def _analytic_delay(t0, dx0, c, convention):
    sign = -1.0 if convention == CONVENTION_CORRECTED else 1.0
    return _quot(_mul(_re(sign * 2.0 * c.kappa), dx0), t0)[1]


def _fd_step(t0, dx0, c):
    """min(3e-3 |t_p| / |dt_p/d delta|, 1e-6 omega1) at the centre: a step inside the local feature.

    A fixed step spans a narrow feature near the fast/slow crossing, where
    |tau| reaches 6e4; |dt_p/d delta| = 2 kappa |dX/d delta| in both conventions.
    """
    width = FD_WIDTH_FRACTION * _abs(t0)
    slope = _abs(_mul(_re(2.0 * c.kappa), dx0))
    ratio = width / where(slope > 0.0, slope, 1.0)
    cap = FD_STEP_SCALE * c.omega1
    return where((slope > 0.0) & (ratio < cap), ratio, cap)


def _fd_delay(t, h):
    """Central-difference phase slope plus one Richardson level, from t_p at FD_OFFSETS."""

    def slope(plus, minus, step):
        z = _mul(plus, (minus[0], -minus[1]))
        return np.arctan2(z[1], z[0]) / (2.0 * step)

    return (4.0 * slope(t[2], t[3], h / 2.0) - slope(t[0], t[1], h)) / 3.0


def group_delays(delta, c: Coefficients, convention: str):
    """(tau_fd, tau_analytic, |t_p|, status) over an array of centre detunings, |t_p| at the centre.

    The centres may have any shape that broadcasts with ``c``.  One kernel call with the derivative covers
    them, which fix each one's step (`_fd_step`); a second one covers the finite-difference points.
    The status is the first failure in the order `group_delay` meets them:
    the centre, an undefined phase there, then delta + h, - h, + h/2, - h/2.
    """
    x0, dx0, status0 = amplitude_kernel(delta, c, derivative=True)
    with np.errstate(all="ignore"):
        t0 = t_p_pair(x0, c.kappa, convention)
        h = _fd_step(t0, dx0, c)
        x, _, status = amplitude_kernel(np.stack([delta + s * h for s in FD_OFFSETS]), c)
        t = list(zip(*t_p_pair(x, c.kappa, convention)))  # t_p pairs at FD_OFFSETS
        magnitude = _abs(t0)
        undefined = np.where(magnitude < MIN_ABS_T, UNDEFINED_PHASE, OK)
        ordered = np.stack([status0, undefined, *status])
        first = np.take_along_axis(ordered, np.argmax(ordered != OK, axis=0)[np.newaxis], axis=0)[0]
        return _fd_delay(t, h), _analytic_delay(t0, dx0, c, convention), magnitude, first


def _raise_for(status, delta):
    """Raise the error of a non-OK status; of an array status, the first one (delta a sequence)."""
    if isinstance(status, np.ndarray):
        bad = np.flatnonzero(status)
        if not bad.size:
            return
        status, delta = status[bad[0]], delta[bad[0]]
    if status == POLE:
        raise MechanicalPoleError(
            "second-resonator susceptibility vanishes exactly at this detuning; use gamma2 > 0"
        )
    if status == SINGULAR:
        raise SingularResponseError("response denominator vanished", delta=delta)
    if status == OUT_OF_RANGE:
        raise InvariantViolationError(f"response leaves the float range at delta = {delta!r}")


def _checked(delta, c, derivative=False):
    if not math.isfinite(delta):
        raise ValueError(f"detuning delta = {delta!r} must be finite")
    try:
        x, dx, status = amplitude_kernel(float(delta), c, derivative)
    except OverflowError:  # where an array element gives NaN
        status = OUT_OF_RANGE
    _raise_for(status, delta)
    return x, dx


def _check_convention(convention):
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")


def sideband_amplitude(delta: float, params: SystemParams, op: OperatingPoint) -> complex:
    """Normalized sideband amplitude X(delta) = c_-/eps_p."""
    return complex(*_checked(delta, coefficients(params, op))[0])


def sideband_amplitude_derivative(delta: float, params: SystemParams, op: OperatingPoint) -> complex:
    """Exact dX/d delta from term-by-term differentiation of the rational form."""
    return complex(*_checked(delta, coefficients(params, op), derivative=True)[1])


def transmission(
    delta: float,
    params: SystemParams,
    op: OperatingPoint,
    convention: str = CONVENTION_CORRECTED,
) -> ResponseSample:
    """Probe transmission sample at one detuning."""
    _check_convention(convention)
    c = coefficients(params, op)
    x, _ = _checked(delta, c)
    t_p = t_p_pair(x, c.kappa, convention)
    return ResponseSample(delta, complex(*x), complex(*t_p), abs_squared(t_p), phase(t_p))


def wrap_phase_jump(jump: float) -> float:
    """Phase difference shifted by a multiple of 2pi into [-pi, pi]."""
    return jump - 2.0 * math.pi * round(jump / (2.0 * math.pi))


def unwrap_phase(phases: Sequence[float]) -> list[float]:
    """Cumulative +-2pi correction of a phase sequence, seeded at its first value and after each NaN."""
    two_pi, unwrapped, prev = 2.0 * math.pi, [], math.nan
    for p in phases:
        jump = p - prev  # NaN at a seed; else prev + wrap_phase_jump(jump), written out
        prev = p if jump != jump else prev + (jump - two_pi * round(jump / two_pi))
        unwrapped.append(prev)
    return unwrapped


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
    if not all(b > a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("detuning grid must be strictly increasing")
    for delta in deltas:
        if not math.isfinite(delta):
            raise ValueError(f"detuning delta = {delta!r} must be finite")
    _check_convention(convention)
    c = coefficients(params, op)
    x, _, status = amplitude_kernel(np.array(deltas, dtype=float), c)
    _raise_for(status, deltas)
    t_p = t_p_pair(x, c.kappa, convention)
    raw = phase(t_p).tolist()
    unwrapped = unwrap_phase(raw)
    for i, (prev, p) in enumerate(zip(unwrapped, raw[1:])):
        if abs(wrap_phase_jump(p - prev)) >= PHASE_JUMP_LIMIT:
            raise GridTooCoarseError(
                "phase jump of at least pi between adjacent samples", interval=(deltas[i], deltas[i + 1])
            )
    power = abs_squared(t_p).tolist()
    x, t_p = ([complex(*v) for v in zip(real.tolist(), imag.tolist())] for real, imag in (x, t_p))
    return list(map(ResponseSample, deltas, x, t_p, power, unwrapped))


def group_delay(
    delta0: float,
    params: SystemParams,
    op: OperatingPoint,
    method: str = "analytic",
    convention: str = CONVENTION_CORRECTED,
) -> float:
    """Group delay d arg(t_p) / d omega_p at probe detuning delta0 (seconds).

    ``analytic`` differentiates the closed form exactly; ``finite-difference``
    uses central differences with the step of `_fd_step` plus one Richardson
    extrapolation level.  Positive values mean slow light, negative fast.
    """
    _check_convention(convention)
    if method not in ("analytic", "finite-difference"):
        raise ValueError(f"unknown method {method!r}; use 'analytic' or 'finite-difference'")
    c = coefficients(params, op)
    x, dx = _checked(delta0, c, derivative=True)
    t_center = t_p_pair(x, c.kappa, convention)
    if _abs(t_center) < MIN_ABS_T:
        raise UndefinedPhaseError(f"|t_p| = {_abs(t_center)!r} too small at delta = {delta0!r}")
    if method == "analytic":
        return _analytic_delay(t_center, dx, c, convention)
    h = _fd_step(t_center, dx, c)
    t = [t_p_pair(_checked(delta0 + s * h, c)[0], c.kappa, convention) for s in FD_OFFSETS]
    return _fd_delay(t, h)


def _strict_maxima(t):
    """(indices, `abs_squared` values) of the interior strict maxima of |t|^2 along 1-D arrays: a point is
    a candidate unless its squares show a neighbour higher by more than SQUARE_MARGIN; libm decides on those."""
    q, in_range = _squares(*t)
    low = q * (1.0 - SQUARE_MARGIN)
    candidate = (q[1:-1] >= low[:-2]) & (q[1:-1] >= low[2:]) | ~(in_range[:-2] & in_range[1:-1] & in_range[2:])
    at = np.flatnonzero(candidate) + 1
    values = abs_squared(tuple(part[at + np.arange(-1, 2)[:, None]] for part in t))  # rows: at - 1, at, at + 1
    peak = (values[1] > values[0]) & (values[1] > values[2])
    return at[peak], values[1][peak]


def window_scan(c: Coefficients, convention: str, half_width, points: int):
    """Per operating point of ``half_width``, an array, and of the coefficients ``c``, which broadcast with it,
    yield its index, the grid of ``points`` detunings over omega1 +- half_width, the per-element status,
    and delta_bar and |t_p|^2 of the interior strict maxima of |t_p|^2, ascending.  The grid and
    `kernel_terms` are built once per group of points equal in half-width and in the coefficients but
    (hbar g_c)^2 and beta, as int64 so bit for bit (-0.0 and 0.0 differ); a locked-detuning g_c sweep is
    one group.  Each point then runs the rest of the kernel in a call of its own ``points`` elements; its
    maxima and heights are `abs_squared`'s, run where squares leave a point open (`_strict_maxima`)."""
    c = Coefficients(*np.broadcast_arrays(half_width, *c)[1:])  # a one-element column for every point
    free = (v for f, v in zip(c._fields, c) if f not in ("coulomb", "beta"))
    distinct, group = distinct_rows(np.stack([half_width, *free], axis=1).view(np.int64))
    for g in range(len(distinct)):
        rows = np.flatnonzero(group == g)
        w, hw = c.omega1[rows[0]], half_width[rows[0]]
        grid = np.linspace(w - hw, w + hw, points)
        terms = kernel_terms(grid, Coefficients(*(column[rows[0]] for column in c)))
        for i in rows:
            row = Coefficients(*(column[i] for column in c))
            x, _, status = amplitude_kernel(grid, row, terms=terms)
            peaks, heights = _strict_maxima(t_p_pair(x, row.kappa, convention))
            yield i, grid, status, grid[peaks] - row.omega1, heights


def transmission_maxima(
    params: SystemParams,
    op: OperatingPoint,
    convention: str = CONVENTION_CORRECTED,
    half_width: float | None = None,
    points: int = SPLITTING_POINTS,
) -> list[tuple[float, float]]:
    """Interior strict local maxima of |t_p|^2 over delta_bar in [-hw, +hw].

    Returns (delta_bar, transmission) pairs in ascending delta_bar order;
    endpoints are never counted.  The default half-width is
    SPLITTING_WINDOW_FRACTION * omega1.  The pairs are those `abs_squared`
    gives over the grid, run where squares cannot rule a point out.
    """
    _check_convention(convention)
    c = coefficients(params, op)
    if half_width is None:
        half_width = SPLITTING_WINDOW_FRACTION * c.omega1
    if not 0.0 < half_width < math.inf:
        raise ValueError(f"half_width = {half_width!r} must be finite and positive")
    if not isinstance(points, int) or points < 3:  # a bool is below 3 too
        raise ValueError(f"points = {points!r} must be an int of at least 3")
    scan = window_scan(Coefficients(*np.array(c)[:, None]), convention, np.array([half_width]), points)
    with np.errstate(all="ignore"):  # as the sweep runs it
        [(_, grid, status, delta_bar, heights)] = scan
    _raise_for(status, grid.tolist())
    return list(zip(delta_bar.tolist(), heights.tolist()))

"""Full nonlinear time-domain oracle: integrate the mean-value equations,
then extract sideband amplitudes by least-squares demodulation.

This is the end-to-end check of the linearized pipeline: both drives run in
the integration, nothing is linearized, and the demodulated coefficients
are compared against the linear-system solve.

The integrator is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5),
written here as scipy's `solve_ivp` runs it, without scipy; see `integrate`.
Its BLAS sums run on scipy's layout of the stages; the rest, the error scale
and norm and the right-hand side's cavity equation too, runs on Python floats, the
complex arithmetic written out as CPython 3.11 computes it.
"""
from __future__ import annotations

import bisect
import math
import struct
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
RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy's least DOP853 rtol

# DOP853 tableau of Hairer's dop853.f as scipy.integrate._ivp.dop853_coefficients has it, in scipy's
# shapes, each float64 by repr.  Stages 1-11 make a step, 12 is the right-hand side at its end (row 12
# of A is the 8th-order weights B), 13-15 serve the interpolant.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0,
    0.1, 0.2, 0.7777777777777778,
)
_A = np.zeros((16, 16))
_A[np.tril_indices(16, -1)] = (
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0.0,
    0.08876275643042054, 0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0.0, 0.0,
    0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0.0, 0.0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0.0,
    0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0.0, 0.0, 0.0, 0.0,
    4.450312892752409, 1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214, 0.0, 0.0, 0.0, 0.0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
    0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325, -0.42889630158379194, 0.0, 0.0, 0.0,
    0.0, -4.697621415361164, 7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
)
_E5 = np.array((
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
))
_E3 = np.array((
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
))
_D = np.array((
    -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
    18.148505520854727, -9.194632392478356, -4.436036387594894, 10.427508642579134, 0.0, 0.0, 0.0, 0.0,
    242.28349177525817, 165.20045171727028, -374.5467547226902, -22.113666853125306, 7.733432668472264,
    -30.674084731089398, -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
    35.81684148639408, 19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
    527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279, -25.69393346270375, 0.0,
    0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455, 357.6391179106141, 93.40532418362432,
    -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
    -39.17726167561544, -149.72683625798564,
)).reshape(4, 16)
_B = _A[12, :12].copy()
_ROW = struct.Struct("6d")  # one row of K, packed straight into its memory


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
    """The right-hand side ``rhs(t, q1, p1, q2, p2, rc, ic)`` on Python floats, returning a tuple;
    every attribute and function it reads is a local.  The cavity equation
    dc = -(kappa + i delta_c) c + i g_cav q1 c + Omega_l + eps_p e^(-i delta t) is written out on
    floats as CPython 3.11 computes it on complex numbers: each product is the full complex
    product and each sum adds both parts, a float taking imaginary part 0.0, signed zeros and all."""
    m1, m2 = params.mech1, params.mech2
    m1_mass, m1_gamma, m2_mass, m2_gamma = m1.mass, m1.gamma, m2.mass, m2.gamma
    hbar = params.hbar
    g_cav = params.coupling.g_cav
    hg_c, hg_cav = hbar * params.coupling.g_coulomb, hbar * g_cav
    k1, k2 = -m1_mass * m1.omega**2, -m2_mass * m2.omega**2
    omega_l = params.pump_amplitude()
    loss, coupling = -(params.cavity.kappa + 1j * op.delta_c), 1j * g_cav
    lr, li, gr, gi = loss.real, loss.imag, coupling.real, coupling.imag
    gr0, gi0 = gr * 0.0, gi * 0.0
    isfinite, cos, sin = math.isfinite, math.cos, math.sin

    def rhs(t, q1, p1, q2, p2, rc, ic):
        if not (
            isfinite(q1) and isfinite(p1) and isfinite(q2)
            and isfinite(p2) and isfinite(rc) and isfinite(ic)
        ):
            raise _NonFiniteState(t)
        n_c = rc * rc + ic * ic
        dq1 = p1 / m1_mass
        dq2 = p2 / m2_mass
        dp1 = k1 * q1 - hg_c * q2 + hg_cav * n_c - m1_gamma * p1
        dp2 = k2 * q2 - hg_c * q1 - m2_gamma * p2
        ur, ui = gr * q1 - gi0, gr0 + gi * q1  # i g_cav q1
        co, si = cos(delta * t), -sin(delta * t)
        return (
            dq1, dp1, dq2, dp2,
            lr * rc - li * ic + (ur * rc - ui * ic) + omega_l + (eps_p * co - 0.0 * si),
            lr * ic + li * rc + (ur * ic + ui * rc) + 0.0 + (eps_p * si + 0.0 * co),
        )

    return rhs


def _error_norm(h_abs: float, d5, d3) -> float:
    """scipy's DOP853 error norm from the squared norms ``d5``, ``d3`` of the scaled error
    estimates, on floats as on numpy scalars.  scipy squares np.linalg.norm, so each is
    sqrt(d) ** 2: libm pow, as a float64 ** 2 is (not d, nor sqrt(d) * sqrt(d)), and never past
    the float range, since sqrt(d) <= sqrt(DBL_MAX) and inf ** 2 is inf.  0 / 0 (d5 = 0 with a
    d3 that 0.01 * d3 takes to 0) is NaN, as numpy gives it."""
    e5, e3 = math.sqrt(d5) ** 2, math.sqrt(d3) ** 2
    if not (e5 or e3):
        return 0.0
    root = math.sqrt((e5 + 0.01 * e3) * 6)
    return h_abs * e5 / root if root else math.nan


def _dop853(rhs, y0: np.ndarray, t_eval: list, rtol: float, atol: np.ndarray, first: int):
    """DOP853 from t = 0 to t_eval[-1], step for step as scipy's under `solve_ivp` with
    ``t_eval=t_eval[first:]``: the states there, and None or why the run stopped early.  Step
    control reads no sample, so every ``first`` gives the same steps; only a step that holds one
    of t_eval[first:] runs the interpolant stages 13-15.  The state is a list of floats; the
    initial step is scipy's select_initial_step, on numpy scalars as there."""
    t_bound = t_eval[-1]
    K = np.empty((16, 6))  # one row per stage, as scipy's K_extended
    total = np.empty(6)  # each stage sum in turn
    pack, k_rows = _ROW.pack_into, memoryview(K)
    stages = [(K[:s].T.dot, _A[s, :s], _C[s], _ROW.size * s) for s in range(16)]
    step_stages, dense_stages = stages[1:12], stages[13:]
    sum_b, sum_err = K[:12].T.dot, K[:13].T.dot

    def run_stages(stages, t, h, y1, y2, y3, y4, y5, y6):
        for dot, a, c, row in stages:  # K[s] = rhs(t + c h, y + h K[:s].T . A[s, :s])
            d1, d2, d3, d4, d5, d6 = dot(a, total).tolist()
            pack(k_rows, row, *rhs(t + c * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h, y4 + d4 * h,
                                   y5 + d5 * h, y6 + d6 * h))

    if t_bound == 0.0:
        return [y0.tolist()], None
    f = rhs(0.0, *y0.tolist())
    f0 = np.array(f)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = (np.sqrt(v.dot(v)) / 6**0.5 for v in (y0 / scale, f0 / scale))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    v = (np.array(rhs(h0, *(y0 + h0 * f0).tolist())) - f0) / scale
    d2 = np.sqrt(v.dot(v)) / 6**0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, t_bound))
    t, y, rows, sample = 0.0, y0.tolist(), [], first  # t_eval[sample] is the next one to take
    atol, scale_row = atol.tolist(), memoryview(scale)  # from here on scale is rewritten in place
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        pack(k_rows, 0, *f)
        while True:
            if h_abs < min_step:
                return rows, "Required step size is less than spacing between numbers."
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            run_stages(step_stages, t, h, *y)
            y_new = [yi + h * di for yi, di in zip(y, sum_b(_B, total).tolist())]
            f_new = rhs(t + h, *y_new)
            pack(k_rows, 12 * _ROW.size, *f_new)
            # atol + np.maximum(|y|, |y_new|) rtol: rhs has just found y_new finite, as y before it
            pack(scale_row, 0, *[a + (u if u > v else v) * rtol
                                 for a, u, v in zip(atol, map(abs, y), map(abs, y_new))])
            err5, err3 = sum_err(_E5), sum_err(_E3)
            err5 /= scale
            err3 /= scale
            error_norm = _error_norm(h_abs, err5.dot(err5), err3.dot(err3))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        if t_eval[sample] <= t_new:  # the step holds t_eval[sample:end]
            end = bisect.bisect_right(t_eval, t_new, sample)
            run_stages(dense_stages, t, h, *y)
            # scipy's Dop853DenseOutput, y + sum_k F[k] x^(k//2 + 1) (1 - x)^((k + 1)//2), in its
            # Horner order from a 0.0 accumulator, one component (y, F[0], ..., F[6]) at a time
            columns = [
                (yo, dy, h * fo - dy, 2 * dy - h * (fn + fo), *tail) for yo, dy, fo, fn, tail
                in zip(y, map(float.__sub__, y_new, y), f, f_new, (h * np.dot(_D, K)).T.tolist())
            ]
            for s in t_eval[sample:end]:
                x = (s - t) / h
                z = 1 - x
                rows.append([
                    ((((((((0.0 + f6) * x + f5) * z + f4) * x + f3) * z + f2) * x + f1) * z + f0) * x) + yo
                    for yo, f0, f1, f2, f3, f4, f5, f6 in columns
                ])
            sample = end
        t, y, f = t_new, y_new, f_new
    return rows, None


def integrate(
    params: SystemParams,
    delta: float,
    config: TrajectoryConfig,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the six mean-value equations with both drives active.

    Starts at the analytic operating point (static transient already
    settled) unless an explicit initial state is given.  Adaptive
    Dormand-Prince 8(5,3) (DOP853), its 7th-order interpolant sampled every
    ``config.dt``, run at ``DOP853_TOLERANCE_FACTOR`` times the requested
    ``config.integrator_tolerance``.

    The samples, and the time of a failure, equal those of scipy's
    ``solve_ivp(method="DOP853", t_eval=...)`` bit for bit: the same initial
    step, step control, rejection rule and minimum step.  Every sum over stages
    is one BLAS ``dot`` on scipy's layout of K, since BLAS does not add in Python's
    order: K[:s].T . A[s, :s] per stage, the B, E5 and E3 sums, the error norms and
    the interpolant's D . K.  The elementwise rest (stage inputs, new state,
    error scale, error norm from the dots, interpolant) runs on Python floats,
    which round as numpy does,
    and the right-hand side takes them as ``rhs(t, q1, p1, q2, p2, rc, ic)``,
    its cavity equation on floats as CPython 3.11 complex arithmetic.  Only
    steps that hold samples compute the interpolant stages.  `probe_response`
    samples only the window `demodulate` keeps; step control reads no sample, so
    its steps, and its states in that window, are these.

    The package's one perturbative check is here, where the probe drives the
    run: a probe/pump ratio above PERTURBATIVE_RATIO warns `PerturbativeRegimeWarning`.
    """
    return _integrate(params, delta, config, initial_state, 0.0)


def _integrate(params, delta, config, initial_state, window: float) -> Trajectory:
    """`integrate`, sampled from the first t_eval >= window * t_eval[-1] on."""
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
                stacklevel=3,
            )
    omega_l = params.pump_amplitude()
    eps_p = params.probe_amplitude(delta)
    if omega_l > 0 and eps_p / omega_l > PERTURBATIVE_RATIO:
        warnings.warn(
            f"probe/pump ratio {eps_p / omega_l:.3g} exceeds {PERTURBATIVE_RATIO}",
            PerturbativeRegimeWarning,
            stacklevel=3,
        )
    op = solve_steady_state(params)
    if initial_state is None:
        y0 = np.array([op.q1s, 0.0, op.q2s, 0.0, op.cs.real, op.cs.imag])
    else:
        y0 = np.asarray(initial_state, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("All components of the initial state must be finite.")
    t_eval = np.arange(0.0, config.duration + 0.5 * config.dt, config.dt)
    scale = max(np.max(np.abs(y0)), 1.0)
    tolerance = DOP853_TOLERANCE_FACTOR * config.integrator_tolerance
    atol = tolerance * np.maximum(np.abs(y0), 1e-6 * scale)
    if tolerance < RTOL_FLOOR:
        warnings.warn(f"rtol {tolerance:.3g} raised to {RTOL_FLOOR:.3g}", TrajectoryConfigWarning, stacklevel=3)
    rhs = _rhs_factory(params, op, delta, eps_p)
    times = t_eval.tolist()
    first = bisect.bisect_left(times, window * times[-1])
    try:
        rows, failure = _dop853(rhs, y0, times, max(tolerance, RTOL_FLOOR), atol, first)
    except _NonFiniteState as exc:
        raise DivergenceError("trajectory diverged", time=float(exc.time)) from None
    t = t_eval[first:first + len(rows)]
    if failure:
        last_t, last_y = (float(t[-1]), rows[-1]) if rows else (0.0, y0)
        if not np.all(np.isfinite(last_y)):
            raise DivergenceError("trajectory diverged", time=last_t)
        raise IntegrationError(
            f"integrator failed at t = {last_t!r}: {failure}; consider a smaller "
            "kappa/omega1 separation or dimensionless units"
        )
    states = np.array(rows)
    if not np.all(np.isfinite(states)):
        bad = int(np.argmax(~np.all(np.isfinite(states), axis=1)))
        raise DivergenceError("trajectory left the finite domain", time=float(t[bad]))
    return Trajectory(t=t, states=states)


def _check_probe_detuning(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise ValueError(f"probe detuning delta = {delta!r} must be finite and positive")


def demodulate(
    trajectory: Trajectory,
    delta: float,
    config: TrajectoryConfig,
    probe_amplitude: float = 1.0,
) -> DemodResult:
    """Project the cavity field onto the three-tone ansatz by least squares.

    The analysis window starts after the transient fraction and is truncated
    to an integer number of beat periods, which makes the projection exact
    for a pure three-tone signal regardless of the window length.  The probe
    detuning sets the beat period 2pi/delta, so it must be finite and positive.
    """
    _check_probe_detuning(delta)
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
    """Integrate and demodulate in one step, normalizing by the probe drive.

    Only the window `demodulate` keeps is sampled; the steps are `integrate`'s, so
    the result is ``demodulate(integrate(...))``.  After a failure the fully sampled
    run is made: it fails as early or earlier, and names the last sample before the
    window.
    """
    _check_probe_detuning(delta)  # demodulate's rule, checked before the integration it would end
    eps_p = params.probe_amplitude(delta)
    if eps_p == 0:
        raise ValueError("probe drive is zero; nothing to demodulate against")
    try:
        trajectory = _integrate(params, delta, config, None, config.transient_fraction)
    except IntegrationError:  # read again outside the handler, so its message is not chained to this one
        trajectory = None
    if trajectory is None:  # warns from the same line as the first run, so not twice
        trajectory = _integrate(params, delta, config, None, 0.0)
    return demodulate(trajectory, delta, config, probe_amplitude=eps_p)


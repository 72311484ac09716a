"""Self-validation: cross-checks between the closed form and both oracles.

Runs deterministic randomized suites (fixed seed) and reports one
pass/fail entry per check with a machine-readable JSON rendering.  This is
what the ``validate`` CLI subcommand executes; exit status 0 means every
check passed.

Batches.  Each drawn-case check that needs no linear-system oracle solves a
batch of cases in one `solve_steady_states` call and evaluates it in one kernel
or `response.group_delays` call.  The cases are drawn in the rng order of a loop
over one case at a time, so the cases used, and where the rng stops, are that
loop's; the first failed case, in draw order, raises its one-point error
(`_raise_first`).  ``closed_form_vs_linsys``, ``linsys_properties`` and
``timedomain_end_to_end`` wait for a batched `linsys`, which solves one
`OperatingPoint` at a time.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import response
from .linsys import build_linear_system, solve_sidebands
from .params import DIMENSIONLESS, CavityParams, CouplingParams, DriveParams, MechanicalMode, SystemParams
from .response import CONVENTION_CORRECTED, group_delay, sideband_amplitude, transmission
from .steady import SteadyStates, solve_steady_state, solve_steady_states
from .sweep import PASS_POINTS
from .timedomain import LEAKAGE_LIMIT, Trajectory, TrajectoryConfig, demodulate, probe_response

DEFAULT_SEED = 20260810
ORACLE_TOL = 1e-9
CONDITION_ACCEPT = 1e8
QUALITY_GAMMA = 1.0 / 6700.0
ORACLE_CASES = 200  # accepted cases of closed_form_vs_linsys
DRAWS = 1000  # drawn cases of factorization_identity and group_delay_methods


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "passed": bool(self.passed),
            "checks": [
                {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def summary_lines(self):
        for c in self.checks:
            yield f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}"


def dimensionless_system(
    kappa: float,
    gamma1: float = QUALITY_GAMMA,
    gamma2: float = QUALITY_GAMMA,
    g_cav: float = 0.1,
    g_coulomb: float = 0.0,
    pump_amplitude: float | None = None,
    pump_power: float | None = None,
    probe_amplitude: float = 0.0,
    omega2: float = 1.0,
    mass2: float = 1.0,
    detuning_mode: str = "locked",
    detuning: float = 1.0,
) -> SystemParams:
    """Convenience constructor for dimensionless parameter sets."""
    if pump_amplitude is None and pump_power is None:
        pump_amplitude = 0.0
    return SystemParams(
        cavity=CavityParams(kappa=kappa, detuning_mode=detuning_mode, detuning=detuning),
        mech1=MechanicalMode(mass=1.0, omega=1.0, gamma=gamma1),
        mech2=MechanicalMode(mass=mass2, omega=omega2, gamma=gamma2),
        coupling=CouplingParams(g_cav=g_cav, g_coulomb=g_coulomb),
        drive=DriveParams(
            pump_power=pump_power,
            pump_amplitude=pump_amplitude,
            probe_amplitude=probe_amplitude if probe_amplitude > 0 else None,
        ),
        unit_mode=DIMENSIONLESS,
    )


def system_for_beta(kappa: float, beta: float, g_coulomb: float = 0.0, g_cav: float = 0.1,
                    **kwargs) -> SystemParams:
    """Locked-detuning dimensionless system with a requested beta coefficient."""
    n = 2.0 * beta / g_cav**2
    pump = math.sqrt(n * (kappa**2 + 1.0))
    return dimensionless_system(
        kappa=kappa, g_cav=g_cav, g_coulomb=g_coulomb, pump_amplitude=pump, **kwargs
    )


def draw_oracle_case(rng: np.random.Generator):
    """One random dimensionless case for the closed-form/linear-system check."""
    kappa = rng.uniform(0.05, 0.5)
    beta = rng.uniform(0.0, 1e-2)
    alpha_strength = rng.uniform(0.0, 1e-2)  # hbar^2 g_c^2 / (m1 m2)
    delta = rng.uniform(0.5, 1.5)
    params = system_for_beta(kappa, beta, g_coulomb=math.sqrt(alpha_strength))
    return params, delta


def check_closed_form_vs_linsys(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    accepted = 0
    tries = 0
    while accepted < ORACLE_CASES and tries < ORACLE_CASES * 20:
        tries += 1
        params, delta = draw_oracle_case(rng)
        op = solve_steady_state(params)
        sol = solve_sidebands(delta, params, op)
        if sol.condition_estimate >= CONDITION_ACCEPT:
            continue
        accepted += 1
        x = sideband_amplitude(delta, params, op)
        worst = max(worst, abs(x - sol.c_minus) / abs(sol.c_minus))
    detail = f"{accepted} cases, max relative error {worst:.3e} (tol {ORACLE_TOL:.0e})"
    return CheckResult("closed_form_vs_linsys", accepted == ORACLE_CASES and worst <= ORACLE_TOL, detail)


def pump_off_system(kappa: float, delta_c: float) -> SystemParams:
    """The cavity alone at explicit detuning ``delta_c``: no pump, so t_p is an all-pass."""
    return dimensionless_system(kappa=kappa, pump_amplitude=0.0, detuning_mode="explicit", detuning=delta_c)


def _oracle_states(cases):
    """(operating points, detunings) of `draw_oracle_case` cases, which differ in kappa, g_c and the pump."""
    kappa, g_c, pump, delta = map(np.array, zip(*(
        (p.cavity.kappa, p.coupling.g_coulomb, p.drive.pump_amplitude, d) for p, d in cases)))
    swept = {"cavity": {"kappa": kappa}, "coupling": {"g_coulomb": g_c}, "drive": {"pump_amplitude": pump}}
    return solve_steady_states(cases[0][0], swept), delta


def _pump_off_states(kappa, delta_c):
    """The operating points of pump-off cavities, which differ in kappa and delta_c (arrays)."""
    swept = {"cavity": {"kappa": kappa, "detuning": delta_c}}
    return solve_steady_states(pump_off_system(kappa[0], delta_c[0]), swept)


def _raise_first(failed, cases, one_point):
    """Run ``one_point`` on each failed case in draw order: the first that fails alone raises its error."""
    for i in np.flatnonzero(failed):
        one_point(*cases[i])


def check_pump_off_allpass(rng: np.random.Generator) -> CheckResult:
    worst_mag, worst_tau = _pump_off_deviations(rng)
    detail = f"max | |t_p|-1 | = {worst_mag:.3e}, max tau error {worst_tau:.3e}"
    return CheckResult("pump_off_allpass", worst_mag <= 1e-12 and worst_tau <= 1e-9, detail)


def _pump_off_deviations(rng: np.random.Generator) -> tuple[float, float]:
    """max | |t_p| - 1 | over delta_c +- 3 and max |tau kappa/2 - 1| at delta_c, on 50 drawn cavities;
    a cavity's 41 detunings and delta_c are one column of the group-delay call."""
    cases = [(rng.uniform(0.02, 0.5), rng.uniform(0.2, 2.0)) for _ in range(50)]
    kappa, delta_c = map(np.array, zip(*cases))
    states = _pump_off_states(kappa, delta_c)
    grid = np.vstack([np.linspace(delta_c - 3.0, delta_c + 3.0, 41), delta_c])
    _, tau, magnitude, status = response.group_delays(grid, states.coefficients, CONVENTION_CORRECTED)
    _raise_first(states.status | status.any(axis=0), cases, _pump_off_cavity)
    tau_error = abs(tau[-1] - 2.0 / kappa) / (2.0 / kappa)
    return float(abs(magnitude[:-1] - 1.0).max()), float(tau_error.max())


def _pump_off_cavity(kappa: float, delta_c: float) -> None:
    """One cavity of `_pump_off_deviations`, one detuning at a time."""
    params = pump_off_system(kappa, delta_c)
    op = solve_steady_state(params)
    for delta in np.linspace(delta_c - 3.0, delta_c + 3.0, 41):
        transmission(float(delta), params, op)
    group_delay(delta_c, params, op)


def check_factorization_identity(rng: np.random.Generator) -> CheckResult:
    worst = _factorization_deviation(rng, DRAWS)
    detail = f"{DRAWS} draws, max relative deviation {worst:.3e}"
    return CheckResult("factorization_identity", worst <= 1e-12, detail)


def _factorization_deviation(rng: np.random.Generator, draws: int) -> float:
    """max |X - r| / |X|, r = -i / (Delta_c - delta - i kappa), pump off, on ``draws`` drawn cases;
    r stays a Python complex, as numpy's division rounds otherwise."""
    cases = [(rng.uniform(0.02, 0.5), rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(draws)]
    kappa, delta_c, delta = map(np.array, zip(*cases))
    states = _pump_off_states(kappa, delta_c)
    x, _, status = response.amplitude_kernel(delta, states.coefficients)
    _raise_first(states.status | status, cases, _pump_off_amplitude)
    worst = 0.0
    for (k, d_c, d), x_k in zip(cases, map(complex, *(part.tolist() for part in x))):
        reference = -1j / (d_c - d - 1j * k)
        worst = max(worst, abs(x_k - reference) / abs(x_k))
    return worst


def _pump_off_amplitude(kappa: float, delta_c: float, delta: float) -> complex:
    params = pump_off_system(kappa, delta_c)
    return sideband_amplitude(delta, params, solve_steady_state(params))


def check_group_delay_methods(rng: np.random.Generator) -> CheckResult:
    """Analytic against finite-difference group delay on the first `DRAWS` cases with |t_p| > 1e-6."""
    worst, used = _group_delay_disagreement(rng, DRAWS)
    detail = f"{used} points, max relative disagreement {worst:.3e}"
    return CheckResult("group_delay_methods", worst <= 1e-6, detail)


def _group_delay_disagreement(rng: np.random.Generator, draws: int) -> tuple[float, int]:
    """The largest relative analytic/finite-difference difference, and the cases used.  Each batch
    draws the accepted cases still missing (at most PASS_POINTS) and rejects |t_p| <= 1e-6."""
    worst, used = 0.0, 0
    while used < draws:
        cases = [draw_oracle_case(rng) for _ in range(min(draws - used, PASS_POINTS))]
        states, delta = _oracle_states(cases)
        fd, analytic, t_abs, status = response.group_delays(delta, states.coefficients, CONVENTION_CORRECTED)
        _raise_first(states.status | status, cases, _group_delay_case)
        kept = ~(t_abs <= 1e-6)  # |t_p| is libm hypot, as abs(complex)
        used += int(kept.sum())
        relative = abs(analytic - fd)[kept] / np.maximum(abs(analytic[kept]), 1e-300)
        worst = max(worst, float(relative.max(initial=0.0)))
    return worst, used


def _group_delay_case(params: SystemParams, delta: float) -> None:
    op = solve_steady_state(params)
    if not abs(transmission(delta, params, op).t_p) <= 1e-6:  # a rejected case is not evaluated
        group_delay(delta, params, op, "finite-difference")


def check_linsys_properties(rng: np.random.Generator) -> CheckResult:
    problems = []
    # linearity of the solve in b.  Scaling b by 2, 0.5 or -1 commutes with
    # every rounding, so those solves must equal s*x bit for bit.  Scaling by
    # 1j or 2j swaps real and imaginary parts, which a complex solve need not
    # round alike; those must agree with s*x to the forward error of a
    # backward-stable solve, eps cond(a) relative to max|s*x|.
    params, delta = draw_oracle_case(rng)
    op = solve_steady_state(params)
    a, b = build_linear_system(delta, params, op)
    x = np.linalg.solve(a, b)
    for s in (2.0, 0.5, -1.0):
        if not np.array_equal(np.linalg.solve(a, s * b), s * x):
            problems.append(f"linearity violated for s = {s}")
    bound = np.finfo(float).eps * np.linalg.cond(a)
    for s in (1j, 2j):
        deviation = np.max(np.abs(np.linalg.solve(a, s * b) - s * x)) / np.max(np.abs(s * x))
        if deviation > bound:
            problems.append(
                f"linearity violated for s = {s}: {deviation:.3e} > eps cond(a) = {bound:.3e}"
            )
    # gauge invariance
    sol_rot = solve_sidebands(delta, params, op, use_gauge_rotation=True)
    sol_raw = solve_sidebands(delta, params, op, use_gauge_rotation=False)
    gauge_err = abs(sol_rot.c_minus - sol_raw.c_minus) / abs(sol_rot.c_minus)
    if gauge_err > 1e-12:
        problems.append(f"gauge dependence {gauge_err:.3e}")
    # residuals over random draws
    for _ in range(50):
        params, delta = draw_oracle_case(rng)
        op = solve_steady_state(params)
        a, b = build_linear_system(delta, params, op)
        sol = solve_sidebands(delta, params, op)
        x_vec = np.array([sol.c_minus, np.conj(sol.c_plus), sol.q1_minus, sol.q1_minus,
                          sol.q2_minus, sol.q2_minus])
        residual = np.linalg.norm(a @ x_vec - b) / np.linalg.norm(b)
        if residual > 1e-10:
            problems.append(f"reconstructed residual {residual:.3e} at delta {delta:.3f}")
            break
    # Coulomb decoupling limit
    def c_minus(g_c):
        params = system_for_beta(0.3, 5e-3, g_coulomb=g_c)
        return solve_sidebands(1.2, params, solve_steady_state(params)).c_minus

    reference = c_minus(0.0)
    errors = [abs(c_minus(g_c) - reference) for g_c in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)]
    if not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"g_c -> 0 limit not monotone: {errors}")
    if errors[-1] >= 1e-10:
        problems.append(f"g_c -> 0 limit does not reach 1e-10: {errors[-1]:.3e}")
    return CheckResult("linsys_properties", not problems, "; ".join(problems) or "all properties hold")


def check_steady_state(rng: np.random.Generator) -> CheckResult:
    cases = [draw_oracle_case(rng) for _ in range(100)]
    states, _ = _oracle_states(cases)
    _raise_first(states.status, cases, lambda params, _: solve_steady_state(params))
    omega_sq = np.array([params.pump_amplitude() ** 2 for params, _ in cases])
    worst_residual = float((states.residual / np.maximum(omega_sq, 1.0)).max())
    problems = [f"residual {worst_residual:.3e}"] if worst_residual > 1e-12 else []
    # bistability on the reference dimensionless scan
    pumps = np.linspace(0.05, 0.45, 81).tolist()
    scan = _pump_scan(pumps, kappa=0.1, g_cav=1.0, detuning=1.0)
    knee = np.flatnonzero(scan.branch_count == 3)[:1]
    below = scan.photon_number[:knee[0] if knee.size else None]
    rises = np.count_nonzero(below < np.append(-1.0, below[:-1]))
    problems += ["lowest branch not monotone below the knee"] * rises
    if not knee.size:
        problems.append("no bistable region found on the reference scan")
    # quadratic pump scaling for a linear cavity
    n1, n2 = _pump_scan([0.2, 0.6], kappa=0.3, g_cav=0.0, detuning=0.7).photon_number.tolist()
    if abs(n2 - 9.0 * n1) > 1e-12 * n2:
        problems.append(f"pump scaling violated: {n2} vs {9 * n1}")
    detail = "; ".join(problems) or (
        f"max residual {worst_residual:.3e}; bistability first at pump {pumps[knee[0]]:.4f}"
    )
    return CheckResult("steady_state", not problems, detail)


def _pump_scan(pumps: list[float], **system) -> SteadyStates:
    """The operating points of one explicit-detuning system over pump amplitudes, as one batch."""
    at = partial(dimensionless_system, detuning_mode="explicit", **system)
    states = solve_steady_states(at(), {"drive": {"pump_amplitude": np.array(pumps)}})
    cases = [(pump,) for pump in pumps]
    _raise_first(states.status, cases, lambda pump: solve_steady_state(at(pump_amplitude=pump)))
    return states


def check_timedomain(rng: np.random.Generator) -> CheckResult:
    """The demodulated c_- of two fixed ring-downs against the 6x6 solve; neither reads the seed."""
    worst = 0.0
    rejected = []
    for kappa, gamma, g_cav, g_c, power, delta in (
        (0.2, 0.05, 0.10, 0.10, 1.0, 1.03),
        (0.3, 0.06, 0.08, 0.00, 1.5, 0.97),
    ):
        pump = math.sqrt(2.0 * kappa * power)
        params = dimensionless_system(
            kappa=kappa, gamma1=gamma, gamma2=gamma, g_cav=g_cav, g_coulomb=g_c,
            pump_power=power, pump_amplitude=None, probe_amplitude=1e-3 * pump,
        )
        config = TrajectoryConfig(duration=20.0 * 2.0 * math.pi / gamma, dt=(2.0 * math.pi / delta) / 16.0,
                                  integrator_tolerance=1e-9)
        op = solve_steady_state(params)
        reference = solve_sidebands(delta, params, op).c_minus
        demod = probe_response(params, delta, config)
        worst = max(worst, abs(demod.c_minus_est - reference) / abs(reference))
        if not demod.accepted:
            rejected.append(f"demodulation leakage {demod.leakage:.3e} at kappa = {kappa} "
                            f"(limit {LEAKAGE_LIMIT:.0e})")
    detail = "; ".join([f"max relative error {worst:.3e} (tol 1e-02)"] + rejected)
    return CheckResult("timedomain_end_to_end", worst <= 1e-2 and not rejected, detail)


def check_demodulation(rng: np.random.Generator) -> CheckResult:
    problems = []
    delta = 1.1
    t = np.arange(0.0, 4000.0, 0.3)
    field = 2.0 + 0.1 * np.exp(-1j * delta * t)
    config = TrajectoryConfig(duration=float(t[-1]), dt=0.3, transient_fraction=0.5)

    def demodulated(signal):
        states = np.zeros((t.size, 6))
        states[:, 4], states[:, 5] = signal.real, signal.imag
        return demodulate(Trajectory(t=t, states=states), delta, config)

    result = demodulated(field)
    if abs(result.cs_est - 2.0) > 1e-12 or abs(result.c_minus_est - 0.1) > 1e-12:
        problems.append("exact three-tone projection failed")
    if abs(result.c_plus_est) > 1e-12 or result.leakage > 1e-24:
        problems.append("spurious tone content on a clean signal")
    noise = 1e-3 * (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
    noisy = demodulated(field + noise)
    if abs(noisy.c_minus_est - 0.1) > 1e-3:
        problems.append(f"noisy coefficient error {abs(noisy.c_minus_est - 0.1):.2e}")
    expected_leak = float(np.sum(np.abs(noise) ** 2) / np.sum(np.abs(field + noise) ** 2))
    if not 0.1 * expected_leak < noisy.leakage < 10 * expected_leak:
        problems.append(f"leakage {noisy.leakage:.2e} vs expected {expected_leak:.2e}")
    return CheckResult("demodulation", not problems, "; ".join(problems) or "exact and noisy cases hold")


def run_validation(seed: int = DEFAULT_SEED) -> ValidationReport:
    """Run every cross-check with a deterministic RNG stream per check."""
    suites = (
        check_closed_form_vs_linsys,
        check_pump_off_allpass,
        check_factorization_identity,
        check_group_delay_methods,
        check_linsys_properties,
        check_steady_state,
        check_demodulation,
        check_timedomain,
    )
    checks = tuple(fn(np.random.default_rng([seed, index])) for index, fn in enumerate(suites))
    return ValidationReport(seed=seed, checks=checks)

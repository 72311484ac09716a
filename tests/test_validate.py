import itertools

import numpy as np
import pytest

import oemsim.validate
from oemsim.linsys import solve_sidebands
from oemsim.errors import MechanicalPoleError, StaticInstabilityError
from oemsim.response import group_delay, sideband_amplitude, transmission
from oemsim.steady import solve_steady_state
from oemsim.timedomain import DemodResult
from oemsim.validate import dimensionless_system, draw_oracle_case, system_for_beta

# a zero of t_p (kappa 0.2, g_c = 0): |t_p| = 1.5e-13 at DARK_DELTAS[0] and 6.8e-7 at DARK_DELTAS[1]
DARK_PARAMS = system_for_beta(0.2, 1.477893674759695e-05)
DARK_DELTAS = (0.9999926809374519, 0.9999926810374519)


@pytest.mark.parametrize("leakage, passed", [(1e-3, False), (0.0, True)])
def test_timedomain_check_enforces_demodulation_leakage(monkeypatch, leakage, passed):
    def exact_probe_response(params, delta, config):
        # the 6x6 answer itself, so only the leakage can fail the check
        op = solve_steady_state(params)
        c_minus = solve_sidebands(delta, params, op).c_minus
        return DemodResult(cs_est=op.cs, c_minus_est=c_minus, c_plus_est=0j, leakage=leakage)

    monkeypatch.setattr(oemsim.validate, "probe_response", exact_probe_response)
    result = oemsim.validate.check_timedomain(np.random.default_rng(0))
    assert result.passed is passed
    assert ("demodulation leakage" in result.detail) is not passed


def test_linsys_properties_pass_on_seeds_0_to_39():
    # the rng stream run_validation gives the check (index 4) for each seed
    failing = [
        seed for seed in range(40)
        if not oemsim.validate.check_linsys_properties(np.random.default_rng([seed, 4])).passed
    ]
    assert failing == []


def scalar_group_delay_disagreement(rng, draws=1000, draw=draw_oracle_case):
    """The group-delay check one point at a time, as it was written before it was batched."""
    worst = 0.0
    used = 0
    while used < draws:
        params, delta = draw(rng)
        op = solve_steady_state(params)
        if abs(transmission(delta, params, op).t_p) <= 1e-6:
            continue
        used += 1
        analytic = group_delay(delta, params, op, "analytic")
        fd = group_delay(delta, params, op, "finite-difference")
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), 1e-300))
    return worst, used


@pytest.mark.parametrize("seed", range(20))
def test_batched_group_delay_check_equals_the_scalar_loop(seed):
    # the rng stream run_validation gives the check (index 3) for each seed
    scalar_rng, batch_rng = (np.random.default_rng([seed, 3]) for _ in range(2))
    worst, used = scalar_group_delay_disagreement(scalar_rng)
    batch_worst, batch_used = oemsim.validate._group_delay_disagreement(batch_rng, 1000)
    assert (repr(batch_worst), batch_used) == (repr(float(worst)), used)
    assert batch_rng.random() == scalar_rng.random()  # both stopped after the same draw


def interleaved_dark_draws():
    """draw_oracle_case, with one of DARK_DELTAS (rejected) after every 5 draws."""
    calls = itertools.count()

    def draw(rng):
        n = next(calls)
        return (DARK_PARAMS, DARK_DELTAS[n // 6 % 2]) if n % 6 == 5 else draw_oracle_case(rng)

    return draw, calls


def test_batched_group_delay_check_draws_again_for_rejected_cases(monkeypatch):
    for delta in DARK_DELTAS:
        assert abs(transmission(delta, DARK_PARAMS, solve_steady_state(DARK_PARAMS)).t_p) <= 1e-6
    draw, scalar_calls = interleaved_dark_draws()
    scalar_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
    expected = scalar_group_delay_disagreement(scalar_rng, draw=draw)
    draw, batch_calls = interleaved_dark_draws()
    monkeypatch.setattr(oemsim.validate, "draw_oracle_case", draw)
    worst, used = oemsim.validate._group_delay_disagreement(batch_rng, 1000)
    assert (repr(worst), used) == (repr(float(expected[0])), expected[1])
    # 1000 accepted and 199 rejected draws on both sides, and the same rng position after them
    assert next(batch_calls) == next(scalar_calls) == 1199
    assert batch_rng.random() == scalar_rng.random()
    result = oemsim.validate.check_group_delay_methods(np.random.default_rng(5))
    assert result.passed and result.detail.startswith("1000 points")


def scalar_pump_off_deviations(rng):
    """The pump-off all-pass check one detuning at a time, as it was written before it was batched."""
    worst_mag = 0.0
    worst_tau = 0.0
    for _ in range(50):
        kappa = rng.uniform(0.02, 0.5)
        delta_c = rng.uniform(0.2, 2.0)
        params = oemsim.validate.pump_off_system(kappa, delta_c)
        op = solve_steady_state(params)
        for delta in np.linspace(delta_c - 3.0, delta_c + 3.0, 41):
            sample = transmission(float(delta), params, op)
            worst_mag = max(worst_mag, abs(abs(sample.t_p) - 1.0))
        tau = group_delay(delta_c, params, op)
        worst_tau = max(worst_tau, abs(tau - 2.0 / kappa) / (2.0 / kappa))
    return worst_mag, worst_tau


def scalar_factorization_deviation(rng, draws=1000):
    """The factorization-identity check one draw at a time, as it was written before it was batched."""
    worst = 0.0
    for _ in range(draws):
        kappa = rng.uniform(0.02, 0.5)
        delta_c = rng.uniform(0.2, 2.0)
        delta = rng.uniform(-2.0, 2.0)
        params = oemsim.validate.pump_off_system(kappa, delta_c)
        op = solve_steady_state(params)
        x = sideband_amplitude(delta, params, op)
        reference = -1j / (delta_c - delta - 1j * kappa)
        worst = max(worst, abs(x - reference) / abs(x))
    return worst


PUMP_OFF_CHECKS = {  # run_validation's rng stream index, the batched check and its scalar loop
    "pump_off_allpass": (1, oemsim.validate._pump_off_deviations, scalar_pump_off_deviations),
    "factorization_identity": (
        2, lambda rng: oemsim.validate._factorization_deviation(rng, 1000), scalar_factorization_deviation
    ),
}


@pytest.mark.parametrize("check", list(PUMP_OFF_CHECKS))
@pytest.mark.parametrize("seed", range(20))
def test_batched_pump_off_checks_equal_the_scalar_loops(seed, check):
    index, batched, scalar = PUMP_OFF_CHECKS[check]
    scalar_rng, batch_rng = (np.random.default_rng([seed, index]) for _ in range(2))
    assert repr(batched(batch_rng)) == repr(scalar(scalar_rng))
    assert batch_rng.random() == scalar_rng.random()  # both stopped after the same draw


class ScriptedDraws:
    """An rng whose uniform draws are the given values, in order."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, low, high):
        return next(self.values)


# uniform draws on which an undamped second resonator (omega2 = 1, pole at delta = 1) fails: the
# first cavity's grid, delta_c +- 3 at delta_c = 0.7, holds delta = 1, and so does the second
# factorization draw; no later grid holds it, and tau is taken at delta_c, never at the pole
POLE_DRAWS = {
    "pump_off_allpass": (0.1, 0.7) + (0.2, 0.55) * 49,
    "factorization_identity": (0.1, 0.7, 0.3, 0.2, 0.7, 1.0) + (0.3, 0.55, 0.3) * 998,
}


@pytest.mark.parametrize("check", list(PUMP_OFF_CHECKS))
def test_batched_pump_off_checks_raise_the_scalar_loops_first_error(check, monkeypatch):
    def undamped(kappa, delta_c):
        return dimensionless_system(kappa=kappa, gamma2=0.0, pump_amplitude=0.0,
                                    detuning_mode="explicit", detuning=delta_c)

    assert 1.0 in np.linspace(0.7 - 3.0, 0.7 + 3.0, 41)
    assert 1.0 not in np.linspace(0.55 - 3.0, 0.55 + 3.0, 41)
    monkeypatch.setattr(oemsim.validate, "pump_off_system", undamped)
    _, batched, scalar = PUMP_OFF_CHECKS[check]
    draws = POLE_DRAWS[check]
    errors = []
    for run in (batched, scalar):
        with pytest.raises(MechanicalPoleError) as err:
            run(ScriptedDraws(draws))
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def scalar_check_steady_state(rng):
    """check_steady_state one operating point at a time, as it was written before it was batched."""
    problems = []
    worst_residual = 0.0
    for _ in range(100):
        params, _ = oemsim.validate.draw_oracle_case(rng)
        op = solve_steady_state(params)
        omega_sq = params.pump_amplitude() ** 2
        worst_residual = max(worst_residual, op.residual / max(omega_sq, 1.0))
    if worst_residual > 1e-12:
        problems.append(f"residual {worst_residual:.3e}")
    found = None
    previous_n = -1.0
    for pump in np.linspace(0.05, 0.45, 81):
        params = dimensionless_system(
            kappa=0.1, g_cav=1.0, pump_amplitude=float(pump), detuning_mode="explicit", detuning=1.0
        )
        op = solve_steady_state(params)
        if op.branch_count == 3 and found is None:
            found = float(pump)
        if found is None:
            if op.photon_number < previous_n:
                problems.append("lowest branch not monotone below the knee")
            previous_n = op.photon_number
    if found is None:
        problems.append("no bistable region found on the reference scan")
    n1, n2 = (
        solve_steady_state(dimensionless_system(
            kappa=0.3, g_cav=0.0, pump_amplitude=pump, detuning_mode="explicit", detuning=0.7
        )).photon_number
        for pump in (0.2, 0.6)
    )
    if abs(n2 - 9.0 * n1) > 1e-12 * n2:
        problems.append(f"pump scaling violated: {n2} vs {9 * n1}")
    detail = "; ".join(problems) or (
        f"max residual {worst_residual:.3e}; bistability first at pump {found:.4f}"
    )
    return oemsim.validate.CheckResult("steady_state", not problems, detail)


@pytest.mark.parametrize("seed", range(20))
def test_batched_steady_state_check_equals_the_scalar_loop(seed):
    # the rng stream run_validation gives the check (index 5) for each seed
    scalar_rng, batch_rng = (np.random.default_rng([seed, 5]) for _ in range(2))
    batched = oemsim.validate.check_steady_state(batch_rng)
    assert repr(batched) == repr(scalar_check_steady_state(scalar_rng))
    assert batch_rng.random() == scalar_rng.random()  # both stopped after the same draw


def test_batched_steady_state_check_raises_the_scalar_loops_first_error(monkeypatch):
    # draws 37 and 60 are statically unstable, K = 1 - g_c^2 = -1.25 and -3; the first must raise
    unstable = {37: system_for_beta(0.2, 1e-3, g_coulomb=1.5), 60: system_for_beta(0.2, 1e-3, g_coulomb=2.0)}

    def draws():
        calls = itertools.count()

        def draw(rng):
            params, delta = draw_oracle_case(rng)
            return unstable.get(next(calls), params), delta

        return draw

    errors = []
    for check in (oemsim.validate.check_steady_state, scalar_check_steady_state):
        monkeypatch.setattr(oemsim.validate, "draw_oracle_case", draws())
        with pytest.raises(StaticInstabilityError) as err:
            check(np.random.default_rng(3))
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "Coulomb softening exceeds mechanical stiffness (K = -1.25 <= 0)"

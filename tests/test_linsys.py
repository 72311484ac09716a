import numpy as np
import pytest

from oemsim.errors import SingularResponseError
from oemsim.linsys import build_linear_system, solve_sidebands
from oemsim.response import sideband_amplitude
from oemsim.steady import solve_steady_state
from oemsim.validate import dimensionless_system, system_for_beta


def test_pump_off_empty_cavity_response(pump_off):
    op = solve_steady_state(pump_off)
    kappa = pump_off.cavity.kappa
    for delta in (0.2, 0.95, 1.3):
        sol = solve_sidebands(delta, pump_off, op)
        expected = -1j / (1.0 - delta - 1j * kappa)
        assert abs(sol.c_minus - expected) <= 1e-13 * abs(expected)
        assert sol.c_plus == 0.0


def test_no_optomechanical_coupling_decouples_cavity_row():
    params = dimensionless_system(kappa=0.2, g_cav=0.0, g_coulomb=0.1, pump_amplitude=0.5,
                                  detuning_mode="explicit", detuning=1.0)
    op = solve_steady_state(params)
    a, _ = build_linear_system(0.9, params, op)
    assert np.all(a[0, 1:] == 0.0)
    assert np.all(a[1, 2:] == 0.0)


def test_no_coulomb_coupling_decouples_mirror2():
    params = system_for_beta(kappa=0.3, beta=5e-3, g_coulomb=0.0)
    op = solve_steady_state(params)
    a, _ = build_linear_system(1.05, params, op)
    assert a[4, 2] == 0.0 and a[5, 3] == 0.0
    # and the solution must match the single-resonator closed form
    sol = solve_sidebands(1.05, params, op)
    x = sideband_amplitude(1.05, params, op)
    assert abs(sol.c_minus - x) <= 1e-9 * abs(x)
    assert sol.q2_minus == 0.0


def test_zero_detuning_frequency_structure():
    # at delta = 0 with a real steady field the mechanical rows are real and
    # the two cavity rows are element-wise conjugates (the reality pairing)
    params = system_for_beta(kappa=0.25, beta=3e-3, g_coulomb=0.1)
    op = solve_steady_state(params)
    a, _ = build_linear_system(0.0, params, op)
    assert np.all(a[2:, :].imag == 0.0)
    assert a[1, 1] == np.conj(a[0, 0])
    assert a[1, 3] == np.conj(a[0, 2])
    sol = solve_sidebands(0.0, params, op)
    assert sol.condition_estimate >= 1.0


def test_solution_matches_closed_form(rng):
    for _ in range(30):
        params = system_for_beta(
            kappa=float(rng.uniform(0.05, 0.5)),
            beta=float(rng.uniform(0.0, 1e-2)),
            g_coulomb=float(rng.uniform(0.0, 0.1)),
        )
        op = solve_steady_state(params)
        delta = float(rng.uniform(0.5, 1.5))
        sol = solve_sidebands(delta, params, op)
        x = sideband_amplitude(delta, params, op)
        assert abs(sol.c_minus - x) <= 1e-9 * abs(x)


def test_rhs_linearity_is_exact():
    params = system_for_beta(kappa=0.3, beta=4e-3, g_coulomb=0.12)
    op = solve_steady_state(params)
    a, b = build_linear_system(1.1, params, op)
    x = np.linalg.solve(a, b)
    for s in (2.0, 0.25, 1j, 2j):
        assert np.array_equal(np.linalg.solve(a, s * b), s * x)


def test_residual_bound(rng):
    for _ in range(25):
        params = system_for_beta(
            kappa=float(rng.uniform(0.05, 0.5)),
            beta=float(rng.uniform(0.0, 1e-2)),
            g_coulomb=float(rng.uniform(0.0, 0.1)),
        )
        op = solve_steady_state(params)
        delta = float(rng.uniform(0.5, 1.5))
        a, b = build_linear_system(delta, params, op)
        sol = solve_sidebands(delta, params, op)
        x = np.array(
            [sol.c_minus, np.conj(sol.c_plus), sol.q1_minus, sol.q1_minus,
             sol.q2_minus, sol.q2_minus],
            dtype=complex,
        )
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_coulomb_limit_is_monotone():
    reference_params = system_for_beta(kappa=0.3, beta=5e-3, g_coulomb=0.0)
    reference = solve_sidebands(1.2, reference_params, solve_steady_state(reference_params)).c_minus
    errors = []
    for g_c in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        params = system_for_beta(kappa=0.3, beta=5e-3, g_coulomb=g_c)
        sol = solve_sidebands(1.2, params, solve_steady_state(params))
        errors.append(abs(sol.c_minus - reference))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-10


def test_gauge_rotation_is_unobservable(slowfast_spectrum):
    op = solve_steady_state(slowfast_spectrum)
    rotated = solve_sidebands(1.05, slowfast_spectrum, op, use_gauge_rotation=True)
    raw = solve_sidebands(1.05, slowfast_spectrum, op, use_gauge_rotation=False)
    assert abs(rotated.c_minus - raw.c_minus) <= 1e-12 * abs(rotated.c_minus)
    assert abs(abs(rotated.c_plus) - abs(raw.c_plus)) <= 1e-12 * max(abs(rotated.c_plus), 1e-300)


def test_four_wave_mixing_suppressed_at_dark_center(slowfast_spectrum):
    # resolved-sideband working point with the Coulomb notch at delta = omega1
    op = solve_steady_state(slowfast_spectrum)
    sol = solve_sidebands(1.0, slowfast_spectrum, op)
    assert abs(sol.c_plus) / abs(sol.c_minus) < 0.1


def test_regular_at_second_resonator_pole():
    # chi2 = 0 poles the closed-form alpha but the linear system stays
    # regular: the undamped resonator clamps the mirror (dark response)
    params = dimensionless_system(kappa=0.2, gamma2=0.0, g_coulomb=0.1, pump_amplitude=0.3)
    op = solve_steady_state(params)
    sol = solve_sidebands(1.0, params, op)
    bare = -1j / (op.delta_eff - 1.0 - 1j * 0.2)
    assert abs(sol.c_minus - bare) <= 1e-6 * abs(bare)
    assert abs(sol.q1_minus) <= 1e-12


def test_ill_conditioned_system_raises():
    # pump off and undamped mirror 1 at resonance, held only by a g_c = 1e-14 link to mirror 2:
    # no row is empty, but the condition passes the limit
    params = dimensionless_system(kappa=0.2, gamma1=0.0, gamma2=1e-2, g_coulomb=1e-14, pump_amplitude=0.0)
    op = solve_steady_state(params)
    with pytest.raises(SingularResponseError, match=r"near-singular \(condition 2e\+12\)"):
        solve_sidebands(1.0, params, op)


def test_singular_system_raises():
    # undamped decoupled mirror 1 driven exactly on resonance: its row vanishes
    params = dimensionless_system(kappa=0.2, gamma1=0.0, g_cav=0.0, g_coulomb=0.0,
                                  pump_amplitude=0.3, detuning_mode="explicit", detuning=1.0)
    op = solve_steady_state(params)
    with pytest.raises(SingularResponseError):
        solve_sidebands(1.0, params, op)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oemsim.steady
from oemsim import InvariantViolationError
from oemsim.errors import StaticInstabilityError
from oemsim.steady import (
    photon_number_roots,
    photon_number_roots_batch,
    solve_steady_state,
    solve_steady_states,
)
from oemsim.validate import dimensionless_system, system_for_beta


def bistable_system(pump):
    """Reference dimensionless configuration with a bistable knee."""
    return dimensionless_system(
        kappa=0.1, g_cav=1.0, pump_amplitude=pump, detuning_mode="explicit", detuning=1.0
    )


def brute_force_root_count(a, delta_c, kappa, omega_l, n_max, samples=200_001):
    """Independent oracle: count sign changes of the fixed-point function."""
    n = np.linspace(0.0, n_max, samples)
    f = n * (kappa**2 + (delta_c - a * n) ** 2) - omega_l**2
    signs = np.sign(f)
    crossings = np.nonzero(np.diff(signs) != 0)[0]
    return len(crossings)


def test_undriven_cavity():
    params = dimensionless_system(kappa=0.3, pump_amplitude=0.0,
                                  detuning_mode="explicit", detuning=0.8)
    op = solve_steady_state(params)
    assert op.photon_number == 0.0
    assert op.q1s == 0.0 and op.q2s == 0.0
    assert op.delta_eff == 0.8
    assert op.branch_count == 1


@pytest.mark.parametrize(
    "params, branches",
    [
        (bistable_system(0.25), 3),  # explicit detuning with a pump: roots of the cubic
        (system_for_beta(kappa=0.2, beta=5e-3), 1),  # locked detuning
        (dimensionless_system(kappa=0.3, pump_amplitude=0.0, detuning_mode="explicit", detuning=0.8), 1),
    ],
    ids=["explicit-bistable", "locked", "pump-off"],
)
def test_operating_point_carries_python_numbers(params, branches):
    # the response closed form rounds by operand type: a numpy scalar here
    # would switch its complex divisions to numpy's
    op = solve_steady_state(params)
    assert op.branch_count == branches
    for name in ("photon_number", "delta_eff", "delta_c", "q1s", "q2s", "residual"):
        assert type(getattr(op, name)) is float, name
    assert type(op.cs) is complex


def test_linear_cavity_on_resonance():
    params = dimensionless_system(kappa=0.25, g_cav=0.0, pump_amplitude=0.4,
                                  detuning_mode="explicit", detuning=0.0)
    op = solve_steady_state(params)
    assert op.photon_number == pytest.approx(0.4**2 / 0.25**2, rel=1e-15)


def test_bistable_scan_finds_three_branches():
    scan = np.linspace(0.05, 0.45, 81)
    bistable = [
        float(p) for p in scan if solve_steady_state(bistable_system(float(p))).branch_count == 3
    ]
    assert bistable, "no bistable point located on the scan"
    # probe mid-window, away from the knees where two roots nearly coincide
    pump = bistable[len(bistable) // 2]
    count = brute_force_root_count(1.0, 1.0, 0.1, pump, n_max=2.0)
    assert count == 3
    # every reported root satisfies the fixed point to 1e-12
    roots = photon_number_roots(1.0, 1.0, 0.1, pump)
    assert len(roots) == 3
    for n in roots:
        residual = abs(n * (0.1**2 + (1.0 - n) ** 2) - pump**2)
        assert residual <= 1e-12 * max(pump**2, 1.0)
    op = solve_steady_state(bistable_system(pump))
    assert op.photon_number == pytest.approx(roots[0])


def test_lowest_branch_continuity_below_knee():
    previous = -1.0
    previous_count = None
    for pump in np.linspace(0.01, 0.45, 120):
        op = solve_steady_state(bistable_system(float(pump)))
        if previous_count is not None and op.branch_count == previous_count:
            assert op.photon_number >= previous
        previous, previous_count = op.photon_number, op.branch_count


def test_residual_bound_holds_on_random_draws(rng):
    for _ in range(200):
        params = system_for_beta(
            kappa=float(rng.uniform(0.05, 0.5)),
            beta=float(rng.uniform(0.0, 1e-2)),
            g_coulomb=float(rng.uniform(0.0, 0.1)),
        )
        op = solve_steady_state(params)
        assert op.residual <= 1e-12 * max(params.pump_amplitude() ** 2, 1.0)


def test_mirror2_displacement_ratio_is_exact():
    params = system_for_beta(kappa=0.3, beta=4e-3, g_coulomb=0.17)
    op = solve_steady_state(params)
    hbar = params.hbar
    m2 = params.mech2
    assert op.q2s == -hbar * params.coupling.g_coulomb * op.q1s / (m2.mass * m2.omega**2)


def test_locked_mode_pins_effective_detuning():
    params = system_for_beta(kappa=0.2, beta=5e-3)
    op = solve_steady_state(params)
    assert op.delta_eff == 1.0
    a = params.hbar * params.coupling.g_cav**2 / params.stiffness()
    assert op.delta_c == pytest.approx(1.0 + a * op.photon_number, rel=1e-15)


def test_static_instability_propagates():
    params = dimensionless_system(kappa=0.2, g_coulomb=1.5, pump_amplitude=0.1,
                                  detuning_mode="explicit", detuning=1.0)
    with pytest.raises(StaticInstabilityError):
        solve_steady_state(params)


def test_solver_is_pure():
    params = system_for_beta(kappa=0.31, beta=3e-3, g_coulomb=0.12)
    a = solve_steady_state(params)
    b = solve_steady_state(params)
    assert (a.q1s, a.q2s, a.cs, a.photon_number, a.delta_eff) == (
        b.q1s,
        b.q2s,
        b.cs,
        b.photon_number,
        b.delta_eff,
    )


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0), pump=st.floats(min_value=0.01, max_value=2.0))
def test_quadratic_pump_scaling_without_backaction(scale, pump):
    base = dimensionless_system(kappa=0.3, g_cav=0.0, pump_amplitude=pump,
                                detuning_mode="explicit", detuning=0.6)
    scaled = dimensionless_system(kappa=0.3, g_cav=0.0, pump_amplitude=scale * pump,
                                  detuning_mode="explicit", detuning=0.6)
    n_base = solve_steady_state(base).photon_number
    n_scaled = solve_steady_state(scaled).photon_number
    assert n_scaled == pytest.approx(scale**2 * n_base, rel=1e-12)


def test_lost_roots_raise_invariant_violation(monkeypatch):
    # a cubic whose roots are all complex leaves no photon number
    monkeypatch.setattr(
        oemsim.steady.np.linalg, "eigvals", lambda companion: np.tile([1j, -1j, 2j], (len(companion), 1))
    )
    with pytest.raises(InvariantViolationError, match="lost all real"):
        photon_number_roots(0.1, 1.0, 0.2, 0.3)


def reference_roots(a, delta_c, kappa, omega_l):
    """One cubic at a time through np.roots, with the filter, Newton polish and dedupe of the solver."""
    omega_sq = omega_l**2
    if omega_sq == 0.0:
        return [0.0]
    if a == 0.0:
        return [omega_sq / (kappa**2 + delta_c**2)]
    n0 = omega_sq / (kappa**2 + delta_c**2)
    raw = np.roots([a**2 * n0**3, -2.0 * a * delta_c * n0**2, (kappa**2 + delta_c**2) * n0, -omega_sq])
    roots = []
    for r in raw:
        if abs(r.imag) >= 1e-8 * max(1.0, abs(r)):
            continue
        n = r.real * n0
        if n < -1e-8 * n0:
            continue
        n = max(n, 0.0)
        for _ in range(4):
            slope = kappa**2 + (delta_c - a * n) ** 2 - 2.0 * a * n * (delta_c - a * n)
            if slope == 0.0:
                break
            n_new = n - (n * (kappa**2 + (delta_c - a * n) ** 2) - omega_sq) / slope
            if n_new == n:
                break
            n = n_new
        if n < 0.0:
            continue
        roots.append(float(n))
    deduped = []
    for n in sorted(roots):
        if deduped and abs(n - deduped[-1]) <= 1e-8 * max(1.0, abs(n)):
            continue
        deduped.append(n)
    if not deduped:
        raise InvariantViolationError("no root")
    return deduped


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


CUBICS = st.one_of(
    # a, delta_c, kappa, omega_l; the first is bistable for part of its range
    st.tuples(st.floats(0.8, 1.2), st.floats(0.8, 1.2), st.floats(0.05, 0.15), st.floats(0.15, 0.35)),
    st.tuples(_log_uniform(-3, 1), st.floats(-3, 3), _log_uniform(-2, 0), _log_uniform(-3, 0.5)),
    st.tuples(st.just(0.0), st.floats(-3, 3), _log_uniform(-2, 0), _log_uniform(-3, 0.5)),  # a = 0
    st.tuples(_log_uniform(-3, 1), st.floats(-3, 3), _log_uniform(-2, 0), st.just(0.0)),  # no pump
    # a^2 n0^3 subnormal or 0 (a quadratic), down to a linear and a constant polynomial
    st.tuples(_log_uniform(-3, 0), st.floats(0.5, 2), _log_uniform(-1, 0), _log_uniform(-170, -45)),
    # delta_c^2 or Omega^2 overflows, or the companion matrix is not finite
    st.tuples(_log_uniform(-3, 0), _log_uniform(140, 170), _log_uniform(-1, 0), _log_uniform(-3, 160)),
)


@settings(max_examples=300, deadline=None)
@given(cubics=st.lists(CUBICS, min_size=1, max_size=12))
@example(cubics=[
    (1.0, 1.0, 0.1, 0.25),  # three roots
    (0.0, 1.0, 0.2, 0.3),
    (0.5, 1.0, 0.2, 0.0),
    (0.01, 1.0, 0.227, 1e-60),  # a quadratic
    (0.01, 1.0, 0.5, 1e-100),  # a linear polynomial
    (0.01, 2.0, 1.0, 2.5e-162),  # a nonzero constant: no roots
    (0.01, 1e160, 0.5, 1.0),  # delta_c^2 overflows
    (0.01, 4.3e95, 0.227, 6.7e48),  # the companion matrix is not finite
    (1.0, 1.0, 0.1, 0.3),
])
def test_batched_roots_match_np_roots_bit_for_bit(cubics):
    got = photon_number_roots_batch(cubics)
    assert len(got) == len(cubics)
    for cubic, result in zip(cubics, got):
        try:
            with np.errstate(all="ignore"):
                want = reference_roots(*cubic)
        except (OverflowError, np.linalg.LinAlgError, InvariantViolationError):
            # the failure stays in its own row
            assert isinstance(result, InvariantViolationError), (cubic, result)
            continue
        assert isinstance(result, list), (cubic, result)
        assert [n.hex() for n in result] == [n.hex() for n in want], cubic
        assert all(type(n) is float for n in result)


def test_failed_points_leave_their_batch_mates_alone():
    ok = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.1)
    bistable = bistable_system(0.25)
    huge_pump = dimensionless_system(kappa=0.227, pump_power=1e300)
    unstable = dimensionless_system(kappa=0.2, g_coulomb=1.5, pump_amplitude=0.1,
                                    detuning_mode="explicit", detuning=1.0)
    # kappa^2 underflows to 0, and the cavity is pumped on resonance
    no_linewidth = dimensionless_system(kappa=1e-200, pump_amplitude=0.1,
                                        detuning_mode="explicit", detuning=0.0)
    results = solve_steady_states([ok, huge_pump, unstable, no_linewidth, bistable])
    assert results[0] == solve_steady_state(ok)
    assert isinstance(results[1], InvariantViolationError)
    assert isinstance(results[2], StaticInstabilityError)
    assert isinstance(results[3], InvariantViolationError)
    assert results[4] == solve_steady_state(bistable)
    for params in (huge_pump, no_linewidth):
        with pytest.raises(InvariantViolationError, match="float range"):
            solve_steady_state(params)

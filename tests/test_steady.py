import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oemsim.steady
from oemsim import InvariantViolationError
from oemsim.errors import StaticInstabilityError
from oemsim.params import DriveParams
from oemsim.response import coefficients
from oemsim.steady import (
    OK,
    STATUS_ERRORS,
    photon_number_roots,
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


def batched_roots(cubics):
    """Each cubic's roots from one batched pass, or the error class of its failure."""
    refusals = oemsim.steady._Refusals(len(cubics))
    with np.errstate(all="ignore"):
        values, distinct = oemsim.steady._cubic_roots(*(np.array(c, dtype=float) for c in zip(*cubics)), refusals)
    return [
        STATUS_ERRORS[s] if s != OK else [float(v[i]) for v, kept in zip(values, distinct) if kept[i]]
        for i, s in enumerate(refusals.status.tolist())
    ]


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
    got = batched_roots(cubics)
    assert len(got) == len(cubics)
    for k, (cubic, result) in enumerate(zip(cubics, got)):
        try:
            with np.errstate(all="ignore"):
                want = reference_roots(*cubic)
        except (OverflowError, np.linalg.LinAlgError, InvariantViolationError):
            # the failure stays in its own row
            assert result is InvariantViolationError, (cubic, result)
            if k == 0:
                with pytest.raises(InvariantViolationError):
                    photon_number_roots(*cubic)
            continue
        assert isinstance(result, list), (cubic, result)
        assert [n.hex() for n in result] == [n.hex() for n in want], cubic
        if k == 0:  # the one-point path: Python floats, the same bits
            one = photon_number_roots(*cubic)
            assert all(type(n) is float for n in one)
            assert [n.hex() for n in one] == [n.hex() for n in want], cubic


def _point(base, kappa, g_cav, g_coulomb, pump, detuning, by_power):
    """``base`` with one batch point's values, as one validated parameter set."""
    return replace(
        base,
        cavity=replace(base.cavity, kappa=kappa, detuning=detuning),
        coupling=replace(base.coupling, g_cav=g_cav, g_coulomb=g_coulomb),
        drive=DriveParams(pump_power=pump) if by_power else DriveParams(pump_amplitude=pump),
    )


def _batch(base, points, by_power):
    """One steady pass over ``points`` of (kappa, g_cav, g_coulomb, pump, detuning)."""
    kappa, g_cav, g_coulomb, pump, detuning = (np.array(c, dtype=float) for c in zip(*points))
    pump_field, other = ("pump_power", "pump_amplitude") if by_power else ("pump_amplitude", "pump_power")
    return solve_steady_states(base, {
        "cavity": {"kappa": kappa, "detuning": detuning},
        "coupling": {"g_cav": g_cav, "g_coulomb": g_coulomb},
        "drive": {pump_field: pump, other: None},
    })


def _slug(error):
    return error.__name__.removesuffix("Error")


def test_failed_points_leave_their_batch_mates_alone():
    base = dimensionless_system(kappa=0.227, pump_amplitude=0.05, detuning_mode="explicit", detuning=1.0)
    ok = (0.227, 0.1, 0.1, 0.05, 1.0)
    huge_pump = (0.227, 0.1, 0.0, 1e300, 1.0)
    unstable = (0.2, 0.1, 1.5, 0.1, 1.0)
    # kappa^2 underflows to 0, and the cavity is pumped on resonance
    no_linewidth = (1e-200, 0.1, 0.0, 0.1, 0.0)
    bistable = (0.1, 1.0, 0.0, 0.25, 1.0)
    states = _batch(base, [ok, huge_pump, unstable, no_linewidth, bistable], by_power=False)
    slugs = ["-" if s == OK else _slug(STATUS_ERRORS[s]) for s in states.status.tolist()]
    assert slugs == ["-", "InvariantViolation", "StaticInstability", "InvariantViolation", "-"]
    for i, point in ((0, ok), (4, bistable)):
        op = solve_steady_state(_point(base, *point, by_power=False))
        assert states.photon_number[i] == op.photon_number and states.branch_count[i] == op.branch_count
        assert (states.q1s[i], states.q2s[i], states.delta_eff[i]) == (op.q1s, op.q2s, op.delta_eff)
    assert states.branch_count[4] == 3
    for point in (huge_pump, no_linewidth):
        with pytest.raises(InvariantViolationError, match="float range"):
            solve_steady_state(_point(base, *point, by_power=False))


def reference_solve(params):
    """The solve of one point as the scalar code wrote it: its failure's slug, or its values."""
    m1, m2, hbar, coupling, drive = params.mech1, params.mech2, params.hbar, params.coupling, params.drive
    kappa, locked = params.cavity.kappa, params.cavity.detuning_mode == "locked"
    try:
        with np.errstate(all="ignore"):
            k = m1.mass * m1.omega**2 - (hbar * coupling.g_coulomb) ** 2 / (m2.mass * m2.omega**2)
            if k <= 0:
                return "StaticInstability"
            if drive.pump_amplitude is not None:
                omega_l = drive.pump_amplitude
            else:
                omega_l = math.sqrt(2.0 * kappa * drive.pump_power / (hbar * params.cavity.omega_l))
            a = hbar * coupling.g_cav**2 / k
            if locked:
                n = omega_l**2 / (kappa**2 + m1.omega**2)
                delta_c = m1.omega + a * n
            else:
                delta_c = params.cavity.detuning
            roots = reference_roots(a, delta_c, kappa, omega_l)
            if locked:
                delta_eff = m1.omega
            else:
                n = roots[0]
                delta_eff = delta_c - a * n
            q1s = hbar * coupling.g_cav * n / k
            q2s = -hbar * coupling.g_coulomb * q1s / (m2.mass * m2.omega**2)
            residual = abs(n * (kappa**2 + (delta_c - a * n) ** 2) - omega_l**2)
            if not residual <= 1e-12 * max(omega_l**2, 1.0):
                return "InvariantViolation"
            beta = hbar * coupling.g_cav**2 * n / (2.0 * m1.mass * m1.omega)
            coefficients = (
                kappa, delta_eff, delta_eff**2, m1.omega, m1.omega**2, m2.omega**2, m1.gamma, m2.gamma,
                (hbar * coupling.g_coulomb) ** 2, m1.mass * m2.mass, beta,
            )
    except (OverflowError, ZeroDivisionError, np.linalg.LinAlgError, InvariantViolationError):
        return "InvariantViolation"
    values = dict(q1s=q1s, q2s=q2s, photon_number=n, delta_eff=delta_eff, delta_c=delta_c, residual=residual)
    return {**{name: float(v).hex() for name, v in values.items()}, "branch_count": len(roots),
            "coefficients": [float(c).hex() for c in coefficients]}


def _batch_values(states, i):
    names = ("q1s", "q2s", "photon_number", "delta_eff", "delta_c", "residual")
    return {**{name: float(getattr(states, name)[i]).hex() for name in names},
            "branch_count": int(states.branch_count[i]),
            "coefficients": [float(c[i]).hex() for c in states.coefficients]}


def _one_point_values(op, params):
    names = ("q1s", "q2s", "photon_number", "delta_eff", "delta_c", "residual")
    assert all(type(getattr(op, name)) is float for name in names)
    return {**{name: getattr(op, name).hex() for name in names}, "branch_count": op.branch_count,
            "coefficients": [c.hex() for c in coefficients(params, op)]}


# (kappa, g_cav, g_coulomb, pump, detuning); with m = omega = hbar = 1, a = g_cav^2 / (1 - g_coulomb^2)
POINTS = st.one_of(
    # bistable for part of the range when explicit
    st.tuples(st.floats(0.05, 0.15), st.floats(0.9, 1.1), st.just(0.0), st.floats(0.15, 0.35), st.floats(0.8, 1.2)),
    st.tuples(_log_uniform(-2, 0), _log_uniform(-2, 0.5), st.floats(0.0, 0.9), _log_uniform(-3, 0.5),
              st.floats(-3, 3)),
    st.tuples(_log_uniform(-2, 0), st.just(0.0), st.floats(0.0, 0.9), _log_uniform(-3, 0.5), st.floats(-3, 3)),
    st.tuples(_log_uniform(-2, 0), _log_uniform(-2, 0.5), st.floats(0.0, 0.9), st.just(0.0), st.floats(-3, 3)),
    # a weak pump: a^2 n0^3 underflows (a quadratic), down to a linear and a constant polynomial
    st.tuples(_log_uniform(-1, 0), _log_uniform(-2, 0), st.just(0.0), _log_uniform(-170, -45), st.floats(0.5, 2)),
    # a strong pump or a far detuning: floats overflow, or the companion matrix is not finite
    st.tuples(_log_uniform(-1, 0), _log_uniform(-2, 0), st.just(0.0), _log_uniform(40, 300), _log_uniform(90, 170)),
    st.tuples(_log_uniform(-1, 0), _log_uniform(-2, 0), st.just(0.0), _log_uniform(100, 300), st.floats(-3, 3)),
    # kappa^2 underflows
    st.tuples(_log_uniform(-250, -160), _log_uniform(-2, 0), st.just(0.0), _log_uniform(-3, 0), st.just(0.0)),
    # K <= 0
    st.tuples(_log_uniform(-2, 0), _log_uniform(-2, 0), st.floats(1.0, 3.0), _log_uniform(-3, 0), st.floats(-3, 3)),
)


@settings(max_examples=300, deadline=None)
@given(locked=st.booleans(), by_power=st.booleans(), points=st.lists(POINTS, min_size=1, max_size=12))
@example(locked=False, by_power=False, points=[
    (0.1, 1.0, 0.0, 0.25, 1.0),  # three roots
    (0.2, 0.0, 0.0, 0.3, 1.0),  # a = 0
    (0.2, 0.7, 0.0, 0.0, 1.0),  # no pump
    (0.227, 0.1, 0.0, 1e-60, 1.0),  # a quadratic
    (0.5, 0.1, 0.0, 1e-100, 1.0),  # a linear polynomial
    (1.0, 0.1, 0.0, 2.5e-162, 2.0),  # a nonzero constant: no roots
    (0.227, 0.1, 0.0, 6.7e48, 4.3e95),  # the companion matrix is not finite
    (0.227, 0.1, 0.0, 1e300, 1.0),  # the pump overflows
    (1e-200, 0.1, 0.0, 0.1, 0.0),  # kappa^2 underflows on resonance
    (0.2, 0.1, 1.5, 0.1, 1.0),  # K < 0
])
@example(locked=True, by_power=True, points=[
    (0.227, 0.1, 0.2, 5e-3, 1.0), (0.227, 0.1, 0.0, 1e300, 1.0), (0.227, 0.1, 0.0, 1.26e7, 1.0),
    (0.2, 0.1, 1.5, 0.1, 1.0), (0.227, 0.1, 0.0, 0.0, 1.0),
])
def test_batch_matches_per_point_reference(locked, by_power, points):
    base = dimensionless_system(kappa=0.2, detuning_mode="locked" if locked else "explicit")
    states = _batch(base, points, by_power)
    assert len(states.status) == len(points)
    for i, point in enumerate(points):
        params = _point(base, *point, by_power=by_power)
        want = reference_solve(params)
        status = states.status[i]
        if isinstance(want, str):
            assert status != OK and _slug(STATUS_ERRORS[status]) == want, (point, want)
        else:
            assert status == OK, (point, _slug(STATUS_ERRORS[status]))
            assert _batch_values(states, i) == want, point
        if i == 0:  # the one-point path gives the same bits, or raises the same error
            try:
                op = solve_steady_state(params)
            except (StaticInstabilityError, InvariantViolationError) as exc:
                assert _slug(type(exc)) == want, point
            else:
                assert _one_point_values(op, params) == want, point


@pytest.mark.parametrize("locked", [False, True])
def test_one_point_is_element_0_of_a_batch(locked):
    base = dimensionless_system(kappa=0.2, detuning_mode="locked" if locked else "explicit")
    points = [(0.1, 1.0, 0.0, 0.25, 1.0), (0.227, 0.1, 0.2, 0.05, 0.9), (0.3, 0.5, 0.1, 0.4, 1.1)]
    for by_power in (False, True):
        states = _batch(base, points, by_power)
        params = _point(base, *points[0], by_power=by_power)
        assert states.status[0] == OK
        assert _batch_values(states, 0) == _one_point_values(solve_steady_state(params), params)

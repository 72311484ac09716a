import dataclasses
import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oemsim import timedomain
from oemsim.errors import (
    DivergenceError,
    InsufficientDataError,
    IntegrationError,
    PerturbativeRegimeWarning,
    TrajectoryConfigWarning,
)
from oemsim.linsys import solve_sidebands
from oemsim.steady import solve_steady_state
from oemsim.timedomain import (
    DOP853_TOLERANCE_FACTOR,
    Trajectory,
    TrajectoryConfig,
    demodulate,
    integrate,
    probe_response,
)
from oemsim.validate import dimensionless_system

TRAJECTORY_COLUMNS = ("t", "q1", "p1", "q2", "p2", "re_c", "im_c")


def quick_system(kappa=0.2, gamma=0.05, g_cav=0.1, g_c=0.1, power=1.0, ratio=1e-3):
    pump = math.sqrt(2.0 * kappa * power)
    return dimensionless_system(
        kappa=kappa, gamma1=gamma, gamma2=gamma, g_cav=g_cav, g_coulomb=g_c,
        pump_power=power, pump_amplitude=None,
        probe_amplitude=(ratio * pump if ratio else 0.0),
    )


def hamiltonian_value(params, op_delta_c, state):
    """Drive-free energy function of one sampled state (conserved when
    kappa = gamma1 = gamma2 = 0 and drives are off)."""
    q1, p1, q2, p2, rc, ic = state
    m1, m2 = params.mech1, params.mech2
    hbar = params.hbar
    n_c = rc * rc + ic * ic
    return (
        p1**2 / (2.0 * m1.mass)
        + 0.5 * m1.mass * m1.omega**2 * q1**2
        + p2**2 / (2.0 * m2.mass)
        + 0.5 * m2.mass * m2.omega**2 * q2**2
        + hbar * op_delta_c * n_c
        - hbar * params.coupling.g_cav * n_c * q1
        + hbar * params.coupling.g_coulomb * q1 * q2
    )


def dump_csv(trajectory, path):
    """Full-precision CSV dump, one row per sample."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for i in range(len(trajectory.t)):
            row = [trajectory.t[i], *trajectory.states[i]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def energy_system():
    # kappa = 1e-300 is exactly zero dissipation at double precision
    return dimensionless_system(
        kappa=1e-300, gamma1=0.0, gamma2=0.0, g_cav=0.3, g_coulomb=0.2,
        pump_amplitude=0.0, detuning_mode="explicit", detuning=1.0,
    )


PINNED_STATE = np.array([0.3, 0.0, -0.2, 0.1, 0.8, 0.5])


def quick_config(gamma=0.05, delta=1.03, rtol=1e-9, transient=0.75):
    return TrajectoryConfig(
        duration=20.0 * 2.0 * math.pi / gamma,
        dt=(2.0 * math.pi / delta) / 16.0,
        transient_fraction=transient,
        integrator_tolerance=rtol,
    )


class TestTrajectoryConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(duration=0.0, dt=0.1)
        with pytest.raises(ValueError):
            TrajectoryConfig(duration=10.0, dt=-0.1)
        with pytest.raises(ValueError):
            TrajectoryConfig(duration=10.0, dt=0.1, transient_fraction=0.2)
        with pytest.raises(ValueError):
            TrajectoryConfig(duration=10.0, dt=0.1, integrator_tolerance=0.0)

    def test_beat_undersampling_rejected(self):
        params = quick_system()
        config = TrajectoryConfig(duration=3000.0, dt=1.0)  # > (2 pi / delta) / 16
        with pytest.raises(ValueError, match="undersamples"):
            integrate(params, 1.03, config)

    def test_short_duration_warns(self):
        params = quick_system(ratio=0.0)
        config = TrajectoryConfig(duration=200.0, dt=0.35)
        with pytest.warns(TrajectoryConfigWarning):
            integrate(params, 1.0, config)

    def test_nonperturbative_probe_warns(self):
        params = quick_system(ratio=0.2)
        config = quick_config()
        with pytest.warns(PerturbativeRegimeWarning):
            integrate(params, 1.03, config)


class TestIntegrate:
    def test_fixed_point_is_stationary(self):
        params = quick_system(ratio=0.0)
        config = quick_config()
        trajectory = integrate(params, 1.03, config)
        scale = np.max(np.abs(trajectory.states[0]))
        drift = np.max(np.abs(trajectory.states - trajectory.states[0]))
        assert drift <= 1e-6 * scale

    def test_ring_down_rate(self):
        # decoupled mirror 1: energy decays as exp(-gamma t) within 5 percent
        gamma = 0.05
        params = quick_system(gamma=gamma, g_cav=0.0, g_c=0.0, ratio=0.0)
        op = solve_steady_state(params)
        y0 = np.array([op.q1s + 1e-3, 0.0, op.q2s, 0.0, op.cs.real, op.cs.imag])
        duration = 10.0 * 2.0 / gamma
        config = TrajectoryConfig(duration=duration, dt=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            trajectory = integrate(params, 1.0, config, initial_state=y0)
        q1 = trajectory.states[:, 0]
        p1 = trajectory.states[:, 1]
        energy = 0.5 * (p1**2 + q1**2)
        keep = energy > energy[0] * 1e-12
        slope = np.polyfit(trajectory.t[keep], np.log(energy[keep]), 1)[0]
        assert -slope == pytest.approx(gamma, rel=0.05)

    def test_energy_conservation_without_dissipation(self):
        # measured DOP853 drift is ~8.8x the local tolerance over 100 periods
        params = energy_system()
        rtol = 1e-10
        config = TrajectoryConfig(duration=100.0 * 2.0 * math.pi, dt=0.35,
                                  integrator_tolerance=rtol)
        trajectory = integrate(params, 1.0, config, initial_state=PINNED_STATE)
        values = np.array([hamiltonian_value(params, 1.0, s) for s in trajectory.states])
        drift = np.max(np.abs(values - values[0])) / abs(values[0])
        assert drift <= 30.0 * rtol

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energy_conservation_from_random_states(self, seed):
        # same bound as the pinned state; measured DOP853 drift is 6.9-17.2x
        # on these seeds (RK45 at the same requested tolerance: 290-375x)
        params = energy_system()
        rtol = 1e-10
        config = TrajectoryConfig(duration=100.0 * 2.0 * math.pi, dt=0.35,
                                  integrator_tolerance=rtol)
        y0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 6)
        trajectory = integrate(params, 1.0, config, initial_state=y0)
        values = np.array([hamiltonian_value(params, 1.0, s) for s in trajectory.states])
        drift = np.max(np.abs(values - values[0])) / abs(values[0])
        assert drift <= 30.0 * rtol

    def test_determinism(self):
        params = quick_system()
        config = quick_config()
        a = integrate(params, 1.03, config)
        b = integrate(params, 1.03, config)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.t, b.t)

    def test_non_finite_initial_state_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            integrate(quick_system(), 1.03, quick_config(), initial_state=np.array([np.nan] + [0.0] * 5))

    def test_divergence_reported_with_time(self):
        # a field amplitude whose photon number overflows drives the state
        # out of the finite domain within the first step
        params = quick_system(ratio=0.0)
        config = TrajectoryConfig(duration=200.0, dt=0.3)
        y0 = np.array([0.0, 0.0, 0.0, 0.0, 1e160, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow inside the stages
            with pytest.raises(DivergenceError) as err:
                integrate(params, 1.0, config, initial_state=y0)
        # the photon number overflows in the initial-step probe, at t = 0
        assert err.value.time == 0.0

    def test_csv_dump_round_trip(self, tmp_path):
        params = quick_system(ratio=0.0)
        config = TrajectoryConfig(duration=300.0, dt=0.35)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            trajectory = integrate(params, 1.0, config)
        path = tmp_path / "trajectory.csv"
        dump_csv(trajectory, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,q1,p1,q2,p2,re_c,im_c"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], trajectory.t)
        assert np.array_equal(data[:, 1:], trajectory.states)


def timedomain_check_case(kappa, gamma, g_cav, g_c, power, delta, ringdowns=4.0):
    """One case of validate.check_timedomain, run for 4 ring-down periods unless told (validate runs 20)."""
    pump = math.sqrt(2.0 * kappa * power)
    params = dimensionless_system(
        kappa=kappa, gamma1=gamma, gamma2=gamma, g_cav=g_cav, g_coulomb=g_c,
        pump_power=power, pump_amplitude=None, probe_amplitude=1e-3 * pump,
    )
    config = TrajectoryConfig(duration=ringdowns * 2.0 * math.pi / gamma,
                              dt=(2.0 * math.pi / delta) / 16.0, integrator_tolerance=1e-9)
    return params, delta, config, None


VALIDATE_RING_DOWNS = {  # validate.check_timedomain's two cases
    "validate-1": (0.2, 0.05, 0.10, 0.10, 1.0, 1.03),
    "validate-2": (0.3, 0.06, 0.08, 0.00, 1.5, 0.97),
}


ENERGY_CONFIG = TrajectoryConfig(duration=20.0 * 2.0 * math.pi, dt=0.35, integrator_tolerance=1e-10)
SCIPY_CASES = {
    "timedomain-check-1": timedomain_check_case(*VALIDATE_RING_DOWNS["validate-1"]),
    "timedomain-check-2": timedomain_check_case(*VALIDATE_RING_DOWNS["validate-2"]),
    "energy-pinned": (energy_system(), 1.0, ENERGY_CONFIG, PINNED_STATE),
    **{
        f"energy-random-{seed}": (
            energy_system(), 1.0, ENERGY_CONFIG, np.random.default_rng(seed).uniform(-1.0, 1.0, 6)
        )
        for seed in (0, 1, 2)
    },
}


def window_start(config):
    """The index of the first sample demodulate keeps: t >= transient_fraction * t_end."""
    samples = np.arange(0.0, config.duration + 0.5 * config.dt, config.dt)
    return int(np.argmax(samples >= config.transient_fraction * samples[-1]))


def solve_ivp_reference(params, delta, config, initial_state=None, t_eval=True, first=0):
    """scipy's solve_ivp on integrate's problem: the same right-hand side, tolerances and samples
    (from samples[first] on)."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    op = solve_steady_state(params)
    y0 = initial_state
    if y0 is None:
        y0 = np.array([op.q1s, 0.0, op.q2s, 0.0, op.cs.real, op.cs.imag])
    samples = np.arange(0.0, config.duration + 0.5 * config.dt, config.dt)
    tolerance = DOP853_TOLERANCE_FACTOR * config.integrator_tolerance
    atol = tolerance * np.maximum(np.abs(y0), 1e-6 * max(np.max(np.abs(y0)), 1.0))
    rhs = timedomain._rhs_factory(params, op, delta, params.probe_amplitude(delta))
    # solve_ivp calls fun(t, y) with y a numpy array; the stepper hands rhs six Python floats
    return solve_ivp(lambda t, y: rhs(t, *y.tolist()), (0.0, float(samples[-1])), y0, method="DOP853",
                     rtol=tolerance, atol=atol, t_eval=samples[first:] if t_eval else None)


def count_rhs_calls(monkeypatch):
    """Make `integrate`'s right-hand sides count their calls; returns the count as a one-item list."""
    calls = [0]
    factory = timedomain._rhs_factory

    def counting_factory(*args):
        rhs = factory(*args)

        def counted(*state):
            calls[0] += 1
            return rhs(*state)

        return counted

    monkeypatch.setattr(timedomain, "_rhs_factory", counting_factory)
    return calls


def complex_rhs(params, op, delta, eps_p, t, q1, p1, q2, p2, rc, ic):
    """The right-hand side in complex arithmetic, the form that `_rhs_factory` writes out on floats."""
    m1, m2, hbar = params.mech1, params.mech2, params.hbar
    g_cav, g_c = params.coupling.g_cav, params.coupling.g_coulomb
    c = complex(rc, ic)
    n_c = rc * rc + ic * ic
    dp1 = -m1.mass * m1.omega**2 * q1 - hbar * g_c * q2 + hbar * g_cav * n_c - m1.gamma * p1
    dp2 = -m2.mass * m2.omega**2 * q2 - hbar * g_c * q1 - m2.gamma * p2
    dc = (
        -(params.cavity.kappa + 1j * op.delta_c) * c
        + 1j * g_cav * q1 * c
        + params.pump_amplitude()
        + eps_p * complex(math.cos(delta * t), -math.sin(delta * t))
    )
    return (p1 / m1.mass, dp1, p2 / m2.mass, dp2, dc.real, dc.imag)


def rhs_bits(rhs, *args):
    """The bits of rhs(*args), signed zeros and NaN payloads included, or the exception it raises."""
    try:
        return struct.pack("<6d", *rhs(*args))
    except ValueError as exc:  # math.cos of an infinite delta t
        return repr(exc)


# Python floats across the whole range: zeros of both signs, subnormals, magnitudes up to 1e+-300
WIDE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-1e-307, 1e-307),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
)
MODERATE = st.floats(0.01, 2.0)
SIGNED = st.floats(-3.0, 3.0)
# (t, q1, p1, q2, p2, rc, ic): comparable terms, whose sums round by their order; zeros, whose
# signs the 0.0 parts decide; and the whole range
RHS_POINTS = st.one_of(
    st.tuples(*[SIGNED] * 7),
    st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), SIGNED)] * 7),
    st.tuples(*[WIDE_FLOATS] * 7),
)


@st.composite
def rhs_systems(draw):
    """(params, op, delta, eps_p): g_c zero or not, locked or explicit detuning, the operating point solved."""
    explicit = draw(st.booleans())
    params = dimensionless_system(
        kappa=draw(MODERATE), gamma1=draw(st.floats(0.0, 0.1)), gamma2=draw(st.floats(0.0, 0.1)),
        g_cav=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3))),
        g_coulomb=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3))),
        pump_amplitude=draw(st.one_of(st.just(0.0), MODERATE)),
        omega2=draw(st.floats(0.5, 1.5)), mass2=draw(st.floats(0.5, 2.0)),
        detuning_mode="explicit" if explicit else "locked",
        detuning=draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(-3.0, 3.0))) if explicit else 1.0,
    )
    delta, eps_p = draw(st.one_of(MODERATE, WIDE_FLOATS)), draw(st.one_of(st.sampled_from([0.0, -0.0]), MODERATE, WIDE_FLOATS))
    return params, solve_steady_state(params), delta, eps_p


def numpy_error_norm(h_abs, d5, d3):
    """The error norm as `_dop853` took it before, on numpy scalars: the reference of `_error_norm`."""
    with np.errstate(all="ignore"):
        e5, e3 = np.sqrt(np.float64(d5)) ** 2, np.sqrt(np.float64(d3)) ** 2
        return float(h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * 6)) if e5 or e3 else 0.0


class TestErrorNorm:
    @staticmethod
    def assert_matches_numpy(h_abs, d5, d3):
        got, want = timedomain._error_norm(h_abs, d5, d3), numpy_error_norm(h_abs, d5, d3)
        assert type(got) is float
        # bit for bit, signed zeros included; a NaN's sign (x86 gives -NaN for 0 / 0) steers no step
        assert math.isnan(got) and math.isnan(want) or struct.pack("<d", got) == struct.pack("<d", want)

    @pytest.mark.parametrize("d5, d3", [
        (0.0, 0.0),  # no error: 0, not 0 / 0
        (0.0, 5e-324),  # 0.01 * d3 is 0: numpy's 0 / 0 is NaN, where floats raise ZeroDivisionError
        (0.0, 1e-310),  # 0.01 * d3 a subnormal: 0
        (1.7976931348623157e308, 1.7976931348623157e308),  # the largest squares: sqrt(d) ** 2 stays finite
        (math.inf, 1.0),
        (1.0, math.inf),
        (math.nan, 1.0),
        (0.0, math.nan),
    ])
    def test_edge_cases(self, d5, d3):
        self.assert_matches_numpy(0.5, d5, d3)

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(timedomain._error_norm(0.5, 0.0, 5e-324))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=1e-12, max_value=1e12),
           st.floats(min_value=0.0, allow_subnormal=True), st.floats(min_value=0.0, allow_subnormal=True))
    def test_matches_numpy_scalars(self, h_abs, d5, d3):
        self.assert_matches_numpy(h_abs, d5, d3)

    def test_square_is_libm_pow(self):
        # sqrt(d) ** 2, as scipy's squared norm takes it, differs from d on about half of all inputs
        d = np.random.default_rng(20261020).uniform(0.0, 10.0, 20_000)
        assert (np.sqrt(d) ** 2 != d).any()
        for value in d.tolist():
            self.assert_matches_numpy(1.0, value, value)


class TestRightHandSide:
    """`_rhs_factory`'s float form against the complex arithmetic it replaces, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(rhs_systems(), st.lists(RHS_POINTS, min_size=1, max_size=20))
    def test_matches_complex_arithmetic_bit_for_bit(self, system, points):
        params, op, delta, eps_p = system
        rhs = timedomain._rhs_factory(params, op, delta, eps_p)
        for point in points:
            assert rhs_bits(rhs, *point) == rhs_bits(complex_rhs, params, op, delta, eps_p, *point)

    @pytest.mark.parametrize("pump", [0.0, -0.0, 0.5])
    @pytest.mark.parametrize("detuning", [None, 1.0, -1.0, -0.0])  # None: locked
    @pytest.mark.parametrize("g_cav", [0.0, 0.1])
    def test_matches_complex_arithmetic_on_a_grid(self, g_cav, detuning, pump):
        # the hypothesis draws above seldom meet these: zeros of each sign in eps_p, q1, rc and ic, delta t
        # in each quadrant, and random terms of one size, whose sums round by their order
        params = dimensionless_system(
            kappa=0.2, gamma1=0.05, gamma2=0.05, g_cav=g_cav, g_coulomb=0.1, pump_amplitude=pump,
            detuning_mode="locked" if detuning is None else "explicit", detuning=1.0 if detuning is None else detuning,
        )
        op = solve_steady_state(params)
        rng = np.random.default_rng(7)
        values = (0.0, -0.0, *rng.uniform(-3.0, 3.0, 4))
        for eps_p in (0.0, -0.0, 0.7):
            rhs = timedomain._rhs_factory(params, op, 1.0, eps_p)
            for t, q1, rc, ic in itertools.product((0.5, 2.0, 4.0, 5.5), values, values, values):
                point = (t, q1, *rng.uniform(-3.0, 3.0, 3).tolist(), rc, ic)
                assert rhs_bits(rhs, *point) == rhs_bits(complex_rhs, params, op, 1.0, eps_p, *point)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("component", range(6))
    def test_non_finite_component_raises_with_its_time(self, component, value):
        params = quick_system()
        rhs = timedomain._rhs_factory(params, solve_steady_state(params), 1.03, 1e-3)
        state = [0.3, 0.0, -0.2, 0.1, 0.8, 0.5]
        state[component] = value
        with pytest.raises(timedomain._NonFiniteState) as err:
            rhs(12.5, *state)
        assert err.value.time == 12.5


class TestMatchesSolveIvp:
    """The in-package DOP853 stepper against scipy's, which is its specification."""

    def test_tableau_is_scipys_bit_for_bit(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        for ours, theirs in (
            (timedomain._A, coefficients.A),
            (timedomain._B, coefficients.B),
            (np.array(timedomain._C), coefficients.C),
            (timedomain._E3, coefficients.E3),
            (timedomain._E5, coefficients.E5),
            (timedomain._D, coefficients.D),
        ):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("case", list(SCIPY_CASES))
    def test_trajectory_equals_solve_ivp(self, case):
        params, delta, config, initial_state = SCIPY_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            trajectory = integrate(params, delta, config, initial_state=initial_state)
        reference = solve_ivp_reference(params, delta, config, initial_state)
        assert reference.success
        assert np.array_equal(trajectory.t, reference.t)
        assert np.array_equal(trajectory.states, reference.y.T)

    @pytest.mark.parametrize("case", list(SCIPY_CASES))
    def test_stepper_makes_solve_ivps_right_hand_side_calls(self, case, monkeypatch):
        # the initial step, every attempted step and each interpolant: as many calls as scipy's nfev
        params, delta, config, initial_state = SCIPY_CASES[case]
        reference = solve_ivp_reference(params, delta, config, initial_state)
        calls = 0
        factory = timedomain._rhs_factory

        def counting_factory(*args):
            rhs = factory(*args)

            def counted(*state):
                nonlocal calls
                calls += 1
                return rhs(*state)

            return counted

        monkeypatch.setattr(timedomain, "_rhs_factory", counting_factory)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            integrate(params, delta, config, initial_state=initial_state)
        assert calls == reference.nfev

    @pytest.mark.parametrize("case", list(SCIPY_CASES))
    def test_windowed_stepper_equals_solve_ivp_on_the_window(self, case, monkeypatch):
        # probe_response's run: samples from the first one demodulate keeps, and scipy's
        # t_eval = samples[first:], which skips the interpolant (3 calls) on earlier steps
        params, delta, config, initial_state = SCIPY_CASES[case]
        first = window_start(config)
        assert first > 0
        reference = solve_ivp_reference(params, delta, config, initial_state, first=first)
        assert reference.success
        assert reference.nfev < solve_ivp_reference(params, delta, config, initial_state).nfev
        calls = count_rhs_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            trajectory = timedomain._integrate(params, delta, config, initial_state, config.transient_fraction)
        assert np.array_equal(trajectory.t, reference.t)
        assert np.array_equal(trajectory.states, reference.y.T)
        assert calls == [reference.nfev]

    @pytest.mark.parametrize("edge", ["second", "last"])
    def test_window_edges_equal_solve_ivp(self, edge, monkeypatch):
        # the next-sample index at both ends: sampling from samples[1] on, and only the last sample
        params, delta, config, initial_state = SCIPY_CASES["energy-pinned"]
        samples = np.arange(0.0, config.duration + 0.5 * config.dt, config.dt)
        first, window = (1, 0.5 * config.dt / samples[-1]) if edge == "second" else (len(samples) - 1, 1.0)
        reference = solve_ivp_reference(params, delta, config, initial_state, first=first)
        assert reference.success
        assert len(reference.t) == len(samples) - first
        calls = count_rhs_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            trajectory = timedomain._integrate(params, delta, config, initial_state, window)
        assert np.array_equal(trajectory.t, reference.t)
        assert np.array_equal(trajectory.states, reference.y.T)
        assert calls == [reference.nfev]

    def test_one_sample_run_returns_the_initial_state(self):
        # t_eval = [0]: no step is taken (solve_ivp returns no sample at all here)
        params = quick_system()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            trajectory = integrate(params, 0.01, TrajectoryConfig(duration=0.1, dt=1.0))
        op = solve_steady_state(params)
        assert np.array_equal(trajectory.t, [0.0])
        assert np.array_equal(trajectory.states, [[op.q1s, 0.0, op.q2s, 0.0, op.cs.real, op.cs.imag]])

    def test_rtol_below_the_floor_is_raised_as_solve_ivp_raises_it(self):
        params, config = energy_system(), TrajectoryConfig(duration=2.0 * math.pi, dt=0.35,
                                                           integrator_tolerance=1e-14)
        with pytest.warns(TrajectoryConfigWarning, match="raised to"):
            trajectory = integrate(params, 1.0, config, initial_state=PINNED_STATE)
        with pytest.warns(UserWarning, match="rtol"):
            reference = solve_ivp_reference(params, 1.0, config, PINNED_STATE)
        assert np.array_equal(trajectory.states, reference.y.T)

    def test_pinned_energy_run_rejects_steps(self):
        # the energy-pinned case above covers the rejection rule: scipy makes
        # 2 + 12 right-hand-side calls per attempted step when it takes no samples
        params, delta, config, initial_state = SCIPY_CASES["energy-pinned"]
        steps = solve_ivp_reference(params, delta, config, initial_state, t_eval=False)
        attempts = (steps.nfev - 2) // 12
        assert attempts > len(steps.t) - 1

    def test_too_small_step_names_the_last_sample(self, monkeypatch):
        # y0' = y0^2 blows up at t = 1: the step shrinks below 10 ulp(t) while the state is finite
        monkeypatch.setattr(timedomain, "_rhs_factory",
                            lambda *args: lambda t, q1, *rest: (q1 * q1, 0.0, 0.0, 0.0, 0.0, 0.0))
        params, config = quick_system(), TrajectoryConfig(duration=2.0, dt=0.3)
        initial_state = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        reference = solve_ivp_reference(params, 1.0, config, initial_state)
        assert reference.status == -1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            with pytest.raises(IntegrationError) as err:
                integrate(params, 1.0, config, initial_state=initial_state)
        assert type(err.value) is IntegrationError
        assert str(err.value) == (
            f"integrator failed at t = {float(reference.t[-1])!r}: Required step size is less "
            "than spacing between numbers.; consider a smaller kappa/omega1 separation or "
            "dimensionless units"
        )
        assert reference.message == "Required step size is less than spacing between numbers."

class TestDemodulate:
    def synthetic(self, delta, coefficients, t_end=4000.0, dt=0.3):
        t = np.arange(0.0, t_end, dt)
        cs, c_minus, c_plus = coefficients
        field = cs + c_minus * np.exp(-1j * delta * t) + c_plus * np.exp(1j * delta * t)
        states = np.zeros((t.size, 6))
        states[:, 4] = field.real
        states[:, 5] = field.imag
        return Trajectory(t=t, states=states)

    def test_exact_three_tone(self):
        delta = 1.1
        trajectory = self.synthetic(delta, (2.0, 0.1, 0.0))
        config = TrajectoryConfig(duration=float(trajectory.t[-1]), dt=0.3,
                                  transient_fraction=0.5)
        result = demodulate(trajectory, delta, config)
        assert result.cs_est == pytest.approx(2.0, abs=1e-12)
        assert result.c_minus_est == pytest.approx(0.1, abs=1e-12)
        assert abs(result.c_plus_est) <= 1e-12
        assert result.leakage <= 1e-24
        assert result.accepted

    def test_probe_normalization(self):
        delta = 0.9
        trajectory = self.synthetic(delta, (1.0, 0.05, 0.01))
        config = TrajectoryConfig(duration=float(trajectory.t[-1]), dt=0.3,
                                  transient_fraction=0.5)
        result = demodulate(trajectory, delta, config, probe_amplitude=0.5)
        assert result.c_minus_est == pytest.approx(0.1, abs=1e-12)
        assert result.c_plus_est == pytest.approx(0.02, abs=1e-12)

    def test_additive_noise_bounds(self, rng):
        delta = 1.1
        trajectory = self.synthetic(delta, (2.0, 0.1, 0.0))
        noise = 1e-3 * (rng.standard_normal(trajectory.t.size)
                        + 1j * rng.standard_normal(trajectory.t.size))
        states = trajectory.states.copy()
        states[:, 4] += noise.real
        states[:, 5] += noise.imag
        noisy = Trajectory(t=trajectory.t, states=states)
        config = TrajectoryConfig(duration=float(trajectory.t[-1]), dt=0.3,
                                  transient_fraction=0.5)
        result = demodulate(noisy, delta, config)
        assert abs(result.c_minus_est - 0.1) <= 1e-3
        window = trajectory.t >= 0.5 * trajectory.t[-1]
        expected = float(np.sum(np.abs(noise[window]) ** 2)
                         / np.sum(np.abs(noisy.cavity_field[window]) ** 2))
        assert result.leakage == pytest.approx(expected, rel=0.2)

    def test_pump_only_trajectory_has_no_sidebands(self):
        params = quick_system(ratio=0.0)
        config = quick_config()
        trajectory = integrate(params, 1.03, config)
        result = demodulate(trajectory, 1.03, config)
        assert abs(result.c_minus_est) <= 1e-8
        assert abs(result.c_plus_est) <= 1e-8

    def test_window_shorter_than_one_beat_raises(self):
        delta = 1.0
        trajectory = self.synthetic(delta, (1.0, 0.1, 0.0), t_end=8.0, dt=0.2)
        config = TrajectoryConfig(duration=8.0, dt=0.2, transient_fraction=0.5)
        with pytest.raises(InsufficientDataError):
            demodulate(trajectory, delta, config)

    def test_fewer_than_four_samples_after_the_transient_raise(self):
        # t = 0, 1, ..., 6: discarding half leaves the 4 samples needed, discarding 51 % leaves 3
        trajectory = self.synthetic(1.0, (1.0, 0.1, 0.0), t_end=7.0, dt=1.0)
        for fraction, message in ((0.5, "shorter than one beat period"), (0.51, "no samples left")):
            config = TrajectoryConfig(duration=6.0, dt=1.0, transient_fraction=fraction)
            with pytest.raises(InsufficientDataError, match=message):
                demodulate(trajectory, 1.0, config)

    def test_few_beats_warns(self):
        delta = 1.0
        trajectory = self.synthetic(delta, (1.0, 0.1, 0.0), t_end=100.0, dt=0.2)
        config = TrajectoryConfig(duration=100.0, dt=0.2, transient_fraction=0.5)
        with pytest.warns(TrajectoryConfigWarning):
            demodulate(trajectory, delta, config)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_detuning_must_be_finite_and_positive(self, delta):
        # 2pi/delta is the beat period: 0 divided by zero, a negative one gave a negative period
        trajectory = self.synthetic(1.0, (1.0, 0.1, 0.0), t_end=100.0, dt=0.2)
        config = TrajectoryConfig(duration=100.0, dt=0.2, transient_fraction=0.5)
        with pytest.raises(ValueError, match="finite and positive"):
            demodulate(trajectory, delta, config)


class TestEndToEnd:
    def test_demodulated_sideband_matches_linear_oracle(self):
        params = quick_system()
        config = quick_config()
        op = solve_steady_state(params)
        reference = solve_sidebands(1.03, params, op).c_minus
        result = probe_response(params, 1.03, config)
        error = abs(result.c_minus_est - reference) / abs(reference)
        assert error <= 1e-2
        assert result.accepted
        # halving the probe must not increase the error
        half = quick_system(ratio=5e-4)
        result_half = probe_response(half, 1.03, config)
        error_half = abs(result_half.c_minus_est - reference) / abs(reference)
        assert error_half <= error

    @pytest.mark.parametrize("delta", [0.0, -1.03, math.nan])
    def test_detuning_must_be_positive(self, monkeypatch, delta):
        # refused before integrating: the run would be wasted, and a NaN one would end as a divergence
        monkeypatch.setattr(timedomain, "integrate", lambda *args: pytest.fail("probe_response integrated"))
        with pytest.raises(ValueError, match="finite and positive"):
            probe_response(quick_system(), delta, quick_config())

    @pytest.mark.parametrize("case", list(VALIDATE_RING_DOWNS))
    def test_probe_response_equals_demodulating_the_full_run(self, case):
        params, delta, config, _ = timedomain_check_case(*VALIDATE_RING_DOWNS[case], ringdowns=20.0)
        full = demodulate(integrate(params, delta, config), delta, config,
                          probe_amplitude=params.probe_amplitude(delta))
        assert repr(probe_response(params, delta, config)) == repr(full)

    def test_a_stop_before_the_window_is_reported_as_integrate_reports_it(self, monkeypatch):
        # q1' = q1^2 from q1s = 0.0389 blows up at t = 25.7, long before the window at t = 300:
        # the windowed run has no sample to name, integrate names the last one, t = 25.5
        monkeypatch.setattr(timedomain, "_rhs_factory",
                            lambda *args: lambda t, q1, *rest: (q1 * q1, 0.0, 0.0, 0.0, 0.0, 0.0))
        params, config = quick_system(), TrajectoryConfig(duration=400.0, dt=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrajectoryConfigWarning)
            with pytest.raises(IntegrationError) as expected:
                integrate(params, 1.0, config)
            with pytest.raises(IntegrationError) as err:
                probe_response(params, 1.0, config)
        assert type(expected.value) is type(err.value) is IntegrationError
        assert str(err.value) == str(expected.value)
        assert str(err.value).startswith("integrator failed at t = 25.5: Required step size")

    def test_a_diverging_initial_state_is_reported_as_integrate_reports_it(self, monkeypatch):
        # an operating point whose photon number overflows: the state leaves the finite domain at once
        operating_point = timedomain.solve_steady_state
        monkeypatch.setattr(timedomain, "solve_steady_state",
                            lambda params: dataclasses.replace(operating_point(params), cs=1e160 + 0j))
        params, config = quick_system(), quick_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow inside the stages
            with pytest.raises(DivergenceError) as expected:
                integrate(params, 1.03, config)
            with pytest.raises(DivergenceError) as err:
                probe_response(params, 1.03, config)
        assert err.value.time == expected.value.time
        assert str(err.value) == str(expected.value)

    def test_probe_required(self):
        params = quick_system(ratio=0.0)
        with pytest.raises(ValueError):
            probe_response(params, 1.03, quick_config())

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oemsim.response
from oemsim.errors import (
    GridTooCoarseError,
    InvariantViolationError,
    MechanicalPoleError,
    SingularResponseError,
    UndefinedPhaseError,
)
from oemsim.linsys import solve_sidebands
from oemsim.params import (
    DIMENSIONLESS,
    HBAR,
    SI,
    CavityParams,
    CouplingParams,
    DriveParams,
    MechanicalMode,
    SystemParams,
)
from oemsim.response import (
    CONVENTIONS,
    OK,
    STATUS_ERRORS,
    Coefficients,
    abs_squared,
    amplitude_kernel,
    coefficients,
    group_delay,
    group_delays,
    kernel_terms,
    phase,
    phase_spectrum,
    sideband_amplitude,
    sideband_amplitude_derivative,
    transmission,
    transmission_maxima,
    transmissions,
    t_p_pair,
    unwrap_phase,
    window_scan,
    wrap_phase_jump,
)
from oemsim.presets import get_preset
from oemsim.steady import OperatingPoint, solve_steady_state, solve_steady_states
from oemsim.validate import dimensionless_system, system_for_beta


def allpass_reference(delta, delta_c, kappa):
    return -1j / (delta_c - delta - 1j * kappa)


class TestSusceptibilityParts:
    def test_decoupled_resonators_have_zero_alpha(self):
        # alpha = 0 when g_c = 0: mirror 2 drops out of X bit for bit
        params = dimensionless_system(kappa=0.2, g_coulomb=0.0, pump_amplitude=0.3)
        other = dimensionless_system(kappa=0.2, g_coulomb=0.0, pump_amplitude=0.3,
                                     gamma2=0.01, omega2=1.3, mass2=2.0)
        op = solve_steady_state(params)
        for delta in (0.1, 0.9, 1.0, 1.7):
            assert sideband_amplitude(delta, params, op) == sideband_amplitude(delta, other, op)

    def test_pump_off_has_zero_beta(self, pump_off):
        # beta = 0 without photons: g_cav drops out of X bit for bit
        op = solve_steady_state(pump_off)
        other = dataclasses.replace(pump_off, coupling=dataclasses.replace(pump_off.coupling, g_cav=0.7))
        assert sideband_amplitude(1.2, pump_off, op) == sideband_amplitude(1.2, other, op)

    def test_hand_evaluated_alpha_near_pole(self):
        # alpha = g_c^2 / chi2 = 0.0025 / (1e-3 i) = -2.5i at delta = omega2 = 1
        params = dimensionless_system(kappa=0.2, gamma2=1e-3, g_coulomb=0.05,
                                      pump_amplitude=0.2)
        op = solve_steady_state(params)
        kappa, gamma1, big_delta = 0.2, params.mech1.gamma, op.delta_eff
        beta = params.coupling.g_cav**2 * op.photon_number / 2.0
        b = 1j * gamma1 + 2.5j  # chi1 - alpha
        a = kappa - 1j * (big_delta + 1.0)
        d = big_delta**2 - (1.0 + 1j * kappa) ** 2
        x = (a * b - 2j * beta) / (d * b + 4.0 * big_delta * beta)
        assert sideband_amplitude(1.0, params, op) == pytest.approx(x, rel=1e-12)

    def test_exact_pole_raises(self):
        params = dimensionless_system(kappa=0.2, gamma2=0.0, pump_amplitude=0.2)
        op = solve_steady_state(params)
        with pytest.raises(MechanicalPoleError):
            sideband_amplitude(1.0, params, op)

    def test_exact_pole_on_a_grid_raises(self):
        # the grid functions raise the first failed detuning of their array status
        params = dimensionless_system(kappa=0.2, gamma2=0.0, pump_amplitude=0.2)
        op = solve_steady_state(params)
        with pytest.raises(MechanicalPoleError):
            phase_spectrum([0.9, 1.0, 1.1], params, op)
        phase_spectrum([0.9, 1.05, 1.1], params, op)
        assert 1.0 in np.linspace(0.8, 1.2, 3)
        with pytest.raises(MechanicalPoleError):
            transmission_maxima(params, op, half_width=0.2, points=3)
        transmission_maxima(params, op, half_width=0.2, points=4)


class TestSidebandAmplitude:
    def test_bare_cavity_factorization(self, rng):
        # with alpha = beta = 0 the response must collapse to the all-pass form
        for _ in range(100):
            kappa = float(rng.uniform(0.02, 0.5))
            delta_c = float(rng.uniform(0.2, 2.0))
            delta = float(rng.uniform(-2.0, 2.0))
            params = dimensionless_system(kappa=kappa, pump_amplitude=0.0,
                                          detuning_mode="explicit", detuning=delta_c)
            op = solve_steady_state(params)
            x = sideband_amplitude(delta, params, op)
            assert abs(x - allpass_reference(delta, delta_c, kappa)) <= 1e-12 * abs(x)

    def test_matches_linear_system_oracle(self, rng):
        for _ in range(50):
            params = system_for_beta(
                kappa=float(rng.uniform(0.05, 0.5)),
                beta=float(rng.uniform(0.0, 1e-2)),
                g_coulomb=float(rng.uniform(0.0, 0.1)),
            )
            op = solve_steady_state(params)
            delta = float(rng.uniform(0.5, 1.5))
            x = sideband_amplitude(delta, params, op)
            oracle = solve_sidebands(delta, params, op).c_minus
            assert abs(x - oracle) <= 1e-9 * abs(oracle)

    def test_conjugation_pairing(self):
        # flipping the sign of every imaginary term conjugates the output
        params = system_for_beta(kappa=0.3, beta=4e-3, g_coulomb=0.15)
        op = solve_steady_state(params)
        delta = 1.02
        big_delta = op.delta_eff
        kappa, gamma1, gamma2 = params.cavity.kappa, params.mech1.gamma, params.mech2.gamma
        beta = params.coupling.g_cav**2 * op.photon_number / 2.0
        alpha = 0.15**2 / (delta**2 - 1.0 + 1j * delta * gamma2)
        b = delta**2 - 1.0 + 1j * delta * gamma1 - alpha
        a = kappa - 1j * (big_delta + delta)
        d = big_delta**2 - (delta + 1j * kappa) ** 2
        flipped = (a.conjugate() * b.conjugate() + 2j * beta) / (
            d.conjugate() * b.conjugate() + 4.0 * big_delta * beta
        )
        x = sideband_amplitude(delta, params, op)
        assert flipped == pytest.approx(x.conjugate(), rel=1e-14)

    def test_singular_response_raises(self):
        # undamped mirror 1, no pump: numerator and denominator both vanish at resonance
        params = dimensionless_system(kappa=0.2, gamma1=0.0, pump_amplitude=0.0,
                                      detuning_mode="explicit", detuning=1.0)
        op = solve_steady_state(params)
        with pytest.raises(SingularResponseError):
            sideband_amplitude(1.0, params, op)


class TestTransmission:
    def test_pump_off_is_allpass(self, pump_off, rng):
        op = solve_steady_state(pump_off)
        for delta in rng.uniform(-2.0, 3.0, 60):
            sample = transmission(float(delta), pump_off, op)
            assert abs(abs(sample.t_p) - 1.0) <= 1e-12

    def test_pump_off_intracavity_lorentzian(self, pump_off):
        op = solve_steady_state(pump_off)
        delta_c, kappa = 1.0, pump_off.cavity.kappa
        center = transmission(delta_c, pump_off, op, convention="intracavity")
        assert center.transmission == pytest.approx(4.0, rel=1e-12)
        for sign in (-1.0, 1.0):
            half = transmission(delta_c + sign * kappa, pump_off, op, convention="intracavity")
            assert half.transmission == pytest.approx(2.0, rel=1e-12)

    def test_single_window_without_coulomb(self):
        params = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.0)
        op = solve_steady_state(params)
        peaks = transmission_maxima(params, op)
        assert len(peaks) == 1
        assert abs(peaks[0][0]) < 0.05

    def test_double_window_with_coulomb(self):
        # oracle-checked structure at the working point
        params = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.05)
        op = solve_steady_state(params)
        grid = np.linspace(0.9, 1.1, 4001)
        oracle_t = np.empty(grid.size)
        for i, d in enumerate(grid):
            c_minus = solve_sidebands(float(d), params, op).c_minus
            oracle_t[i] = abs(1.0 - 2.0 * params.cavity.kappa * c_minus) ** 2
        oracle_peaks = [
            i for i in range(1, grid.size - 1)
            if oracle_t[i] > oracle_t[i - 1] and oracle_t[i] > oracle_t[i + 1]
        ]
        assert len(oracle_peaks) == 2
        peaks = transmission_maxima(params, op, half_width=0.1, points=4001)
        assert len(peaks) == 2
        for (db, _), idx in zip(peaks, oracle_peaks):
            assert db == pytest.approx(float(grid[idx] - 1.0), abs=1e-4)

    def test_weak_pump_split_features_are_dips(self):
        # below the transparency threshold (beta ~ 4 gamma / kappa) the split
        # features sit under the baseline; only the center bump is a maximum
        params = system_for_beta(kappa=0.05, beta=1e-4, g_coulomb=0.02)
        op = solve_steady_state(params)
        peaks = transmission_maxima(params, op, half_width=0.1, points=4001)
        assert len(peaks) == 1

    def test_window_separation_nondecreasing_in_coulomb_coupling(self):
        separations = []
        for g_c in np.linspace(0.025, 0.2, 8):
            params = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=float(g_c))
            op = solve_steady_state(params)
            peaks = transmission_maxima(params, op)
            assert len(peaks) >= 2
            top_two = sorted(sorted(peaks, key=lambda p: p[1])[-2:])
            separations.append(top_two[1][0] - top_two[0][0])
        assert all(b >= a for a, b in zip(separations, separations[1:]))

    def test_unknown_convention_rejected(self, pump_off):
        op = solve_steady_state(pump_off)
        with pytest.raises(ValueError):
            transmission(1.0, pump_off, op, convention="mystery")


class TestPhaseSpectrum:
    def test_pump_off_full_winding(self, pump_off):
        op = solve_steady_state(pump_off)
        kappa = pump_off.cavity.kappa
        grid = np.linspace(1.0 - 150 * kappa, 1.0 + 150 * kappa, 6001)
        samples = phase_spectrum([float(d) for d in grid], pump_off, op)
        assert -math.pi < samples[0].phase <= math.pi
        winding = samples[-1].phase - samples[0].phase
        assert winding == pytest.approx(2 * math.pi, abs=0.05)
        jumps = np.diff([s.phase for s in samples])
        assert np.max(np.abs(jumps)) < math.pi

    def test_slow_preset_has_positive_center_slope(self, slowfast_delay):
        op = solve_steady_state(slowfast_delay)
        grid = [1.0 - 1e-4, 1.0, 1.0 + 1e-4]
        samples = phase_spectrum(grid, slowfast_delay, op)
        assert samples[2].phase - samples[0].phase > 0

    def test_fast_preset_has_negative_center_slope(self):
        params = system_for_beta(kappa=0.227, beta=1e-6, g_coulomb=0.0)
        op = solve_steady_state(params)
        grid = [1.0 - 1e-4, 1.0, 1.0 + 1e-4]
        samples = phase_spectrum(grid, params, op)
        assert samples[2].phase - samples[0].phase < 0

    def test_exact_pi_jump_rejected(self, pump_off):
        # the all-pass phase advances by exactly pi between Delta-kappa and
        # Delta+kappa, the boundary the grid check must reject
        op = solve_steady_state(pump_off)
        kappa = pump_off.cavity.kappa
        with pytest.raises(GridTooCoarseError):
            phase_spectrum([1.0 - kappa, 1.0 + kappa, 1.0 + 5 * kappa], pump_off, op)

    def test_grid_validation(self, pump_off):
        op = solve_steady_state(pump_off)
        with pytest.raises(ValueError):
            phase_spectrum([1.0, 1.1], pump_off, op)
        with pytest.raises(ValueError):
            phase_spectrum([1.0, 0.9, 1.1], pump_off, op)
        with pytest.raises(ValueError, match="detuning delta = inf must be finite"):
            phase_spectrum([0.9, 1.0, math.inf], pump_off, op)

    def test_nan_in_grid_is_not_increasing(self, pump_off):
        # NaN passes no comparison, so the grid check must ask for b > a, not refuse b <= a
        op = solve_steady_state(pump_off)
        with pytest.raises(ValueError, match="detuning grid must be strictly increasing"):
            phase_spectrum([1.0, math.nan, 1.1], pump_off, op)


def accumulate_unwrap(phases):
    """The reference unwrap: itertools.accumulate with one wrap_phase_jump call per element."""
    return list(itertools.accumulate(phases, lambda prev, p: prev + wrap_phase_jump(p - prev)))


class TestUnwrapPhase:
    def test_matches_accumulate_bit_for_bit(self, rng):
        # principal values of random walks, and raw values, whose jumps span several 2 pi
        for scale in (0.5, 3.0, 20.0, 1e3):
            walk = np.cumsum(rng.normal(0.0, scale, 4001))
            for phases in (np.arctan2(np.sin(walk), np.cos(walk)), walk, rng.uniform(-scale, scale, 500)):
                expected = accumulate_unwrap(phases.tolist())
                assert list(map(_bits, unwrap_phase(phases.tolist()))) == list(map(_bits, expected))

    def test_nan_stays_and_the_next_value_seeds_again(self, rng):
        phases = rng.uniform(-math.pi, math.pi, 12).tolist()
        holed = [math.nan] + phases[:5] + [math.nan, math.nan] + phases[5:] + [math.nan]
        unwrapped = unwrap_phase(holed)
        assert [math.isnan(p) for p in unwrapped] == [math.isnan(p) for p in holed]
        assert unwrapped[1:6] == accumulate_unwrap(phases[:5])
        assert unwrapped[8:-1] == accumulate_unwrap(phases[5:])
        assert unwrap_phase([]) == []


class TestRangeChecks:
    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, pump_off, delta):
        op = solve_steady_state(pump_off)
        for call in (sideband_amplitude, sideband_amplitude_derivative, transmission, group_delay):
            with pytest.raises(ValueError, match=f"detuning delta = {delta!r} must be finite"):
                call(delta, pump_off, op)

    @pytest.mark.parametrize("half_width", [math.nan, math.inf, 0.0, -0.1])
    def test_half_width_must_be_finite_and_positive(self, pump_off, half_width):
        op = solve_steady_state(pump_off)
        with pytest.raises(ValueError, match=f"half_width = {half_width!r} must be finite and positive"):
            transmission_maxima(pump_off, op, half_width=half_width)

    @pytest.mark.parametrize("points", [0, 1, 2, True, -5, 4001.0])
    def test_points_must_be_an_int_of_at_least_3(self, pump_off, points):
        op = solve_steady_state(pump_off)
        with pytest.raises(ValueError, match=re.escape(f"points = {points!r} must be an int of at least 3")):
            transmission_maxima(pump_off, op, points=points)

    def test_float_range_failures_are_invariant_violations(self, slowfast_spectrum):
        op = solve_steady_state(slowfast_spectrum)
        c = coefficients(slowfast_spectrum, op)
        out_of_range = STATUS_ERRORS.index(InvariantViolationError)
        # NaN elements: from the kernel's products at 1e150, from its squares at 1e200, where one
        # point raises OverflowError instead; at 1e80 the denominator overflows to inf and X to 0,
        # though X ~ i/delta is a representable double
        grid = np.array([1.0, 1e40, 1e80, 1e150, 1e200])
        assert amplitude_kernel(grid, c)[2].tolist() == [OK, OK] + [out_of_range] * 3
        # at 1e40 X is finite, but the squared denominator of dX overflows and dX ~ -1e-80 reads 0
        assert amplitude_kernel(grid, c, derivative=True)[2].tolist() == [OK] + [out_of_range] * 4
        for call in (sideband_amplitude, transmission):
            with pytest.raises(InvariantViolationError, match=re.escape("delta = 1e+80")):
                call(1e80, slowfast_spectrum, op)
        with pytest.raises(InvariantViolationError, match=re.escape("delta = 1e+40")):
            group_delay(1e40, slowfast_spectrum, op)
        for delta in (1e150, 1e200):
            with pytest.raises(InvariantViolationError, match=re.escape(f"delta = {delta!r}")):
                transmission(delta, slowfast_spectrum, op)
        with pytest.raises(InvariantViolationError):
            sideband_amplitude_derivative(1e80, slowfast_spectrum, op)
        with pytest.raises(InvariantViolationError):
            phase_spectrum([1.0, 1e150, 1e200], slowfast_spectrum, op)
        with pytest.raises(InvariantViolationError):
            transmission_maxima(slowfast_spectrum, op, half_width=1e200)


class TestGroupDelay:
    def test_pump_off_line_center_delay(self, pump_off):
        op = solve_steady_state(pump_off)
        kappa = pump_off.cavity.kappa
        for method in ("analytic", "finite-difference"):
            tau = group_delay(1.0, pump_off, op, method=method)
            assert tau == pytest.approx(2.0 / kappa, rel=1e-9)

    def test_methods_agree_on_random_points(self, rng):
        checked = 0
        while checked < 100:
            params = system_for_beta(
                kappa=float(rng.uniform(0.05, 0.5)),
                beta=float(rng.uniform(0.0, 1e-2)),
                g_coulomb=float(rng.uniform(0.0, 0.1)),
            )
            op = solve_steady_state(params)
            delta = float(rng.uniform(0.5, 1.5))
            if abs(transmission(delta, params, op).t_p) <= 1e-6:
                continue
            checked += 1
            analytic = group_delay(delta, params, op, "analytic")
            fd = group_delay(delta, params, op, "finite-difference")
            assert abs(analytic - fd) <= 1e-6 * abs(analytic)

    def test_slow_and_fast_presets_at_line_center(self, slowfast_delay):
        op = solve_steady_state(slowfast_delay)
        assert group_delay(1.0, slowfast_delay, op) > 0
        fast = system_for_beta(kappa=0.227, beta=1e-6, g_coulomb=0.0)
        op_fast = solve_steady_state(fast)
        assert group_delay(1.0, fast, op_fast) < 0

    def test_vanishing_transmission_rejected(self, pump_off):
        op = solve_steady_state(pump_off)
        with pytest.raises(UndefinedPhaseError):
            group_delay(1e13, pump_off, op, convention="intracavity")

    def test_unknown_method_rejected(self, pump_off):
        op = solve_steady_state(pump_off)
        with pytest.raises(ValueError):
            group_delay(1.0, pump_off, op, method="secant")


# --- the kernel's arithmetic contract -------------------------------------------------------


def closed_form(delta, kappa, big_delta, w1, w2, gamma1, gamma2, m1, m2, hbar, g_c, g_cav, n):
    """The scalar closed form with Python complex numbers: (X, dX/d delta) or the error it raises."""
    chi1 = delta**2 - w1**2 + 1j * delta * gamma1
    chi2 = delta**2 - w2**2 + 1j * delta * gamma2
    if chi2 == 0:
        return MechanicalPoleError
    alpha = (hbar * g_c) ** 2 / (m1 * m2 * chi2)
    beta = hbar * g_cav**2 * n / (2.0 * m1 * w1)
    a = kappa - 1j * (big_delta + delta)
    d = big_delta**2 - (delta + 1j * kappa) ** 2
    b = chi1 - alpha
    num = a * b - 2j * w1 * beta
    den = d * b + 4.0 * big_delta * w1 * beta
    if den == 0 or abs(den) < 1e-30 * abs(num):
        return SingularResponseError
    alpha_p = -alpha * (2.0 * delta + 1j * gamma2) / chi2
    b_p = 2.0 * delta + 1j * gamma1 - alpha_p
    num_p = -1j * b + a * b_p
    den_p = -2.0 * (delta + 1j * kappa) * b + d * b_p
    return num / den, (num_p * den - num * den_p) / den**2


def closed_form_delays(case, convention):
    """(tau_fd, tau_analytic, |t_p| at the centre) or the first error, in the scalar order."""
    kappa, w1 = case[1], case[3]
    sign = -1.0 if convention == "paper-corrected" else 1.0

    def t_p(x):
        return 1.0 - 2.0 * kappa * x if convention == "paper-corrected" else 2.0 * kappa * x

    centre = closed_form(*case)
    if not isinstance(centre, tuple):
        return centre
    t0 = t_p(centre[0])
    if abs(t0) < 1e-12:
        return UndefinedPhaseError
    # the step: 3e-3 of the local feature width |t_p| / |dt_p/d delta|, at most 1e-6 omega1
    slope = abs(2.0 * kappa * centre[1])
    ratio = 3e-3 * abs(t0) / (slope if slope > 0.0 else 1.0)
    h = ratio if slope > 0.0 and ratio < 1e-6 * w1 else 1e-6 * w1
    t = []
    for point in (case[0] + h, case[0] - h, case[0] + h / 2.0, case[0] - h / 2.0):
        result = closed_form(point, *case[1:])
        if not isinstance(result, tuple):
            return result
        t.append(t_p(result[0]))

    def slope(plus, minus, step):
        return np.angle(plus * np.conj(minus)) / (2.0 * step)

    tau_fd = (4.0 * slope(t[2], t[3], h / 2.0) - slope(t[0], t[1], h)) / 3.0
    tau_analytic = (sign * 2.0 * kappa * centre[1] / t0).imag
    return tau_fd, tau_analytic, abs(t0)


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _strength(hi):
    # zero, or not tiny: a denominator below 1e-154 squares to 0 in dX, where
    # the scalar form raises ZeroDivisionError and the kernel gives NaN
    return st.one_of(st.just(0.0), _unit(1e-6, hi))


@st.composite
def operating_points(draw):
    """(params, op, delta, closed-form arguments), the operating point drawn, not solved.

    Delta and n are Python floats, as the solver returns them on every branch.
    """
    si = draw(st.booleans())
    w1 = draw(_unit(1e5, 1e7)) if si else 1.0
    m1, m2 = (draw(_unit(1e-11, 1e-9)), draw(_unit(1e-11, 1e-9))) if si else (1.0, draw(_unit(0.2, 5.0)))
    hbar = HBAR if si else 1.0
    w2 = w1 * draw(st.one_of(st.just(1.0), _unit(0.5, 1.5)))
    gamma1, gamma2 = (w1 * draw(_strength(0.1)) for _ in range(2))
    # couplings from their dimensionless strengths: alpha ~ g^2 w1^2, beta ~ b w1^2
    g_c = draw(_strength(0.5)) * math.sqrt(m1 * m2) * w1**2 / hbar
    g_cav, n = 1.0, draw(_strength(1e-2)) * 2.0 * m1 * w1**3 / hbar
    kappa = w1 * draw(_unit(0.01, 1.0))
    big_delta = w1 * draw(_unit(0.5, 1.5))
    delta = draw(st.one_of(st.just(w2), st.just(w1), _unit(0.5 * w1, 1.5 * w1)))
    cavity = CavityParams(kappa=kappa, length=1e-3, pump_wavelength=1e-6) if si else CavityParams(kappa=kappa)
    params = SystemParams(
        cavity=cavity,
        mech1=MechanicalMode(mass=m1, omega=w1, gamma=gamma1),
        mech2=MechanicalMode(mass=m2, omega=w2, gamma=gamma2),
        coupling=CouplingParams(g_cav=g_cav, g_coulomb=g_c),
        drive=DriveParams(pump_amplitude=0.0),
        unit_mode=SI if si else DIMENSIONLESS,
    )
    op = OperatingPoint(q1s=0.0, q2s=0.0, cs=0j, photon_number=n, delta_eff=big_delta,
                        delta_c=big_delta, branch_count=1, residual=0.0)
    return params, op, delta, (delta, kappa, big_delta, w1, w2, gamma1, gamma2, m1, m2, hbar, g_c, g_cav, n)


def _bits(value):
    """The bits of a real or complex value, signed zeros and NaNs included."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


@settings(max_examples=60, deadline=None)
@given(st.lists(operating_points(), min_size=1, max_size=30))
def test_kernel_matches_scalar_closed_form_bit_for_bit(cases):
    delta = np.array([case[2] for case in cases])
    coefs = Coefficients(*np.array([coefficients(case[0], case[1]) for case in cases]).T)
    x, dx, status = amplitude_kernel(delta, coefs, derivative=True)
    for k, (params, op, delta_k, args) in enumerate(cases):
        expected = closed_form(*args)
        if not isinstance(expected, tuple):
            assert STATUS_ERRORS[status[k]] is expected
            continue
        assert status[k] == OK
        assert _bits(complex(x[0][k], x[1][k])) == _bits(expected[0])
        assert _bits(complex(dx[0][k], dx[1][k])) == _bits(expected[1])
        if k < 3:  # the scalar path: the same pair code on Python floats
            assert _bits(sideband_amplitude(delta_k, params, op)) == _bits(expected[0])
            assert _bits(sideband_amplitude_derivative(delta_k, params, op)) == _bits(expected[1])
    for convention in CONVENTIONS:
        t_p = dict(zip(CONVENTIONS, transmissions(x, coefs.kappa)))[convention]
        power, phases = abs_squared(t_p), phase(t_p)
        tau_fd, tau_analytic, centre_abs, delay_status = group_delays(delta, coefs, convention)
        for k, (params, op, delta_k, args) in enumerate(cases):
            expected = closed_form(*args)
            if not isinstance(expected, tuple):
                continue
            two_kappa_x = 2.0 * args[1] * expected[0]
            t_expected = 1.0 - two_kappa_x if convention == "paper-corrected" else two_kappa_x
            assert _bits(complex(t_p[0][k], t_p[1][k])) == _bits(t_expected)
            assert _bits(power[k]) == _bits(abs(t_expected) ** 2)
            assert _bits(phases[k]) == _bits(math.atan2(t_expected.imag, t_expected.real))
            delays = closed_form_delays(args, convention)
            if not isinstance(delays, tuple):
                assert STATUS_ERRORS[delay_status[k]] is delays
                continue
            assert delay_status[k] == OK
            assert [_bits(v[k]) for v in (tau_fd, tau_analytic, centre_abs)] == list(map(_bits, delays))
            if k < 3:
                for method, tau in zip(("finite-difference", "analytic"), delays):
                    assert _bits(group_delay(delta_k, params, op, method, convention)) == _bits(tau)


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


@st.composite
def shared_term_groups(draw):
    """(grid, the coefficients of a drawn operating point, couplings) for `kernel_terms`: a grid through
    the signed zeros, the chi1 = 0 and chi2 = 0 points (a pole, or with gamma1 = 0 and no coupling a
    vanishing denominator) and the 1e77-1e100 float-range edge; couplings ((hbar g_c)^2, beta) from
    drawn strengths, zero among them."""
    params, op, _, args = draw(operating_points())
    c = Coefficients(*map(np.float64, coefficients(params, op)))
    w1, w2 = args[3], args[4]
    special = st.sampled_from([0.0, -0.0, w1, -w1, w2, -w2])
    delta = st.one_of(special, _signed(_unit(0.5 * w1, 1.5 * w1)), _signed(_unit(1e77, 1e100)))
    grid = np.array(draw(st.lists(delta, min_size=1, max_size=24)))
    strength = st.tuples(_strength(0.5), _strength(1e-2))
    couplings = [(s * s * c.masses * c.omega1_sq**2, b * c.omega1_sq)
                 for s, b in draw(st.lists(strength, min_size=1, max_size=4))]
    return grid, c, couplings


@settings(max_examples=60, deadline=None)
@given(shared_term_groups())
def test_kernel_on_shared_terms_matches_the_kernel_alone_bit_for_bit(group):
    # the terms built once from the group's coefficients serve every coupling of the group
    grid, c, couplings = group
    terms = kernel_terms(grid, c)
    for coulomb, beta in couplings:
        row = c._replace(coulomb=coulomb, beta=beta)
        x, dx, status = amplitude_kernel(grid, row, derivative=True)
        shared_x, shared_dx, shared_status = amplitude_kernel(grid, row, derivative=True, terms=terms)
        assert [part.tobytes() for part in (*shared_x, *shared_dx)] == [part.tobytes() for part in (*x, *dx)]
        assert shared_status.tolist() == status.tolist()


def test_window_scan_shares_terms_only_among_bit_equal_keys(monkeypatch, slowfast_spectrum):
    # rows that differ in (hbar g_c)^2 or beta share one build; a kappa, a Delta, a sign of zero or a
    # half-width of their own each take one; every row scans as the plain kernel does on its own grid
    base = coefficients(slowfast_spectrum, solve_steady_state(slowfast_spectrum))
    field = Coefficients._fields.index
    rows = np.tile(np.array(base), (9, 1))
    rows[1, field("coulomb")] *= 2.0
    rows[2, field("beta")] *= 0.5
    rows[3, field("kappa")] *= 1.5
    rows[4, field("detuning")] *= 1.01
    rows[5, field("gamma2")], rows[6, field("gamma2")] = 0.0, -0.0
    half_width = np.full(len(rows), 0.2 * base.omega1)
    half_width[8] = 0.1 * base.omega1
    builds, build = [], oemsim.response.kernel_terms

    def counting_build(delta, c):
        builds.append(c)
        return build(delta, c)

    monkeypatch.setattr(oemsim.response, "kernel_terms", counting_build)
    scans = list(window_scan(Coefficients(*rows.T), "paper-corrected", half_width, 4001))
    assert len(builds) == 6 and sorted(scan[0] for scan in scans) == list(range(len(rows)))
    for i, grid, status, delta_bar, heights in scans:
        row = Coefficients(*rows[i])
        plain = np.linspace(row.omega1 - half_width[i], row.omega1 + half_width[i], 4001)
        x, _, plain_status = amplitude_kernel(plain, row)
        values = abs_squared(t_p_pair(x, row.kappa, "paper-corrected"))
        peaks = [k for k in range(1, 4000) if values[k - 1] < values[k] > values[k + 1]]
        assert grid.tobytes() == plain.tobytes() and status.tolist() == plain_status.tolist()
        assert delta_bar.tobytes() == (plain[peaks] - row.omega1).tobytes()
        assert heights.tobytes() == values[peaks].tobytes()


def test_kernel_squares_delta_through_pow():
    # detunings where delta*delta and delta**2 (libm pow) round differently
    grid = [d for d in np.linspace(0.8, 1.2, 100001).tolist() if d * d != d**2][:40]
    assert len(grid) == 40
    params = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.2)
    op = solve_steady_state(params)
    x, _, status = amplitude_kernel(np.array(grid), coefficients(params, op))
    args = (0.227, op.delta_eff, 1.0, 1.0, params.mech1.gamma, params.mech2.gamma,
            1.0, 1.0, 1.0, 0.2, params.coupling.g_cav, op.photon_number)
    for k, d in enumerate(grid):
        assert status[k] == OK
        assert _bits(complex(x[0][k], x[1][k])) == _bits(closed_form(d, *args)[0])


def test_transmission_squares_abs_t_p_through_pow():
    # detunings where h = abs(t_p) gives h*h != h**2 (libm pow), in either convention
    params = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.2)
    op = solve_steady_state(params)
    args = (0.227, op.delta_eff, 1.0, 1.0, params.mech1.gamma, params.mech2.gamma,
            1.0, 1.0, 1.0, 0.2, params.coupling.g_cav, op.photon_number)

    def t_p(delta):
        two_kappa_x = 2.0 * 0.227 * closed_form(delta, *args)[0]
        return {"paper-corrected": 1.0 - two_kappa_x, "intracavity": two_kappa_x}

    def differs(delta):
        return {name: abs(t) * abs(t) != abs(t) ** 2 for name, t in t_p(delta).items()}

    grid = [d for d in np.linspace(0.5, 1.5, 60001).tolist() if any(differs(d).values())]
    assert all(sum(differs(d)[name] for d in grid) >= 5 for name in CONVENTIONS)
    coefs = coefficients(params, op)
    x, _, status = amplitude_kernel(np.array(grid), coefs)
    assert (status == OK).all()
    for convention, t_array in zip(CONVENTIONS, transmissions(x, coefs.kappa)):
        column = abs_squared(t_array)
        for k, d in enumerate(grid):
            assert _bits(column[k]) == _bits(abs(t_p(d)[convention]) ** 2)


def test_adaptive_step_array_and_scalar_paths_agree_bit_for_bit():
    # delay-vs-power on the slow/fast preset across the fast/slow crossing, where |tau|
    # reaches 6e4 and a fixed 1e-6 omega1 step puts tau_fd more than 1e-6 off on some rows
    base = get_preset("dimensionless-slowfast")
    powers = np.geomspace(1e-4, 1.0, 10001)[::20]
    states = solve_steady_states(base, {"drive": {"pump_power": powers, "pump_amplitude": None}})
    assert (states.status == 0).all()
    centre = np.full(len(powers), base.mech1.omega)
    tau_fd, tau_analytic, _, status = group_delays(centre, states.coefficients, "paper-corrected")
    assert (status == OK).all()
    x, dx, _ = amplitude_kernel(centre, states.coefficients, derivative=True)
    t0 = transmissions(x, states.coefficients.kappa)[0]
    steps = oemsim.response._fd_step(t0, dx, states.coefficients)
    assert (steps < 1e-6).any() and (steps == 1e-6).any()  # both branches of the step
    assert np.all(np.abs(tau_fd - tau_analytic) <= 1e-6 * np.abs(tau_analytic))
    for k, power in enumerate(powers.tolist()):
        params = dataclasses.replace(base, drive=DriveParams(pump_power=power))
        op = solve_steady_state(params)
        assert _bits(group_delay(1.0, params, op, "finite-difference")) == _bits(tau_fd[k])
        assert _bits(group_delay(1.0, params, op, "analytic")) == _bits(tau_analytic[k])


# Decisions from squares (the module docstring): the screens against the libm decisions they replace.
def exact_singular(numerator, denominator):
    """(SINGULAR test, |denominator| < inf) as the kernel took them on every element, by libm hypot."""
    den_abs = np.hypot(*denominator)
    singular = (denominator[0] == 0) & (denominator[1] == 0) | (den_abs < 1e-30 * np.hypot(*numerator))
    return singular, den_abs < math.inf


def _libm_square(h):
    try:
        return h**2
    except OverflowError:
        return math.nan


def exact_maxima(t):
    """(indices, heights) of the interior strict maxima of |t|^2, libm hypot and pow on every point."""
    values = np.array([_libm_square(h) for h in np.hypot(*t).tolist()])
    peaks = np.flatnonzero((values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])) + 1
    return peaks, values[peaks]


def _assert_singular_as_libm(numerator, denominator):
    with np.errstate(all="ignore"):  # as in amplitude_kernel
        singular, below_inf = oemsim.response._screened_singular(numerator, denominator)
        expected = [np.broadcast_to(v, singular.shape) for v in exact_singular(numerator, denominator)]
    assert singular.tolist() == expected[0].tolist() and below_inf.tolist() == expected[1].tolist()


def _assert_maxima_as_libm(t):
    t = tuple(np.array(part, dtype=float) for part in t)
    with np.errstate(all="ignore"):
        peaks, heights = oemsim.response._strict_maxima(t)
        expected_peaks, expected_heights = exact_maxima(t)
    assert peaks.tolist() == expected_peaks.tolist()
    assert heights.tobytes() == expected_heights.tobytes()


_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-200,
          1.1e-200, 1e-154, 1.5e-154, 1e-100, 1e100, 1e154, 1.4e154, 1e200, -1e308, 1.7976931348623157e308]
_SCALES = [1.0, 1e-250, 1e-200, 1e-154, 1e-100, 1e-30, 1e100, 1e154, 1e200, 1e250, 1e300]


def _part():
    return st.one_of(st.sampled_from(_EDGES), st.floats(), _signed(_unit(1e-3, 1e3)))


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def near_singular_pairs(draw):
    """(numerator, denominator) with |denominator| within a few ULP of 1e-30 |numerator|, at a drawn scale."""
    scale = draw(st.sampled_from(_SCALES))
    nr, ni = draw(_signed(_unit(0.1, 10.0))) * scale, draw(_signed(_unit(0.1, 10.0))) * scale
    theta, ulps = draw(_unit(0.0, 2.0 * math.pi)), draw(st.integers(-4, 4))
    d = 1e-30 * math.hypot(nr, ni)
    return (nr, ni), (_nudged(d * math.cos(theta), ulps), d * math.sin(theta))


_EDGE_PAIRS = st.tuples(st.tuples(_part(), _part()), st.tuples(_part(), _part()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(near_singular_pairs(), _EDGE_PAIRS), min_size=1, max_size=40))
def test_singular_screen_decides_as_libm(pairs):
    numerator, denominator = (tuple(np.array(part) for part in zip(*z)) for z in zip(*pairs))
    _assert_singular_as_libm(numerator, denominator)


# |denominator| within a ULP or two of 1e-30 |numerator|, where the squares, without the margin, decide
# otherwise than hypot: singular for hypot in the first, not in the second
_RATIO_EDGE = [((0.0012301533574825742, -0.33044966187381764), (-1.7286401411973518e-31, -2.8163189615562962e-31)),
               ((-0.9304680447082047, 0.046735488184225245), (-1.8443674876463924e-32, 9.314584365048066e-31))]


def _singular_cases():
    """(numerator, denominator) arrays: pairs at the ratio edge, at every scale, and every pair of edge parts."""
    cases = [((nr * s, ni * s), (dr * s, di * s)) for (nr, ni), (dr, di) in _RATIO_EDGE for s in _SCALES]
    edges = [(a, b) for a in _EDGES for b in (0.0, 1.0, math.nan, 1e154)]
    cases += list(itertools.product(edges, repeat=2))
    return [tuple(np.array(part) for part in zip(*z)) for z in zip(*cases)]


def test_singular_screen_at_the_ratio_edge_and_the_float_range_edges():
    numerator, denominator = _singular_cases()
    n = len(numerator[0]) - len(numerator[0]) % 4
    assert exact_singular(numerator, denominator)[0][:2 * len(_SCALES)].any()
    _assert_singular_as_libm(numerator, denominator)
    # a (4, n) stack, as group_delays' finite-difference points are
    _assert_singular_as_libm(*(tuple(part[:n].reshape(4, -1) for part in z) for z in (numerator, denominator)))
    # one-element columns and a float part, which broadcast against the other operand
    for k in (0, 1, 5, len(_SCALES), n - 1):
        column = tuple(part[k : k + 1] for part in denominator)
        _assert_singular_as_libm(numerator, column)
        _assert_singular_as_libm(column, numerator)
        _assert_singular_as_libm((numerator[0], 0.0), column)


def test_kernel_status_on_a_stack_and_one_element_columns_is_the_one_point_status():
    # undamped mirror 1 without a pump: the denominator vanishes at delta = 1; at 1e40 its square
    # overflows, at 1e80 the denominator itself
    params = dimensionless_system(kappa=0.2, gamma1=0.0, pump_amplitude=0.0, detuning_mode="explicit", detuning=1.0)
    c = coefficients(params, solve_steady_state(params))
    delta = np.array([[1.0, 0.9, 1e40, 1e80], [1.1, 1.0, 1e-170, 1e154], [-1.0, 2.0, 1e100, 1.0],
                      [0.0, -0.0, 1.0, 3.0]])
    columns = Coefficients(*(np.array([v]) for v in c))
    _, _, status = amplitude_kernel(delta, columns)
    assert status.shape == delta.shape and {SingularResponseError, InvariantViolationError} <= {
        STATUS_ERRORS[s] for s in status.ravel()}
    for k, d in enumerate(delta.ravel().tolist()):
        try:
            expected = amplitude_kernel(d, c)[2]
        except OverflowError:  # where an array element gives NaN
            expected = STATUS_ERRORS.index(InvariantViolationError)
        assert status.ravel()[k] == expected, d


@st.composite
def scan_rows(draw):
    """t of a window row: points on a circle (|t|^2 a plateau up to rounding), 1-ULP neighbours, edge parts."""
    scale = draw(st.sampled_from([1.0, 1e-161, 3e-155, 1e-100, 1e100, 1.2e154, 1e200]))
    point = st.one_of(
        _unit(0.0, 2.0 * math.pi).map(lambda theta: (scale * math.cos(theta), scale * math.sin(theta))),
        st.integers(-3, 3).map(lambda ulps: (_nudged(scale, ulps), 0.0)),
        st.tuples(st.sampled_from(_EDGES), _part()),
    )
    return tuple(zip(*draw(st.lists(point, min_size=3, max_size=40))))


@settings(max_examples=200, deadline=None)
@given(scan_rows())
def test_maxima_screen_finds_the_libm_maxima(t):
    _assert_maxima_as_libm(t)


# |t|^2 by libm rises from A to B, and by squares falls: on the unit circle, and below 1e-160, where
# the squares round to subnormal floats
_CIRCLE = ((-0.5986812100874627, 0.8009873960857382), (0.4530971511879907, 0.8914611441814652))
_SUBNORMAL = ((2.521181102056869e-161, -4.81743413386848e-161), (2.5251563633791918e-161, -4.815955524324394e-161))


@pytest.mark.parametrize("row", [
    [_CIRCLE[0], _CIRCLE[1], _CIRCLE[0]],  # a peak that the squares read as a dip
    [_SUBNORMAL[0], _SUBNORMAL[1], _SUBNORMAL[0], (1e-170, 0.0)],
    [(1.0, 0.0), (math.inf, math.nan), (1.0, 0.0)],  # hypot(inf, nan) is inf, its square the peak
    [(1.0, 0.0), (math.nan, 0.0), (2.0, 0.0), (math.nan, math.nan), (0.5, 0.0)],
    [(1.0, 0.0)] * 5 + [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0)],  # a plateau, and points on the circle
    [(1.0, 0.0), (math.nextafter(1.0, 2.0), 0.0), (math.nextafter(1.0, 2.0), 0.0), (1.0, 0.0)],
    [(0.0, 0.0), (-0.0, 5e-324), (0.0, -0.0), (1e155, 0.0), (1e155, 1e155), (1e154, 0.0)],
])
def test_maxima_screen_on_crafted_rows(row):
    _assert_maxima_as_libm(tuple(zip(*row)))


def test_a_point_at_the_margin_below_a_neighbour_is_still_a_candidate(monkeypatch):
    # b^2 is (1 - SQUARE_MARGIN) a^2 to the bit: a neighbour higher by the margin, not more
    a, b = 1.0001000500250126, 1.0001000500245125
    assert b * b == (a * a) * (1.0 - oemsim.response.SQUARE_MARGIN)
    shapes, exact = [], oemsim.response.abs_squared
    monkeypatch.setattr(oemsim.response, "abs_squared", lambda z: shapes.append(z[0].shape) or exact(z))
    _assert_maxima_as_libm(((a, b, 0.5), (0.0, 0.0, 0.0)))
    assert shapes == [(3, 1)]

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""
import math
import sys
import time

import numpy as np

from oemsim.linsys import solve_sidebands
from oemsim.presets import (
    SLOWFAST_BETA_DELAY,
    SLOWFAST_BETA_SPECTRUM,
    SLOWFAST_GC_GRID,
    SLOWFAST_KAPPA_GRID,
    slowfast_pump_power,
)
from oemsim.response import group_delay, sideband_amplitude, transmission, transmission_maxima
from oemsim.steady import solve_steady_state
from oemsim.sweep import SPLITTING_POINTS
from oemsim.timedomain import TrajectoryConfig, probe_response
from oemsim.validate import dimensionless_system, draw_oracle_case, run_validation


def _report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    return passed


def slowfast_at(g_coulomb, beta=SLOWFAST_BETA_SPECTRUM, kappa=0.227):
    """Slow/fast preset with the pump power fixed at the reference kappa."""
    power = slowfast_pump_power(beta)
    return dimensionless_system(
        kappa=kappa, g_coulomb=g_coulomb, pump_power=power, pump_amplitude=None
    )


# --- criterion 1: closed form vs linear-system oracle --------------------

def test_criterion_1_closed_form_vs_linsys():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    accepted = 0
    while accepted < 200:
        params, delta = draw_oracle_case(rng)
        op = solve_steady_state(params)
        sol = solve_sidebands(delta, params, op)
        if sol.condition_estimate >= 1e8:
            continue
        accepted += 1
        x = sideband_amplitude(delta, params, op)
        worst = max(worst, abs(x - sol.c_minus) / abs(sol.c_minus))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _report(1, ok, f"max rel err {worst:.3e} over 200 cases in {elapsed:.2f} s")


# --- criterion 2: time-domain end to end ----------------------------------

TIMEDOMAIN_PRESETS = (
    # kappa, gamma, g_cav, g_coulomb, pump power, probe detuning, omega2
    (0.20, 0.05, 0.10, 0.10, 1.0, 1.03, 1.00),
    (0.227, 0.05, 0.10, 0.20, 2.0, 1.00, 1.00),
    (0.113, 0.06, 0.08, 0.05, 0.8, 0.97, 1.00),
    (0.34, 0.05, 0.12, 0.15, 1.5, 1.05, 1.00),
    (0.30, 0.08, 0.10, 0.00, 1.2, 1.01, 1.00),
    (0.15, 0.05, 0.05, 0.08, 3.0, 1.10, 1.00),
    (0.25, 0.04, 0.10, 0.12, 0.5, 0.90, 1.00),
    (0.40, 0.06, 0.15, 0.25, 1.0, 1.02, 1.00),
    (0.18, 0.07, 0.09, 0.06, 2.5, 0.95, 0.98),
    (0.22, 0.05, 0.11, 0.18, 1.8, 1.08, 1.04),
)


def _timedomain_case(kappa, gamma, g_cav, g_c, power, delta, omega2, ratio):
    pump = math.sqrt(2.0 * kappa * power)
    params = dimensionless_system(
        kappa=kappa, gamma1=gamma, gamma2=gamma, g_cav=g_cav, g_coulomb=g_c,
        pump_power=power, pump_amplitude=None, probe_amplitude=ratio * pump,
        omega2=omega2,
    )
    config = TrajectoryConfig(
        duration=20.0 * 2.0 * math.pi / gamma,
        dt=(2.0 * math.pi / delta) / 16.0,
        integrator_tolerance=1e-9,
    )
    op = solve_steady_state(params)
    reference = solve_sidebands(delta, params, op).c_minus
    demod = probe_response(params, delta, config)
    return abs(demod.c_minus_est - reference) / abs(reference)


def test_criterion_2_timedomain_end_to_end():
    start = time.perf_counter()
    worst = 0.0
    halving_ok = True
    for preset in TIMEDOMAIN_PRESETS:
        error = _timedomain_case(*preset, ratio=1e-3)
        error_half = _timedomain_case(*preset, ratio=5e-4)
        worst = max(worst, error)
        if error_half > error:
            halving_ok = False
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and halving_ok and elapsed < 120.0
    assert _report(
        2, ok,
        f"max rel err {worst:.3e} over {len(TIMEDOMAIN_PRESETS)} presets, "
        f"halving {'never increased' if halving_ok else 'INCREASED'} the error, "
        f"{elapsed:.1f} s total",
    )


# --- criterion 3: window structure ----------------------------------------

def test_criterion_3_window_structure():
    params0 = slowfast_at(0.0)
    peaks0 = transmission_maxima(params0, solve_steady_state(params0), points=SPLITTING_POINTS)
    counts = [len(peaks0)]
    separations = []
    for g_c in SLOWFAST_GC_GRID:
        params = slowfast_at(g_c)
        peaks = transmission_maxima(params, solve_steady_state(params), points=SPLITTING_POINTS)
        counts.append(len(peaks))
        if len(peaks) >= 2:
            top_two = sorted(sorted(peaks, key=lambda p: p[1])[-2:])
            separations.append(top_two[1][0] - top_two[0][0])
    ok = (
        counts[0] == 1
        and all(c == 2 for c in counts[1:])
        and len(separations) == len(SLOWFAST_GC_GRID)
        and all(b > a for a, b in zip(separations, separations[1:]))
    )
    assert _report(
        3, ok,
        f"maxima counts {counts} for g_c in (0,) + {SLOWFAST_GC_GRID}, "
        f"separations {[f'{s:.4f}' for s in separations]}",
    )


# --- criterion 4: slow/fast switch at line center --------------------------

def test_criterion_4_slow_fast_switch():
    slow = slowfast_at(max(SLOWFAST_GC_GRID), beta=SLOWFAST_BETA_DELAY)
    fast = slowfast_at(0.0, beta=SLOWFAST_BETA_DELAY)
    tau_slow = group_delay(1.0, slow, solve_steady_state(slow))
    tau_fast = group_delay(1.0, fast, solve_steady_state(fast))
    ok = tau_slow > 0 and tau_fast < 0
    assert _report(
        4, ok,
        f"tau(g_c={max(SLOWFAST_GC_GRID)}) = {tau_slow:+.3f}, tau(g_c=0) = {tau_fast:+.3f} "
        "at the same pump",
    )


# --- criterion 5: cavity-decay trends --------------------------------------

def _oracle_delay(delta0, params, op):
    """Phase slope of t_p = 1 - 2 kappa c_- taken from the 6x6 sideband solve."""
    def t_p(delta):
        return 1.0 - 2.0 * params.cavity.kappa * solve_sidebands(delta, params, op).c_minus

    h = 1e-6 * params.mech1.omega  # half-step of the central difference
    return float(np.angle(t_p(delta0 + h) * np.conj(t_p(delta0 - h)))) / (2.0 * h)


def test_criterion_5_kappa_trends():
    """The slow/fast switch holds at every kappa; the slow delay is the cavity's.

    With g_c != 0, mirror 2 pins mirror 1 at line center: the Coulomb
    self-energy alpha = g_c^2/chi2 (about -268i) swamps chi1 (about 1.5e-4 i),
    and |alpha| -> inf takes the closed form to X = 1/kappa, t_p = -1.  The
    slow-light delay is then the empty cavity's all-pass 2/kappa, robust in
    sign but falling with kappa.  The oracle slope keeps that expectation
    from resting on the closed form alone.
    """
    power = slowfast_pump_power(SLOWFAST_BETA_DELAY)
    slow_taus = []
    cavity_excess = []
    oracle_errors = []
    fast_taus = []
    for kappa in SLOWFAST_KAPPA_GRID:
        slow = dimensionless_system(
            kappa=kappa, g_coulomb=max(SLOWFAST_GC_GRID), pump_power=power, pump_amplitude=None
        )
        fast = dimensionless_system(
            kappa=kappa, g_coulomb=0.0, pump_power=power, pump_amplitude=None
        )
        slow_op = solve_steady_state(slow)
        tau_slow = group_delay(1.0, slow, slow_op)
        slow_taus.append(tau_slow)
        cavity_excess.append(kappa * tau_slow / 2.0 - 1.0)
        oracle_errors.append(abs(_oracle_delay(1.0, slow, slow_op) - tau_slow) / abs(tau_slow))
        fast_taus.append(group_delay(1.0, fast, solve_steady_state(fast)))
    slow_positive = all(t > 0 for t in slow_taus)
    fast_negative = all(t < 0 for t in fast_taus)
    switch_robust = slow_positive and fast_negative
    cavity_delay = all(abs(e) <= 1e-3 for e in cavity_excess)
    oracle_agrees = all(e <= 1e-6 for e in oracle_errors)
    fast_magnitude_decreasing = all(
        abs(b) < abs(a) for a, b in zip(fast_taus, fast_taus[1:])
    )
    ok = switch_robust and cavity_delay and oracle_agrees and fast_magnitude_decreasing
    _report(
        5, ok,
        f"slow tau = {[f'{t:+.2f}' for t in slow_taus]} "
        f"({'all > 0' if slow_positive else 'NOT all > 0'}), "
        f"kappa*tau/2-1 = {[f'{e:.1e}' for e in cavity_excess]} "
        f"({'within' if cavity_delay else 'OUTSIDE'} 1e-3), "
        f"oracle rel err = {[f'{e:.1e}' for e in oracle_errors]} "
        f"({'within' if oracle_agrees else 'OUTSIDE'} 1e-6); "
        f"fast tau = {[f'{t:+.0f}' for t in fast_taus]} "
        f"({'all < 0' if fast_negative else 'NOT all < 0'}, |tau| "
        f"{'decreasing' if fast_magnitude_decreasing else 'NOT decreasing'})",
    )
    assert fast_magnitude_decreasing, "fast-light magnitude must decrease with kappa"
    assert switch_robust, "g_c != 0 must give slow light and g_c = 0 fast light at every kappa"
    assert cavity_delay, "slow-light delay must be the cavity all-pass 2/kappa within 1e-3"
    assert oracle_agrees, "closed-form delay must match the linear-system oracle within 1e-6"


# --- criterion 6: pump-off identities ---------------------------------------

def test_criterion_6_pump_off_identities():
    params = dimensionless_system(
        kappa=0.227, pump_amplitude=0.0, detuning_mode="explicit", detuning=1.0
    )
    op = solve_steady_state(params)
    worst_mag = 0.0
    for delta in np.linspace(-1.0, 3.0, 2001):
        sample = transmission(float(delta), params, op)
        worst_mag = max(worst_mag, abs(abs(sample.t_p) - 1.0))
    tau = group_delay(1.0, params, op)
    tau_err = abs(tau - 2.0 / 0.227) / (2.0 / 0.227)
    ok = worst_mag <= 1e-12 and tau_err <= 1e-9
    assert _report(
        6, ok, f"max | |t_p|-1 | = {worst_mag:.2e}, tau(delta=Delta) rel err {tau_err:.2e}"
    )


# --- criterion 7: group-delay method agreement ------------------------------

def test_criterion_7_group_delay_methods():
    rng = np.random.default_rng(707)
    worst = 0.0
    used = 0
    while used < 1000:
        params, delta = draw_oracle_case(rng)
        op = solve_steady_state(params)
        if abs(transmission(delta, params, op).t_p) <= 1e-6:
            continue
        used += 1
        analytic = group_delay(delta, params, op, "analytic")
        fd = group_delay(delta, params, op, "finite-difference")
        worst = max(worst, abs(analytic - fd) / abs(analytic))
    ok = worst <= 1e-6
    assert _report(7, ok, f"max relative disagreement {worst:.3e} over {used} points")


# --- criterion 8: steady-state integrity ------------------------------------

def test_criterion_8_steady_state_integrity():
    rng = np.random.default_rng(808)
    worst_residual = 0.0
    for _ in range(300):
        params, _ = draw_oracle_case(rng)
        op = solve_steady_state(params)
        worst_residual = max(
            worst_residual, op.residual / max(params.pump_amplitude() ** 2, 1.0)
        )
    bistable = []
    previous_n = -1.0
    continuous = True
    for pump in np.linspace(0.02, 0.45, 200):
        params = dimensionless_system(
            kappa=0.1, g_cav=1.0, pump_amplitude=float(pump),
            detuning_mode="explicit", detuning=1.0,
        )
        op = solve_steady_state(params)
        if op.branch_count == 3:
            bistable.append(float(pump))
        elif not bistable:  # below the knee
            if op.photon_number < previous_n:
                continuous = False
            previous_n = op.photon_number
    ok = worst_residual <= 1e-12 and bool(bistable) and continuous
    assert _report(
        8, ok,
        f"max residual {worst_residual:.2e}; bistable region "
        f"[{bistable[0]:.3f}, {bistable[-1]:.3f}] located; lowest branch "
        f"{'continuous' if continuous else 'DISCONTINUOUS'} below the knee",
    )


# --- criterion 9: determinism and parallel equivalence ----------------------

def test_criterion_9_determinism(tmp_path):
    report_a = run_validation()
    report_b = run_validation()
    reports_identical = report_a.to_json() == report_b.to_json()

    from oemsim.cli import main

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "preset = dimensionless-slowfast\n"
        "[coupling]\ng_coulomb = 0.1 dimensionless\n"
        "[sweep]\nscenario = spectrum\naxis1 = delta_bar\n"
        "axis1_min = -0.15 dimensionless\naxis1_max = 0.15 dimensionless\n"
        "axis1_points = 301\n"
    )
    out1 = tmp_path / "jobs1.csv"
    out8 = tmp_path / "jobs8.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1),
                 "--jobs", "1", "--no-timestamp"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out8),
                 "--jobs", "8", "--no-timestamp"]) == 0
    bytes_identical = out1.read_bytes() == out8.read_bytes()
    ok = reports_identical and bytes_identical
    assert _report(
        9, ok,
        f"validation reports {'identical' if reports_identical else 'DIFFER'}; "
        f"jobs 1 vs 8 output {'byte-identical' if bytes_identical else 'DIFFERS'}",
    )

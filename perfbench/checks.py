"""Checks of each workload's output against computations made apart from the
closed form (the 6x6 sideband solve of `oemsim.linsys`) or against required
properties.  No check compares with a stored copy of an earlier output.

A checker returns an `Outcome`: the operations in one output (table rows, or
`validate` checks), how many failed through the known finite-difference
fault, and a description of every other failure.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from oemsim.linsys import build_linear_system, solve_sidebands
from oemsim.params import DriveParams
from oemsim.presets import get_preset
from oemsim.steady import solve_steady_state

import workloads

OK = "-"
ORACLE_TOL = 1e-9  # closed form vs 6x6 solve, ROADMAP aim 1
IDENTITY_TOL = 1e-12  # relations between columns of one row
FD_TOL = 1e-6  # finite-difference vs analytic delay, acceptance criterion 7
CENTRE_DIFF_STEP = 0.5  # A(delta) is quadratic in delta, so any step is exact


@dataclass
class Table:
    columns: list[str]
    values: np.ndarray  # every column but `error`, as floats
    errors: np.ndarray  # the `error` column

    def col(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


@dataclass
class Outcome:
    ops: int
    known_failures: int = 0
    failures: dict[int, str] = field(default_factory=dict)  # op index -> first reason

    def fail(self, mask, reason: str) -> None:
        for i in np.flatnonzero(mask):
            self.failures.setdefault(int(i), reason)

    @property
    def failed(self) -> int:
        return self.known_failures + len(self.failures)

    def problems(self) -> list[str]:
        reasons: dict[str, int] = {}
        for reason in self.failures.values():
            reasons[reason] = reasons.get(reason, 0) + 1
        return [f"{count} x {reason}" for reason, count in reasons.items()]


def read_table(path) -> Table:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    columns = lines[0].split(",")
    if columns[-1] != "error":
        raise ValueError(f"last column is {columns[-1]!r}, not 'error'")
    cells = np.array([line.split(",") for line in lines[1:]], dtype=object).reshape(-1, len(columns))
    return Table(columns=columns[:-1], values=cells[:, :-1].astype(float), errors=cells[:, -1].astype(str))


def _close(a, b, tol, scale=None):
    scale = np.maximum(np.abs(b), 1e-300) if scale is None else scale
    return np.abs(a - b) <= tol * scale


def _locked_photon_number(params, pump_power):
    """n = Omega_l^2 / (kappa^2 + omega1^2) with Omega_l^2 = 2 kappa P_l (hbar = omega_l = 1)."""
    kappa = params.cavity.kappa
    return 2.0 * kappa * pump_power / (kappa**2 + params.mech1.omega**2)


def _with_gc(base, g_c):
    return replace(base, coupling=replace(base.coupling, g_coulomb=float(g_c)))


def _common(table: Table, outcome: Outcome, photon_number) -> None:
    outcome.fail(table.errors != OK, "row carries an error slug")
    outcome.fail(~_close(table.col("photon_number"), photon_number, IDENTITY_TOL), "photon number")
    branches = table.col("branch_count")
    outcome.fail((branches < 1) | (branches != np.round(branches)), "branch count")


def _expect_columns(table: Table, columns: tuple[str, ...], rows: int) -> None:
    if tuple(table.columns) != columns or len(table.values) != rows:
        raise ValueError(f"columns {table.columns} x {len(table.values)} rows, expected {columns} x {rows}")


def expected_ops(inputs: workloads.Inputs) -> int:
    """Operations in one round's output."""
    return {
        "spectrum-2d": inputs.gc_points * inputs.delta_points,
        "splitting-gc": inputs.gc_points,
        "delay-scan": inputs.p_points,
        "validate": len(workloads.VALIDATE_CHECKS) - len(workloads.VALIDATE_UNCOUNTED),
    }[inputs.name]


SPECTRUM_COLUMNS = (
    "g_coulomb", "delta_bar", "delta", "re_X", "im_X", "re_t_p", "im_t_p", "transmission",
    "transmission_corrected", "transmission_intracavity", "photon_number", "branch_count", "phase",
)


def check_spectrum(table: Table, inputs: workloads.Inputs) -> Outcome:
    """`oemsim phase` over g_coulomb x delta_bar."""
    n_g, n_d = inputs.gc_points, inputs.delta_points
    _expect_columns(table, SPECTRUM_COLUMNS, n_g * n_d)
    outcome = Outcome(ops=expected_ops(inputs))
    base = get_preset(workloads.PRESET)
    kappa = base.cavity.kappa
    g_axis = np.linspace(inputs.gc_min, inputs.gc_max, n_g)
    d_axis = np.linspace(-inputs.half_width, inputs.half_width, n_d)
    g, d_bar = table.col("g_coulomb"), table.col("delta_bar")
    outcome.fail((g != np.repeat(g_axis, n_d)) | (d_bar != np.tile(d_axis, n_g)), "axis values")
    delta = table.col("delta")
    outcome.fail(~_close(delta, base.mech1.omega + d_bar, 1e-15, 1.0), "delta != omega1 + delta_bar")
    _common(table, outcome, _locked_photon_number(base, base.drive.pump_power))

    # every row: t_p = 1 - 2 kappa X and both transmissions follow from it
    x = table.col("re_X") + 1j * table.col("im_X")
    t_p = table.col("re_t_p") + 1j * table.col("im_t_p")
    scale = 1.0 + np.abs(2.0 * kappa * x)
    outcome.fail(~_close(t_p, 1.0 - 2.0 * kappa * x, IDENTITY_TOL, scale), "t_p != 1 - 2 kappa X")
    t_corr, t_intra = table.col("transmission_corrected"), table.col("transmission_intracavity")
    outcome.fail(~_close(t_corr, np.abs(t_p) ** 2, IDENTITY_TOL), "transmission_corrected != |t_p|^2")
    outcome.fail(~_close(t_intra, np.abs(2.0 * kappa * x) ** 2, IDENTITY_TOL), "transmission_intracavity != |2 kappa X|^2")
    outcome.fail(table.col("transmission") != t_corr, "transmission is not the paper-corrected one")

    # every delta_bar block: minimal unwrap steps, and phase = arg t_p mod 2 pi
    phase = table.col("phase")
    steps = np.abs(np.diff(phase.reshape(n_g, n_d), axis=1))
    jump = np.zeros((n_g, n_d), dtype=bool)
    jump[:, 1:] = steps >= math.pi
    outcome.fail(jump.ravel(), "adjacent phase step >= pi")
    turns = (phase - np.arctan2(t_p.imag, t_p.real)) / (2.0 * math.pi)
    outcome.fail(np.abs(turns - np.round(turns)) > 1e-9 * (1.0 + np.abs(phase)), "phase - arg t_p not a multiple of 2 pi")

    # seeded rows: X and both transmissions against the 6x6 solve
    for i in inputs.sampled_rows:
        params = _with_gc(base, g[i])
        c = solve_sidebands(float(delta[i]), params, solve_steady_state(params)).c_minus
        two_kappa_c = 2.0 * kappa * c
        if not (abs(x[i] - c) <= ORACLE_TOL * abs(c)
                and abs(t_corr[i] - abs(1.0 - two_kappa_c) ** 2) <= 10 * ORACLE_TOL * (1.0 + abs(two_kappa_c)) ** 2
                and abs(t_intra[i] - abs(two_kappa_c) ** 2) <= 10 * ORACLE_TOL * abs(two_kappa_c) ** 2):
            outcome.failures.setdefault(i, "X or transmission disagrees with the 6x6 solve")
    return outcome


SPLITTING_COLUMNS = (
    "g_coulomb", "n_maxima", "peak_lo", "peak_hi", "separation", "height_lo", "height_hi",
    "photon_number", "branch_count",
)


def _transmission_6x6(delta, params, op) -> float:
    c = solve_sidebands(float(delta), params, op).c_minus
    return abs(1.0 - 2.0 * params.cavity.kappa * c) ** 2


def check_splitting(table: Table, inputs: workloads.Inputs) -> Outcome:
    """`oemsim sweep` with splitting-vs-gc: two split windows per g_coulomb."""
    _expect_columns(table, SPLITTING_COLUMNS, inputs.gc_points)
    outcome = Outcome(ops=expected_ops(inputs))
    base = get_preset(workloads.PRESET)
    w1 = base.mech1.omega
    hw = workloads.SPLITTING_HALF_WIDTH * w1
    grid = np.linspace(w1 - hw, w1 + hw, workloads.SPLITTING_POINTS)
    g = table.col("g_coulomb")
    outcome.fail(g != np.linspace(inputs.gc_min, inputs.gc_max, inputs.gc_points), "axis values")
    _common(table, outcome, _locked_photon_number(base, base.drive.pump_power))
    lo, hi, sep = table.col("peak_lo"), table.col("peak_hi"), table.col("separation")
    outcome.fail(table.col("n_maxima") < 2, "fewer than two maxima")
    outcome.fail(~(lo < hi) | (sep != hi - lo), "separation != peak_hi - peak_lo")
    rising = np.ones(len(sep), dtype=bool)
    rising[1:] = np.diff(sep) > 0
    outcome.fail(~rising, "separation does not rise with g_coulomb")
    for row in range(len(g)):
        params = _with_gc(base, g[row])
        op = solve_steady_state(params)
        for peak_col, height_col in (("peak_lo", "height_lo"), ("peak_hi", "height_hi")):
            peak, height = table.col(peak_col)[row], table.col(height_col)[row]
            k = int(np.argmin(np.abs(grid - w1 - peak)))
            if not (0 < k < len(grid) - 1 and abs(grid[k] - w1 - peak) <= 1e-12):
                outcome.failures.setdefault(row, f"{peak_col} is not an interior grid point")
                continue
            left, top, right = (_transmission_6x6(grid[j], params, op) for j in (k - 1, k, k + 1))
            if not (top > left and top > right):
                outcome.failures.setdefault(row, f"{peak_col} is not a strict local maximum of the 6x6 transmission")
            elif abs(height - top) > ORACLE_TOL * top:
                outcome.failures.setdefault(row, f"{height_col} disagrees with the 6x6 solve")
    return outcome


DELAY_COLUMNS = ("P_l", "tau_g_fd", "tau_g_analytic", "transmission", "photon_number", "branch_count")


def oracle_delay(params, op, delta) -> tuple[float, float]:
    """Step-free group delay and transmission from the 6x6 system A c = b.

    c' = -A^-1 (dA/d delta) c; A's entries are at most quadratic in delta,
    so the central difference of A is exact.
    """
    a, b = build_linear_system(delta, params, op)
    a_plus, _ = build_linear_system(delta + CENTRE_DIFF_STEP, params, op)
    a_minus, _ = build_linear_system(delta - CENTRE_DIFF_STEP, params, op)
    c = np.linalg.solve(a, b)
    c_prime = np.linalg.solve(a, -((a_plus - a_minus) / (2.0 * CENTRE_DIFF_STEP)) @ c)
    kappa = params.cavity.kappa
    t_p = 1.0 - 2.0 * kappa * c[0]
    t_prime = -2.0 * kappa * c_prime[0]
    return float((t_prime / t_p).imag), float(abs(t_p) ** 2)


def check_delay(table: Table, inputs: workloads.Inputs) -> Outcome:
    """`oemsim delay` over a log P_l grid at g_coulomb = 0, at line centre."""
    _expect_columns(table, DELAY_COLUMNS, inputs.p_points)
    outcome = Outcome(ops=expected_ops(inputs))
    base = get_preset(workloads.PRESET)
    p_axis = np.geomspace(workloads.DELAY_P_MIN, workloads.DELAY_P_MAX, inputs.p_points)
    power = table.col("P_l")
    outcome.fail(power != p_axis, "axis values")
    rows = [replace(base, drive=DriveParams(pump_power=float(p), probe_amplitude=inputs.probe_amplitude))
            for p in power]
    _common(table, outcome, _locked_photon_number(base, power))
    oracle = np.array([oracle_delay(p, solve_steady_state(p), p.mech1.omega) for p in rows])
    tau, trans = oracle[:, 0], oracle[:, 1]
    outcome.fail(~_close(table.col("tau_g_analytic"), tau, ORACLE_TOL), "tau_g_analytic disagrees with the step-free oracle")
    outcome.fail(~_close(table.col("transmission"), trans, ORACLE_TOL), "transmission disagrees with the 6x6 solve")
    # known fault: group_delay's finite-difference step is fixed at 1e-6 omega1
    fd_off = ~_close(table.col("tau_g_fd"), tau, FD_TOL)
    fd_off[list(outcome.failures)] = False
    outcome.known_failures = int(np.count_nonzero(fd_off))
    return outcome


def check_validate(report_text: str, exit_code: int, inputs: workloads.Inputs) -> Outcome:
    """`oemsim validate --seed`: eight named checks, the seed echoed, the exit code."""
    report = json.loads(report_text)
    names = tuple(c["name"] for c in report["checks"])
    if names != workloads.VALIDATE_CHECKS or report["seed"] != inputs.seed:
        raise ValueError(f"report names {names} for seed {report['seed']}, expected seed {inputs.seed}")
    counted = [c for c in report["checks"] if c["name"] not in workloads.VALIDATE_UNCOUNTED]
    outcome = Outcome(ops=len(counted))
    for i, c in enumerate(counted):
        if not c["passed"]:
            outcome.failures[i] = f"{c['name']}: {c['detail']}"
    all_passed = all(c["passed"] for c in report["checks"])
    if report["passed"] != all_passed or exit_code != (0 if all_passed else 3):
        raise ValueError(f"exit code {exit_code} and 'passed' {report['passed']} do not match the checks")
    return outcome


def check_output(inputs: workloads.Inputs, path, exit_code: int) -> Outcome:
    """Check one round's output file; a malformed output fails every operation."""
    if inputs.name == "validate":
        with open(path, encoding="utf-8") as fh:
            return check_validate(fh.read(), exit_code, inputs)
    if exit_code != 0:
        raise ValueError(f"exit code {exit_code}")
    checker = {"spectrum-2d": check_spectrum, "splitting-gc": check_splitting, "delay-scan": check_delay}
    return checker[inputs.name](read_table(path), inputs)

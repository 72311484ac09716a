"""Parameter-sweep engine: grid evaluation, parallel workers, tabular output.

Each scenario is one `SCENARIOS` entry: data columns, axis rule, row
evaluator.  The grid is cut into contiguous chunks in row-major order (axis1
outermost), one at ``jobs=1`` and several over a process pool otherwise, so
serial and parallel runs emit identical bytes.  The operating point moves
with every axis but delta_bar, so a chunk solves the steady state again only
when those values change.  Physics failures (instability, singular response)
mark rows and the run continues: a steady-state failure marks every row of
that operating point, a response failure only its own row.
"""
from __future__ import annotations

import datetime
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from . import __version__
from .config import SweepAxis, SweepSpec, serialize_config
from .errors import ConfigError, SimulationError
from .params import DriveParams, SystemParams
from .response import group_delay, transmission, transmission_maxima, wrap_phase_jump
from .steady import solve_steady_state

SPLITTING_WINDOW_FRACTION = 0.2  # half-width of the inner detuning scan, in units of omega1
SPLITTING_POINTS = 4001
DEFAULT_SPECTRUM_POINTS = 2001
NO_ERROR = "-"

_SPECTRUM_COLUMNS = (
    "delta",
    "re_X",
    "im_X",
    "re_t_p",
    "im_t_p",
    "transmission",
    "transmission_corrected",
    "transmission_intracavity",
    "photon_number",
    "branch_count",
)
_DELAY_COLUMNS = (
    "tau_g_fd",
    "tau_g_analytic",
    "transmission",
    "photon_number",
    "branch_count",
)
_SPLITTING_COLUMNS = (
    "n_maxima",
    "peak_lo",
    "peak_hi",
    "separation",
    "height_lo",
    "height_hi",
    "photon_number",
    "branch_count",
)
_DRIVE_FIELDS = {"P_l": "pump_power", "Omega_l": "pump_amplitude"}


@dataclass(frozen=True)
class SweepResult:
    """Rows of one sweep plus everything needed to reproduce them."""

    params: SystemParams
    spec: SweepSpec
    columns: tuple[str, ...]
    rows: list[tuple]


def apply_override(params: SystemParams, name: str, value: float) -> SystemParams:
    """Return params with one swept quantity replaced."""
    if name == "kappa":
        return replace(params, cavity=replace(params.cavity, kappa=value))
    if name == "g_coulomb":
        return replace(params, coupling=replace(params.coupling, g_coulomb=value))
    if name == "g_cav":
        return replace(params, coupling=replace(params.coupling, g_cav=value))
    if name in _DRIVE_FIELDS:
        # a new DriveParams, so the pump is given only by the swept quantity
        drive = params.drive
        return replace(
            params,
            drive=DriveParams(
                probe_power=drive.probe_power,
                probe_amplitude=drive.probe_amplitude,
                **{_DRIVE_FIELDS[name]: value},
            ),
        )
    raise ValueError(f"cannot override parameter {name!r}")


def _spectrum_row(params, op, convention, delta):
    sample = transmission(delta, params, op, convention)
    return (
        sample.delta,
        sample.X.real,
        sample.X.imag,
        sample.t_p.real,
        sample.t_p.imag,
        sample.transmission,
        sample.transmission_corrected,
        sample.transmission_intracavity,
        op.photon_number,
        float(op.branch_count),
    )


def _phase_row(params, op, convention, delta):
    # principal value of arg t_p = atan2(im_t_p, re_t_p); unwrapped by run_sweep
    row = _spectrum_row(params, op, convention, delta)
    return row + (math.atan2(row[4], row[3]),)


def _delay_row(params, op, convention, delta):
    tau_fd = group_delay(delta, params, op, "finite-difference", convention)
    tau_an = group_delay(delta, params, op, "analytic", convention)
    sample = transmission(delta, params, op, convention)
    return (tau_fd, tau_an, sample.transmission, op.photon_number, float(op.branch_count))


def _splitting_row(params, op, convention, delta):
    w1 = params.mech1.omega
    peaks = transmission_maxima(
        params,
        op,
        convention,
        half_width=SPLITTING_WINDOW_FRACTION * w1,
        points=SPLITTING_POINTS,
    )
    top_two = sorted(sorted(peaks, key=lambda p: p[1])[-2:])
    if len(top_two) == 2:
        (lo, hlo), (hi, hhi) = top_two
        sep = hi - lo
    elif len(top_two) == 1:
        (lo, hlo), (hi, hhi), sep = top_two[0], (math.nan, math.nan), math.nan
    else:
        (lo, hlo), (hi, hhi), sep = (math.nan, math.nan), (math.nan, math.nan), math.nan
    return (float(len(peaks)), lo, hi, sep, hlo, hhi, op.photon_number, float(op.branch_count))


def _spectrum_axes(scenario, params, axes):
    """A delta_bar axis; one is appended (innermost) when none is given."""
    if not any(a.name == "delta_bar" for a in axes):
        hw = SPLITTING_WINDOW_FRACTION * params.mech1.omega
        axes = axes + (SweepAxis("delta_bar", -hw, hw, DEFAULT_SPECTRUM_POINTS),)
    return axes


def _phase_axes(scenario, params, axes):
    """As for spectra, with delta_bar innermost: the phase is unwrapped along it."""
    if axes and axes[-1].name != "delta_bar":
        raise ConfigError(f"{scenario} sweeps need delta_bar as the innermost axis")
    return _spectrum_axes(scenario, params, axes)


def _one_axis(wanted, scenario, params, axes):
    """Exactly one axis, named from ``wanted``."""
    if len(axes) != 1 or axes[0].name not in wanted:
        raise ConfigError(f"{scenario} needs exactly one axis from {wanted}")
    return axes


@dataclass(frozen=True)
class Scenario:
    """Data columns, axis rule and row evaluator of one sweep scenario."""

    columns: tuple[str, ...]  # a "phase" column is unwrapped along the innermost axis
    resolve_axes: Callable  # (scenario, params, axes) -> axes to run, or ConfigError
    evaluate: Callable  # (params, op, convention, delta) -> row data


SCENARIOS = {
    "spectrum": Scenario(_SPECTRUM_COLUMNS, _spectrum_axes, _spectrum_row),
    "phase": Scenario(_SPECTRUM_COLUMNS + ("phase",), _phase_axes, _phase_row),
    "delay-vs-power": Scenario(_DELAY_COLUMNS, partial(_one_axis, ("P_l", "Omega_l")), _delay_row),
    "delay-vs-kappa": Scenario(_DELAY_COLUMNS, partial(_one_axis, ("kappa",)), _delay_row),
    "splitting-vs-gc": Scenario(_SPLITTING_COLUMNS, partial(_one_axis, ("g_coulomb",)), _splitting_row),
}


def _slug(exc: SimulationError) -> str:
    return type(exc).__name__.removesuffix("Error")


def _evaluate_chunk(task):
    """Table rows of one contiguous run of grid points, error slug last.

    The probe detuning is omega1 + delta_bar, the line centre when no
    delta_bar axis is swept; the other axis values fix the operating point.
    """
    params, name, convention, names, points = task
    scenario = SCENARIOS[name]
    nan_data = (math.nan,) * len(scenario.columns)
    rows = []
    last_point = None
    for values in points:
        point = dict(zip(names, values))
        delta = params.mech1.omega + point.pop("delta_bar", 0.0)
        if point != last_point:
            last_point = point
            overridden = params
            for n, v in point.items():
                overridden = apply_override(overridden, n, v)
            try:
                op, op_error = solve_steady_state(overridden), NO_ERROR
            except SimulationError as exc:
                op, op_error = None, _slug(exc)
        if op_error != NO_ERROR:
            rows.append(values + nan_data + (op_error,))
            continue
        try:
            rows.append(values + scenario.evaluate(overridden, op, convention, delta) + (NO_ERROR,))
        except SimulationError as exc:
            rows.append(values + nan_data + (_slug(exc),))
    return rows


def run_sweep(params: SystemParams, spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the sweep grid; row order is row-major over axes as declared."""
    if spec.scenario not in SCENARIOS:
        raise ConfigError(f"scenario {spec.scenario!r} cannot run as a sweep")
    scenario = SCENARIOS[spec.scenario]
    spec = replace(spec, axes=scenario.resolve_axes(spec.scenario, params, spec.axes))
    names = tuple(axis.name for axis in spec.axes)
    points = list(itertools.product(*(axis.values().tolist() for axis in spec.axes)))

    chunk_size = max(1, len(points) // (jobs * 4) if jobs > 1 else len(points))
    tasks = [
        (params, spec.scenario, spec.convention, names, points[i : i + chunk_size])
        for i in range(0, len(points), chunk_size)
    ]
    if len(tasks) > 1:
        # the default fork start method starts every worker on the first submit
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_chunk, tasks))
    else:
        chunks = [_evaluate_chunk(task) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]

    columns = names + scenario.columns + ("error",)
    if "phase" in columns:
        rows = _attach_phase(rows, columns.index("phase"), spec.axes[-1].points)
    return SweepResult(params=params, spec=spec, columns=columns, rows=rows)


def _attach_phase(rows, i_phase, block):
    """Unwrap the phase column along each block of ``block`` innermost rows.

    Error rows keep their NaN phase and restart the unwrap after them.
    """
    out = []
    previous = None
    for i, row in enumerate(rows):
        if i % block == 0 or row[-1] != NO_ERROR:
            previous = None
        if row[-1] != NO_ERROR:
            out.append(row)
            continue
        raw = row[i_phase]
        phase = raw if previous is None else previous + wrap_phase_jump(raw - previous)
        previous = phase
        out.append(row[:i_phase] + (phase,) + row[i_phase + 1 :])
    return out


def _format_value(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.17g}"


def render_table(result: SweepResult, fmt: str = "csv", timestamp: bool = True) -> str:
    """Render a sweep table with a provenance header that reproduces the run.

    ``csv`` is comma-separated with a plain column-header row; ``gnuplot``
    is whitespace-separated with a blank line between outer-axis blocks.
    Doubles carry 17 significant digits; the header echoes the resolved
    configuration between config-begin/config-end markers.
    """
    if fmt not in ("csv", "gnuplot"):
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"# oemsim {__version__} sweep output"]
    if timestamp:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated: {stamp}")
    lines.append(f"# convention = {result.spec.convention}")
    lines.append("# config-begin")
    for cfg_line in serialize_config(result.params, result.spec).rstrip("\n").split("\n"):
        lines.append(f"# {cfg_line}")
    lines.append("# config-end")
    lines.append("# columns: " + ",".join(result.columns))
    sep = "," if fmt == "csv" else " "
    if fmt == "csv":
        lines.append(",".join(result.columns))
    block = None
    if fmt == "gnuplot" and len(result.spec.axes) > 1:
        block = result.spec.axes[-1].points
    for i, row in enumerate(result.rows):
        if block and i > 0 and i % block == 0:
            lines.append("")
        lines.append(sep.join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_csv(result: SweepResult, path, fmt: str = "csv", timestamp: bool = True) -> None:
    """Write `render_table` output to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_table(result, fmt=fmt, timestamp=timestamp))


def read_sweep_csv(path):
    """Read back an emitted table: (config_text, columns, rows)."""
    config_lines: list[str] = []
    columns: tuple[str, ...] = ()
    rows = []
    in_config = False
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("# config-begin"):
                in_config = True
                continue
            if line.startswith("# config-end"):
                in_config = False
                continue
            if in_config:
                config_lines.append(line[2:] if line.startswith("# ") else line)
                continue
            if line.startswith("# columns: "):
                columns = tuple(line[len("# columns: ") :].split(","))
                continue
            if line.startswith("#") or not line.strip():
                continue
            parts = line.split(",") if "," in line else line.split()
            if parts == list(columns):
                continue
            values = [parts[i] if columns[i] == "error" else float(parts[i]) for i in range(len(parts))]
            rows.append(tuple(values))
    return "\n".join(config_lines) + "\n", columns, rows

"""Parameter-sweep engine: grid evaluation, parallel workers, tabular output.

Each scenario is one `SCENARIOS` entry, named in `config.SCENARIOS`: data
columns, axis rule, block evaluator.  The grid is an array of axis values in
row-major order (axis1 outermost), cut into contiguous chunks, one at
``jobs=1`` and several over a process pool otherwise, so serial and parallel
runs emit identical bytes.  One copy of the columns (`SweepResult`) holds the
table until `render_table` writes it, one write per bounded slice of rows,
whose doubles one numpy pass formats as ``'%.17g' %`` does (`arith.format_g17`).

Within a chunk two things are batched.  The operating point moves with every
axis but delta_bar, and a steady pass (`steady.solve_steady_states`) solves
up to PASS_POINTS distinct operating points at once: the swept values go in
as arrays, set and cleared as `config.axis_changes` says, and come back as
columns of status, photon number, branch count and `response.Coefficients`,
from which each row takes its own.  Then a block of up to BLOCK_ELEMENTS
kernel elements' worth of solved rows goes to one evaluator call: it takes
the rows' detunings and kernel inputs, calls `response.amplitude_kernel` on
them, and returns column arrays plus a per-row status, which fill the
chunk's NaN-initialised columns by row index.  Passes and blocks are sized
apart: the 1-row blocks of a splitting sweep share one pass, the few
operating points of a 4,100-row spectrum block take one pass, and a pass's
memory stays bounded when a block holds many.  Physics failures
(instability, float overflow, singular response) mark rows, which keep NaN
data, and the run continues: a steady-state failure marks every row of that
operating point, a response failure only its own row, with the slug of the
error the scalar functions of `steady` and `response` raise there.
"""
from __future__ import annotations

import datetime
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import __version__, config, response, steady
from .arith import format_g17
from .config import SweepAxis, SweepSpec, axis_changes, serialize_config
from .errors import ConfigError, SimulationError
from .params import SystemParams
from .response import SPLITTING_POINTS, SPLITTING_WINDOW_FRACTION
from .steady import solve_steady_states

DEFAULT_SPECTRUM_POINTS = 2001
NO_ERROR = "-"
# kernel elements per call: bounds a block's memory, holds one splitting scan
# and is a multiple of the 5 points of a delay row
BLOCK_ELEMENTS = 4100
# operating points per steady pass: bounds a pass's memory, and holds one block of
# delay rows, whose operating points all differ
PASS_POINTS = BLOCK_ELEMENTS // (1 + len(response.FD_OFFSETS))
# rows formatted and written at a time: bounds the row tuples and text alive while rendering
RENDER_ROWS = 2048

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


@dataclass(frozen=True)
class SweepResult:
    """The table of one sweep as columns, plus everything needed to reproduce it.

    ``values`` holds one float64 row per axis and data column, in ``columns``
    order; ``errors`` holds the last column, one slug per grid row (NO_ERROR
    where the row solved).  A failed row keeps its axis values and NaN data.
    """

    params: SystemParams
    spec: SweepSpec
    columns: tuple[str, ...]
    values: np.ndarray
    errors: np.ndarray


def _spectrum_block(delta, c, convention):
    x, _, status = response.amplitude_kernel(delta, c)
    t = dict(zip(response.CONVENTIONS, response.transmissions(x, c.kappa)))
    power = {name: response.abs_squared(t[name]) for name in response.CONVENTIONS}
    # in _SPECTRUM_COLUMNS order
    values = (delta, *x, *t[convention], power[convention], *power.values())
    return dict(zip(_SPECTRUM_COLUMNS, values)), status


def _phase_block(delta, c, convention):
    columns, status = _spectrum_block(delta, c, convention)
    # principal value of arg t_p; unwrapped by run_sweep
    columns["phase"] = response.phase((columns["re_t_p"], columns["im_t_p"]))
    return columns, status


def _delay_block(delta, c, convention):
    *values, status = response.group_delays(delta, c, convention)
    return dict(zip(_DELAY_COLUMNS, values)), status


def _splitting_block(delta, c, convention):
    """Window maxima of |t_p|^2 over delta_bar in +-0.2 omega1; the scans run along axis 0."""
    grid, values, status = response.window_scan(
        c, convention, SPLITTING_WINDOW_FRACTION * c.omega1, SPLITTING_POINTS
    )
    peaks = response.strict_maxima(values)
    count = peaks.sum(axis=0)
    # the two highest peaks; of equal heights the later ranks higher, as in a stable sort
    top, second = np.argsort(np.where(peaks, values[1:-1], -np.inf), axis=0, kind="stable")[-2:][::-1]
    rows = np.arange(grid.shape[1])

    def peak(i, present):  # (delta_bar, height) at interior index i, NaN where absent
        return (np.where(present, grid[i + 1, rows] - c.omega1, np.nan),
                np.where(present, values[i + 1, rows], np.nan))

    lo, height_lo = peak(np.where(count >= 2, np.minimum(top, second), top), count >= 1)
    hi, height_hi = peak(np.maximum(top, second), count >= 2)
    columns = (count.astype(float), lo, hi, hi - lo, height_lo, height_hi)
    first_error = status[np.argmax(status != response.OK, axis=0), rows]
    return dict(zip(_SPLITTING_COLUMNS, columns)), first_error


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
    """Data columns, axis rule and block evaluator of one sweep scenario."""

    columns: tuple[str, ...]  # a "phase" column is unwrapped along the innermost axis
    resolve_axes: Callable  # (scenario, params, axes) -> axes to run, or ConfigError
    evaluate: Callable  # (delta, Coefficients, convention) -> ({column: array}, status), per row
    kernel_points: int  # kernel elements per row


SCENARIOS = dict(zip(config.SCENARIOS, (
    Scenario(_SPECTRUM_COLUMNS, _spectrum_axes, _spectrum_block, 1),
    Scenario(_SPECTRUM_COLUMNS + ("phase",), _phase_axes, _phase_block, 1),
    Scenario(
        _DELAY_COLUMNS, partial(_one_axis, ("P_l", "Omega_l")), _delay_block, 1 + len(response.FD_OFFSETS)
    ),
    Scenario(
        _DELAY_COLUMNS, partial(_one_axis, ("kappa",)), _delay_block, 1 + len(response.FD_OFFSETS)
    ),
    Scenario(_SPLITTING_COLUMNS, partial(_one_axis, ("g_coulomb",)), _splitting_block, SPLITTING_POINTS),
), strict=True))
# axis -> the delay scenario that sweeps it, for `oemsim delay`; read off the _one_axis rules
DELAY_SCENARIOS = {
    axis: name
    for name, scenario in SCENARIOS.items()
    if scenario.evaluate is _delay_block
    for axis in scenario.resolve_axes.args[0]
}


def _slug(error: type[SimulationError]) -> str:
    return error.__name__.removesuffix("Error")


_STATUS_SLUGS = {status: _slug(error) for status, error in response.STATUS_ERRORS.items()}
_STEADY_SLUGS = {status: _slug(error) for status, error in steady.STATUS_ERRORS.items()}


def _evaluate_chunk(task):
    """Table columns and error slugs of one contiguous run of grid points.

    ``points`` holds the run's axis values, one row per name in ``names``.
    The run is cut into spans of one block (spectra) or of PASS_POINTS rows
    and several blocks (delay, splitting); the distinct operating points of a
    span are solved first, then its solved rows go to the evaluator a block
    at a time.  The probe detuning is omega1 + delta_bar, the line centre when
    no delta_bar axis is swept.
    """
    params, name, convention, names, points = task
    scenario = SCENARIOS[name]
    per_block = max(1, BLOCK_ELEMENTS // scenario.kernel_points)
    span = max(per_block, PASS_POINTS)
    swept = [axis for axis in names if axis != "delta_bar"]
    swept_values = points[[axis != "delta_bar" for axis in names]].T
    n = points.shape[1]
    delta = params.mech1.omega + (points[names.index("delta_bar")] if "delta_bar" in names else np.zeros(n))
    values = np.full((len(names) + len(scenario.columns), n), np.nan)
    values[: len(names)] = points
    errors = np.full(n, NO_ERROR, dtype=object)
    for start in range(0, n, span):
        status, table = _steady_rows(params, swept, swept_values[start : start + span])
        failed = np.flatnonzero(status != steady.OK)
        errors[start + failed] = [_STEADY_SLUGS[s] for s in status[failed].tolist()]
        solved = np.flatnonzero(status == steady.OK)
        for first in range(0, len(solved), per_block):
            block = solved[first : first + per_block]
            photon_number, branch_count, *kernel_inputs = (column[block] for column in table)
            with np.errstate(all="ignore"):
                data, status = scenario.evaluate(
                    delta[start + block], response.Coefficients(*kernel_inputs), convention
                )
            data["photon_number"], data["branch_count"] = photon_number, branch_count
            ok, rows = status == response.OK, start + block
            for j, column in enumerate(scenario.columns, start=len(names)):
                values[j, rows[ok]] = data[column][ok]
            errors[rows[~ok]] = [_STATUS_SLUGS[s] for s in status[~ok].tolist()]
    return values, errors


def _steady_rows(params, names, values):
    """Status of each row, and its photon number, branch count and kernel inputs as a list of columns.

    ``values`` holds the swept values of the rows, one column per name in
    ``names``.  Their distinct operating points are solved PASS_POINTS at a
    time, each pass in one `solve_steady_states` call.
    """
    distinct, index = np.unique(values, axis=0, return_inverse=True)
    status, table = [], []
    for start in range(0, len(distinct), PASS_POINTS):
        swept = {}
        for name, column in zip(names, distinct[start : start + PASS_POINTS].T):
            section, changes = axis_changes(name, column)
            swept.setdefault(section, {}).update(changes)
        states = solve_steady_states(params, swept)
        status.append(states.status)
        table.append((states.photon_number, states.branch_count.astype(float), *states.coefficients))
    index = index.reshape(-1)
    return np.concatenate(status)[index], [np.concatenate(column)[index] for column in zip(*table)]


def run_sweep(params: SystemParams, spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the sweep grid; row order is row-major over axes as declared."""
    if spec.scenario not in SCENARIOS:
        raise ConfigError(f"scenario {spec.scenario!r} cannot run as a sweep")
    scenario = SCENARIOS[spec.scenario]
    spec = replace(spec, axes=scenario.resolve_axes(spec.scenario, params, spec.axes))
    names = tuple(axis.name for axis in spec.axes)
    grid = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    grid = np.reshape(grid, (len(names), -1))
    n = grid.shape[1]

    chunk_size = max(1, n // (jobs * 4) if jobs > 1 else n)
    tasks = [
        (params, spec.scenario, spec.convention, names, grid[:, i : i + chunk_size])
        for i in range(0, n, chunk_size)
    ]
    if len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by runs that use it

        # the default fork start method starts every worker on the first submit
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_chunk, tasks))
    else:
        chunks = [_evaluate_chunk(task) for task in tasks]
    # a lone chunk is the table as it is; only several are joined, in grid order
    values, errors = chunks[0] if len(chunks) == 1 else (np.concatenate(part, axis=-1) for part in zip(*chunks))

    columns = names + scenario.columns + ("error",)
    if "phase" in columns:
        # unwrap in place along each innermost block, restarting after each error row
        phase, block, ok = values[columns.index("phase")], spec.axes[-1].points, errors == NO_ERROR
        at = np.arange(n) % block
        starts = np.flatnonzero(ok & ((at == 0) | ~np.roll(ok, 1)))
        stops = np.flatnonzero(ok & ((at == block - 1) | ~np.roll(ok, -1))) + 1
        for first, stop in zip(starts.tolist(), stops.tolist()):
            phase[first:stop] = response.unwrap_phase(phase[first:stop].tolist())
    return SweepResult(params=params, spec=spec, columns=columns, values=values, errors=errors)


def _render_rows(result: SweepResult, start: int, stop: int, sep: str) -> str:
    """Rows ``start:stop`` as text: the fields, separators, slugs and newlines of a NUL-padded
    byte matrix, NULs dropped."""
    fields = format_g17(result.values[:, start:stop]).transpose(1, 0, 2)
    rows, columns = fields.shape[:2]
    seps = np.full((rows, columns, 1), ord(sep), np.uint8)
    slugs = result.errors[start:stop].astype(bytes).view(np.uint8).reshape(rows, -1)
    newlines = np.full((rows, 1), ord("\n"), np.uint8)
    matrix = np.concatenate([np.concatenate([fields, seps], axis=2).reshape(rows, -1), slugs, newlines], axis=1)
    return matrix[matrix != 0].tobytes().decode("ascii")


def render_table(result: SweepResult, stream, fmt: str = "csv", timestamp: bool = True) -> None:
    """Write a sweep table, with a provenance header that reproduces the run, to a text stream.

    ``csv`` is comma-separated with a plain column-header row; ``gnuplot``
    is whitespace-separated with a blank line between outer-axis blocks.
    Doubles are written as ``'%.17g' %`` writes them (`arith.format_g17`);
    the header echoes the resolved configuration between config-begin and
    config-end markers.  The header, each slice of RENDER_ROWS rows (never
    across a gnuplot block) and each blank line is one write, so no more
    than a slice of the text is alive at once; a table without rows is its header.
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
    n = len(result.errors)
    block = result.spec.axes[-1].points if fmt == "gnuplot" and len(result.spec.axes) > 1 else max(n, 1)
    stream.write("\n".join(lines) + "\n")
    for first in range(0, n, block):
        if first:
            stream.write("\n")
        for start in range(first, first + block, RENDER_ROWS):
            stream.write(_render_rows(result, start, min(start + RENDER_ROWS, first + block), sep))


def emit_csv(result: SweepResult, path, fmt: str = "csv", timestamp: bool = True) -> None:
    """Write the `render_table` output to the file ``path``, a slice at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        render_table(result, fh, fmt=fmt, timestamp=timestamp)

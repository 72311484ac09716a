"""Parameter-sweep engine: grid evaluation, parallel workers, tabular output.

Each scenario is one `SCENARIOS` entry, named in `config.SCENARIOS`: data
columns, block evaluator, axis choices.  The grid is an array of axis values in
row-major order (axis1 outermost), cut into contiguous chunks of whole delta_bar
blocks, one at ``jobs=1`` and several over a process pool otherwise, so serial and
parallel runs emit identical bytes.  One copy of the columns (`SweepResult`) holds the
table until `render_table` writes it, one write per bounded slice of rows,
whose doubles one numpy pass formats as ``'%.17g' %`` does (`arith.format_g17`).

Within a chunk two things are batched.  The operating point moves with every
axis but delta_bar, so the chunk's swept values are deduped once and its
distinct operating points solved PASS_POINTS at a time, each pass in one
`steady.solve_steady_states` call: the values go in as arrays, set and cleared
as `config.axis_changes` says, and come back as columns of status, photon
number, branch count and `response.Coefficients`, from which each row takes
its own.  After each pass its solved rows go to the evaluator, BLOCK_ELEMENTS
kernel elements' worth per call, which returns column arrays and a per-row
status; they fill the chunk's NaN-initialised columns by row index.  So a
41 x 1001 g_c x delta_bar grid takes one pass for its 41 operating points, as
a splitting sweep of 1-row blocks does, and a pass's memory stays bounded
where every row is an operating point of its own.  Physics failures
(instability, float overflow, singular response) mark rows with a status code
of `errors` and leave their data NaN, and the run continues: a steady-state
failure marks every row of its operating point, a response failure only its
own row.  A code's slug names the error that `steady` and `response` raise
there on one point.
"""
from __future__ import annotations

import datetime
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__, config, response
from .arith import format_g17, power
from .config import SweepAxis, SweepSpec, axis_changes, check_axis_bound, serialize_config
from .errors import OK, STATUS_ERRORS, ConfigError
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
    order; ``status`` holds the last column, one int8 code per grid row: OK
    where the row solved, else its error's index in `errors.STATUS_ERRORS`.
    A failed row keeps its axis values and NaN data.
    """

    params: SystemParams
    spec: SweepSpec
    columns: tuple[str, ...]
    values: np.ndarray
    status: np.ndarray


def _spectrum_block(delta, c, convention):
    x, _, status = response.amplitude_kernel(delta, c)
    t = dict(zip(response.CONVENTIONS, response.transmissions(x, c.kappa)))
    squares = {name: response.abs_squared(t[name]) for name in response.CONVENTIONS}
    # in _SPECTRUM_COLUMNS order
    values = (delta, *x, *t[convention], squares[convention], *squares.values())
    return dict(zip(_SPECTRUM_COLUMNS, values)), status


def _phase_block(delta, c, convention):
    columns, status = _spectrum_block(delta, c, convention)
    # principal value of arg t_p; unwrapped by run_sweep
    columns["phase"] = response.phase((columns["re_t_p"], columns["im_t_p"]))
    return columns, status


def _delay_block(delta, c, convention):
    tau_fd, tau_analytic, magnitude, status = response.group_delays(delta, c, convention)
    return dict(zip(_DELAY_COLUMNS, (tau_fd, tau_analytic, power(magnitude, 2)))), status


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
    first_error = status[np.argmax(status != OK, axis=0), rows]
    return dict(zip(_SPLITTING_COLUMNS, columns)), first_error


@dataclass(frozen=True)
class Scenario:
    """Data columns, block evaluator and axis choices of one sweep scenario."""

    columns: tuple[str, ...]  # a "phase" column is unwrapped along the innermost axis
    evaluate: Callable  # (delta, Coefficients, convention) -> ({column: array}, status), per row
    kernel_points: int  # kernel elements per row
    axes: tuple[str, ...] = ()  # names of its one axis; empty for spectra, which sweep delta_bar


SCENARIOS = dict(zip(config.SCENARIOS, (
    Scenario(_SPECTRUM_COLUMNS, _spectrum_block, 1),
    Scenario(_SPECTRUM_COLUMNS + ("phase",), _phase_block, 1),
    Scenario(_DELAY_COLUMNS, _delay_block, 1 + len(response.FD_OFFSETS), ("P_l", "Omega_l")),
    Scenario(_DELAY_COLUMNS, _delay_block, 1 + len(response.FD_OFFSETS), ("kappa",)),
    Scenario(_SPLITTING_COLUMNS, _splitting_block, SPLITTING_POINTS, ("g_coulomb",)),
), strict=True))
# axis -> the delay scenario that sweeps it, for `oemsim delay`
DELAY_SCENARIOS = {
    axis: name for name, scenario in SCENARIOS.items() if scenario.evaluate is _delay_block
    for axis in scenario.axes
}
# the slug of each status code, as table bytes
_SLUGS = np.array(
    [NO_ERROR, *(error.__name__.removesuffix("Error") for error in STATUS_ERRORS[1:])], dtype=bytes
)


def _resolve_axes(name: str, params: SystemParams, axes: tuple[SweepAxis, ...]) -> tuple[SweepAxis, ...]:
    """The axes to run, or ConfigError: exactly one from the scenario's axis choices where it has
    some, else a delta_bar axis, appended (innermost) when none is given.  Where the table has a
    phase column, which is unwrapped along the innermost axis, a given delta_bar must be innermost.
    A header has keys for two given axes; both bounds of each must lie in its field's domain."""
    if len(axes) > 2:
        raise ConfigError(f"a sweep takes at most two given axes, got {len(axes)}")
    for axis in axes:
        check_axis_bound(params, axis.name, axis.lo)
        check_axis_bound(params, axis.name, axis.hi)
    scenario = SCENARIOS[name]
    if scenario.axes:
        if len(axes) != 1 or axes[0].name not in scenario.axes:
            raise ConfigError(f"{name} needs exactly one axis from {scenario.axes}")
        return axes
    if not any(a.name == "delta_bar" for a in axes):
        hw = SPLITTING_WINDOW_FRACTION * params.mech1.omega
        return axes + (SweepAxis("delta_bar", -hw, hw, DEFAULT_SPECTRUM_POINTS),)
    if "phase" in scenario.columns and axes[-1].name != "delta_bar":
        raise ConfigError(f"{name} sweeps need delta_bar as the innermost axis")
    return axes


def _evaluate_chunk(task):
    """Table columns and status codes of one contiguous run of grid points.

    ``points`` holds the run's axis values, one row per name in ``names``.
    The run's distinct operating points are solved PASS_POINTS at a time;
    after each pass, the rows of its solved points go to the evaluator a
    block at a time.  The probe detuning is omega1 + delta_bar, the line
    centre when no delta_bar axis is swept.
    """
    params, name, convention, names, points = task
    scenario = SCENARIOS[name]
    per_block = max(1, BLOCK_ELEMENTS // scenario.kernel_points)
    swept = [axis for axis in names if axis != "delta_bar"]
    n = points.shape[1]
    delta = params.mech1.omega + (points[names.index("delta_bar")] if "delta_bar" in names else np.zeros(n))
    values = np.full((len(names) + len(scenario.columns), n), np.nan)
    values[: len(names)] = points
    status = np.zeros(n, dtype=np.int8)
    distinct, point = np.unique(points[[axis in swept for axis in names]].T, axis=0, return_inverse=True)
    point = point.reshape(-1)
    for first in range(0, len(distinct), PASS_POINTS):
        changes = {}
        for axis, column in zip(swept, distinct[first : first + PASS_POINTS].T):
            section, fields = axis_changes(axis, column)
            changes.setdefault(section, {}).update(fields)
        states = solve_steady_states(params, changes)
        table = (states.photon_number, states.branch_count.astype(float), *states.coefficients)
        rows = np.flatnonzero((point >= first) & (point < first + PASS_POINTS))
        status[rows] = states.status[point[rows] - first]
        solved = rows[status[rows] == OK]
        for start in range(0, len(solved), per_block):
            block = solved[start : start + per_block]
            photon_number, branch_count, *kernel_inputs = (column[point[block] - first] for column in table)
            with np.errstate(all="ignore"):
                data, status[block] = scenario.evaluate(
                    delta[block], response.Coefficients(*kernel_inputs), convention
                )
            data["photon_number"], data["branch_count"] = photon_number, branch_count
            ok = status[block] == OK
            for j, column in enumerate(scenario.columns, start=len(names)):
                values[j, block[ok]] = data[column][ok]
    return values, status


def run_sweep(params: SystemParams, spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the sweep grid; row order is row-major over axes as declared."""
    if spec.scenario not in SCENARIOS:
        raise ConfigError(f"scenario {spec.scenario!r} cannot run as a sweep")
    scenario = SCENARIOS[spec.scenario]
    spec = replace(spec, axes=_resolve_axes(spec.scenario, params, spec.axes))
    names = tuple(axis.name for axis in spec.axes)
    grid = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    grid = np.reshape(grid, (len(names), -1))
    n = grid.shape[1]

    block = spec.axes[-1].points if names[-1] == "delta_bar" else 1  # chunks of whole delta_bar blocks
    chunk_size = block * max(1, n // block // (jobs * 4)) if jobs > 1 else max(n, 1)
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
    values, status = chunks[0] if len(chunks) == 1 else (np.concatenate(part, axis=-1) for part in zip(*chunks))

    columns = names + scenario.columns + ("error",)
    if "phase" in columns:
        # unwrap in place along each innermost block, restarting after each error row
        phase, block, ok = values[columns.index("phase")], spec.axes[-1].points, status == OK
        at = np.arange(n) % block
        starts = np.flatnonzero(ok & ((at == 0) | ~np.roll(ok, 1)))
        stops = np.flatnonzero(ok & ((at == block - 1) | ~np.roll(ok, -1))) + 1
        for first, stop in zip(starts.tolist(), stops.tolist()):
            phase[first:stop] = response.unwrap_phase(phase[first:stop].tolist())
    return SweepResult(params=params, spec=spec, columns=columns, values=values, status=status)


def _render_rows(result: SweepResult, start: int, stop: int, sep: str) -> str:
    """Rows ``start:stop`` as text: the fields, separators, slugs and newlines of a NUL-padded
    byte matrix, NULs dropped."""
    fields = format_g17(result.values[:, start:stop]).transpose(1, 0, 2)
    rows, columns = fields.shape[:2]
    seps = np.full((rows, columns, 1), ord(sep), np.uint8)
    slugs = _SLUGS[result.status[start:stop]].view(np.uint8).reshape(rows, -1)
    newlines = np.full((rows, 1), ord("\n"), np.uint8)
    matrix = np.concatenate([np.concatenate([fields, seps], axis=2).reshape(rows, -1), slugs, newlines], axis=1)
    return matrix[matrix != 0].tobytes().decode("ascii")


def render_table(result: SweepResult, stream, fmt: str = "csv", timestamp: bool = True) -> None:
    """Write a sweep table, with a provenance header that reproduces the run, to a text stream.

    ``csv`` is comma-separated with a plain column-header row; ``gnuplot``
    is whitespace-separated with a blank line between outer-axis blocks.
    Doubles are written as ``'%.17g' %`` writes them (`arith.format_g17`);
    the header echoes the resolved configuration between config-begin and
    config-end markers, and running that block (`config.parse_config`, then
    `run_sweep`) gives the same table text again, the timestamp line aside.
    The header, each slice of RENDER_ROWS rows (never across a gnuplot block)
    and each blank line is one write, so no more than a slice of the text is
    alive at once; a table without rows is its header.
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
    n = len(result.status)
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

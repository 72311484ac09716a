"""Parameter-sweep engine: grid evaluation, parallel workers, tabular output.

Each scenario is one `SCENARIOS` entry, named in `config.SCENARIOS`: data
columns, block evaluator, axis choices.  The grid is an array of axis values in
row-major order (axis1 outermost), cut into contiguous chunks of whole delta_bar
blocks, one at ``jobs=1`` and several over a process pool otherwise, so serial and
parallel runs emit identical bytes; a chunk unwraps the phase of its blocks
(`response.unwrap_phase`), afresh after each failed row's NaN.  One copy of the
columns (`SweepResult`) holds the table until `render_table` writes it, one
write per bounded slice of rows.  Every slice is built in the same buffers,
allocated once per table: one `arith.format_g17` call writes the row-major
fields, each ended by the separator, of the columns that do not repeat
(``'%.17g' %`` text), a column that repeats by delta_bar block has its text
formatted once and gathered, and the row matrix drops its NUL padding.

Within a chunk two things are batched.  The operating point moves with every
axis but delta_bar, so the swept values of each delta_bar block's first row are
deduped once (`arith.distinct_rows`) and the chunk's distinct operating points
solved PASS_POINTS at a time, each pass in one `steady.solve_steady_states` call:
the values go in as arrays, set and cleared as `config.axis_changes` says, and
come back as columns of status, photon number, branch count and
`response.Coefficients`, from which each row takes its own (a column of one
element is every row's).  A steady pass costs about 0.8 ms besides its points,
so a pass holds 4,100: 3 passes, not 13 of 820, take a 10,001-point pump sweep
for under 0.1 MB more peak RSS, and larger passes saved no measurable time.  After
each pass its solved rows go to the evaluator, BLOCK_ELEMENTS kernel elements'
worth per call, which returns column arrays and a per-row status; they fill the
chunk's NaN-initialised columns by row index.  So a 41 x 1001 g_c x delta_bar
grid dedupes 41 rows and takes one pass for its 41 operating points, and a
pass's memory stays bounded where every row is an operating point of its own.  The
splitting evaluator takes a pass's solved rows at once and scans each in a kernel
call of its own, sharing the grid and the kernel terms free of g_c and n among
rows equal in the other coefficients (`response.window_scan`); squares rule out
all but a few points of a row as maxima, and libm's |t_p|^2 of those and their
neighbours gives the heights (the spectrum and delay columns stay on libm).
Physics failures (instability, float overflow, singular response) mark rows
with a status code of `errors` and leave their data NaN, and the run
continues: a steady-state failure marks every row of its operating point, a
response failure only its own row.  A code's slug names the error that
`steady` and `response` raise there on one point.
"""
from __future__ import annotations

import datetime
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__, config, response
from .arith import G17_BYTES, G17_WIDTH, distinct_rows, format_g17, power
from .config import SweepAxis, SweepSpec, axis_changes, check_axis_bound, serialize_config
from .errors import OK, STATUS_ERRORS, ConfigError
from .params import SystemParams
from .response import SPLITTING_POINTS, SPLITTING_WINDOW_FRACTION
from .steady import solve_steady_states

DEFAULT_SPECTRUM_POINTS = 2001
NO_ERROR = "-"
# kernel elements per kernel call: bounds a call's memory, holds one splitting scan (a call
# of its own per row; other evaluators get as many rows as it holds), a multiple of 5 delay points
BLOCK_ELEMENTS = 4100
# operating points per steady pass (sized in the module docstring): bounds a pass's memory, about 370 B a
# point at its traced peak, and a splitting evaluate call's rows
PASS_POINTS = 4100
# rows per slice written, and the most blocks of a constant reused column: bounds the text alive while rendering
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
    # principal value of arg t_p; _evaluate_chunk unwraps it per delta_bar block
    columns["phase"] = response.phase((columns["re_t_p"], columns["im_t_p"]))
    return columns, status


def _delay_block(delta, c, convention):
    tau_fd, tau_analytic, magnitude, status = response.group_delays(delta, c, convention)
    return dict(zip(_DELAY_COLUMNS, (tau_fd, tau_analytic, power(magnitude, 2)))), status


def _splitting_block(delta, c, convention):
    """Window maxima of |t_p|^2 over delta_bar in +-0.2 omega1: `response.window_scan` scans the rows one
    at a time, sharing the grid and the g_c-free kernel terms among rows whose other coefficients agree."""
    count, lo, hi, height_lo, height_hi = np.full((5, len(delta)), np.nan)
    status = np.empty(len(delta), np.int8)
    half_width = np.broadcast_to(SPLITTING_WINDOW_FRACTION * c.omega1, delta.shape)
    scans = response.window_scan(c, convention, half_width, SPLITTING_POINTS)
    for i, _, scan_status, delta_bar, heights in scans:
        status[i], count[i] = scan_status[np.argmax(scan_status != OK)], len(heights)
        # the two highest peaks, in delta_bar order; of equal heights the later ranks higher, as in a stable sort
        top = np.sort(np.argsort(heights, kind="stable")[-2:])
        for column, height, at in zip((lo, hi), (height_lo, height_hi), top):
            column[i], height[i] = delta_bar[at], heights[at]
    return dict(zip(_SPLITTING_COLUMNS, (count, lo, hi, hi - lo, height_lo, height_hi))), status


@dataclass(frozen=True)
class Scenario:
    """Data columns, block evaluator and axis choices of one sweep scenario."""

    columns: tuple[str, ...]  # a "phase" column is unwrapped per delta_bar block, in the chunk
    evaluate: Callable  # (delta, Coefficients, convention) -> ({column: array}, status), per row
    kernel_points: int  # kernel elements per row
    axes: tuple[str, ...] = ()  # names of its one axis; empty for spectra, which sweep delta_bar
    rows_per_call: int = 0  # rows per evaluate call; 0: as many as BLOCK_ELEMENTS kernel elements hold


SCENARIOS = dict(zip(config.SCENARIOS, (
    Scenario(_SPECTRUM_COLUMNS, _spectrum_block, 1),
    Scenario(_SPECTRUM_COLUMNS + ("phase",), _phase_block, 1),
    Scenario(_DELAY_COLUMNS, _delay_block, 1 + len(response.FD_OFFSETS), ("P_l", "Omega_l")),
    Scenario(_DELAY_COLUMNS, _delay_block, 1 + len(response.FD_OFFSETS), ("kappa",)),
    Scenario(_SPLITTING_COLUMNS, _splitting_block, SPLITTING_POINTS, ("g_coulomb",), PASS_POINTS),
), strict=True))
# axis -> the delay scenario that sweeps it, for `oemsim delay`
DELAY_SCENARIOS = {
    axis: name for name, scenario in SCENARIOS.items() if scenario.evaluate is _delay_block
    for axis in scenario.axes
}
# the slug of each status code and a newline, as a row of NUL-padded table bytes
_SLUGS = np.array(
    [f"{slug}\n" for slug in (NO_ERROR, *(error.__name__.removesuffix("Error") for error in STATUS_ERRORS[1:]))],
    dtype=bytes,
).view(np.uint8).reshape(len(STATUS_ERRORS), -1)


def _resolve_axes(name: str, params: SystemParams, axes: tuple[SweepAxis, ...]) -> tuple[SweepAxis, ...]:
    """The axes to run, or ConfigError on a rule that needs the parameters or the scenario table (the
    rest are `SweepAxis`' and `SweepSpec`'s): at most two given axes, as a header has keys for two;
    both bounds of each in its field's domain; one of the scenario's axis choices where it has some,
    else a delta_bar axis, appended when none is given and innermost where a phase column unwraps."""
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

    ``points`` holds the run's axis values, one row per name in ``names``, in blocks of ``block``
    rows that share an operating point.  The distinct points of the blocks' first rows are solved
    PASS_POINTS at a time (sized in the module docstring); after each pass, the rows of its solved
    points go to the evaluator in calls of `Scenario.rows_per_call` rows, or else of BLOCK_ELEMENTS
    kernel elements, a one-element column of the pass as it is, to broadcast.  The probe
    detuning is omega1 + delta_bar, the line centre when no delta_bar axis is swept.  A phase column
    is unwrapped last, a ``block`` at a time.
    """
    params, name, convention, names, block, points = task
    scenario = SCENARIOS[name]
    per_block = scenario.rows_per_call or max(1, BLOCK_ELEMENTS // scenario.kernel_points)
    swept = [axis for axis in names if axis != "delta_bar"]
    n = points.shape[1]
    delta = params.mech1.omega + (points[names.index("delta_bar")] if "delta_bar" in names else np.zeros(n))
    values = np.full((len(names) + len(scenario.columns), n), np.nan)
    values[: len(names)] = points
    status = np.zeros(n, dtype=np.int8)
    distinct, point = distinct_rows(points[[axis in swept for axis in names], ::block].T)
    point = np.repeat(point, block)
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
            batch = solved[start : start + per_block]
            at = point[batch] - first
            photon_number, branch_count, *kernel_inputs = (c if len(c) == 1 else c[at] for c in table)
            with np.errstate(all="ignore"):
                data, status[batch] = scenario.evaluate(
                    delta[batch], response.Coefficients(*kernel_inputs), convention
                )
            data["photon_number"], data["branch_count"] = photon_number, branch_count
            ok = status[batch] == OK
            for j, column in enumerate(scenario.columns, start=len(names)):
                values[j, batch[ok]] = np.broadcast_to(data[column], ok.shape)[ok]
    if "phase" in scenario.columns:
        phase = values[len(names) + scenario.columns.index("phase")]
        for first in range(0, n, block):
            phase[first : first + block] = response.unwrap_phase(phase[first : first + block].tolist())
    return values, status


def run_sweep(params: SystemParams, spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the sweep grid; row order is row-major over axes as declared."""
    spec = replace(spec, axes=_resolve_axes(spec.scenario, params, spec.axes))
    names = tuple(axis.name for axis in spec.axes)
    grid = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    grid = np.reshape(grid, (len(names), -1))
    n = grid.shape[1]

    block = spec.axes[-1].points if names[-1] == "delta_bar" else 1  # chunks of whole delta_bar blocks
    chunk_size = block * max(1, n // block // (jobs * 4)) if jobs > 1 else max(n, 1)
    tasks = [
        (params, spec.scenario, spec.convention, names, block, grid[:, i : i + chunk_size])
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

    columns = names + SCENARIOS[spec.scenario].columns + ("error",)
    return SweepResult(params=params, spec=spec, columns=columns, values=values, status=status)


def _repeated_text(result: SweepResult, sep: str = ",") -> dict:
    """{column: (text, block, constant)} of the columns that repeat bit for bit by innermost-axis
    block, constant along each (with at most RENDER_ROWS blocks) or the same in each (one block's
    text, at most half the rows).  Row r's field, ended by ``sep``, is ``text[r // block]`` if
    constant, else ``text[r % block]``; it is formatted RENDER_ROWS values at a time."""
    n, block, repeated = len(result.status), result.spec.axes[-1].points, {}
    if len(result.spec.axes) < 2 or n < 2 * block:
        return repeated
    g17 = np.empty(G17_BYTES * RENDER_ROWS, np.uint8)
    for j, column in enumerate(result.values.view(np.int64)):
        constant = n // block <= RENDER_ROWS and (column.reshape(-1, block) == column[::block, None]).all()
        if constant or np.array_equal(column[block:], column[:-block]):
            distinct = result.values[j, ::block] if constant else result.values[j, :block]
            text = np.empty((len(distinct), G17_WIDTH), np.uint8)
            for first in range(0, len(distinct), RENDER_ROWS):
                text[first : first + RENDER_ROWS] = format_g17(distinct[first : first + RENDER_ROWS], g17, sep)
            repeated[j] = text, block, constant
    return repeated


def _render_rows(result: SweepResult, start: int, stop: int, sep: str, buffers, repeated: dict) -> str:
    """Rows ``start:stop`` as text, built in the first ``stop - start`` rows of the arrays that
    `render_table` allocates once for all its slices: ``buffers`` holds the indices of the columns
    that do not repeat, room for their doubles, the buffer `format_g17` works in, and the row
    matrix and its mask.  A matrix row holds each column's field, ended by ``sep``, then the slug
    and newline; NULs are dropped.  The columns that do not repeat are formatted in one call."""
    plain, doubles, g17, matrix, mask = buffers
    rows, mask = matrix[: stop - start], mask[: stop - start]
    cells = rows[:, : -_SLUGS.shape[1]].reshape(len(rows), -1, G17_WIDTH)
    x = np.take(result.values[:, start:stop], plain, axis=0, mode="clip",
                out=doubles[: len(plain) * len(rows)].reshape(len(plain), len(rows)))
    cells[:, plain] = format_g17(x.T, g17, sep)
    at = np.arange(start, stop)
    for j, (text, block, constant) in repeated.items():
        cells[:, j] = text.take(at // block if constant else at % block, axis=0)
    rows[:, -_SLUGS.shape[1] :] = _SLUGS.take(result.status[start:stop], axis=0)
    return str(rows[np.not_equal(rows, 0, out=mask)], "ascii")


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
    alive at once; a table without rows is its header.  The buffers every slice
    is built in are allocated here, sized for the longest slice: a short slice
    fills their first rows (`_render_rows`).  A column that repeats by
    innermost-axis block is formatted once per distinct value (`_repeated_text`).
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
    repeated = _repeated_text(result, sep)
    plain = [j for j in range(len(result.values)) if j not in repeated]
    matrix = np.empty((min(RENDER_ROWS, block, n), len(result.values) * G17_WIDTH + _SLUGS.shape[1]), np.uint8)
    size = len(plain) * len(matrix)
    buffers = plain, np.empty(size), np.empty(G17_BYTES * size, np.uint8), matrix, np.empty(matrix.shape, bool)
    stream.write("\n".join(lines) + "\n")
    for first in range(0, n, block):
        if first:
            stream.write("\n")
        for start in range(first, first + block, RENDER_ROWS):
            stop = min(start + RENDER_ROWS, first + block)
            stream.write(_render_rows(result, start, stop, sep, buffers, repeated))


def emit_csv(result: SweepResult, path, fmt: str = "csv", timestamp: bool = True) -> None:
    """Write the `render_table` output to the file ``path``, a slice at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        render_table(result, fh, fmt=fmt, timestamp=timestamp)

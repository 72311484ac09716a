"""Self-test of the output checks: each checker must pass a real output and
fail the same output with one planted fault.

    python3 perfbench/selftest.py        (from the root of a checkout, ~10 s)

The table workloads run through `oemsim.cli.main` on small grids.  The
`validate` checker is fed a report made here, since a real report takes the
full time-domain oracle.  The script also checks that BENCHMARK.json names
the metrics and workloads run.py reports.  Exit code 0 means every case
behaved as expected.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oemsim.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Inputs  # noqa: E402

SMALL = {
    "spectrum-2d": Inputs("spectrum-2d", 7, gc_max=0.2, gc_points=5, half_width=0.2, delta_points=101,
                          sampled_rows=tuple(range(0, 505, 7))),
    "splitting-gc": Inputs("splitting-gc", 7, gc_min=0.01, gc_max=0.2, gc_points=6),
    "delay-scan": Inputs("delay-scan", 7, p_points=201),
}


def table_of(inputs: Inputs, work: Path) -> checks.Table:
    config = work / f"{inputs.name}.cfg"
    config.write_text(workloads.config_text(inputs), encoding="utf-8")
    out = work / f"{inputs.name}.csv"
    code = oemsim.cli.main(workloads.cli_argv(inputs, str(config), str(out)))
    if code != 0:
        raise SystemExit(f"oemsim exited {code} on the small {inputs.name} input")
    return checks.read_table(out)


def mutate(table: checks.Table, column: str, rows, change) -> checks.Table:
    values = table.values.copy()
    j = table.columns.index(column)
    values[rows, j] = change(values[rows, j])
    return checks.Table(table.columns, values, table.errors.copy())


def scale_row_consistently(table: checks.Table, row: int, factor: float) -> checks.Table:
    """Scale X of one row and rewrite every column derived from X, so only the 6x6 check can see it."""
    kappa = oemsim.get_preset(workloads.PRESET).cavity.kappa
    col = {name: table.columns.index(name) for name in table.columns}
    values = table.values.copy()
    x = complex(values[row, col["re_X"]], values[row, col["im_X"]]) * factor
    t_old = complex(values[row, col["re_t_p"]], values[row, col["im_t_p"]])
    t_new = 1.0 - 2.0 * kappa * x
    values[row, col["re_X"]], values[row, col["im_X"]] = x.real, x.imag
    values[row, col["re_t_p"]], values[row, col["im_t_p"]] = t_new.real, t_new.imag
    values[row, col["transmission"]] = values[row, col["transmission_corrected"]] = abs(t_new) ** 2
    values[row, col["transmission_intracavity"]] = abs(2.0 * kappa * x) ** 2
    values[row, col["phase"]] += math.atan2(t_new.imag, t_new.real) - math.atan2(t_old.imag, t_old.real)
    return checks.Table(table.columns, values, table.errors.copy())


def report(seed: int, failing: tuple[str, ...] = ()) -> str:
    entries = [{"name": n, "passed": n not in failing, "detail": "planted"} for n in workloads.VALIDATE_CHECKS]
    return json.dumps({"seed": seed, "passed": not failing, "checks": entries})


def main() -> int:
    work = ROOT / ".perfbench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    results = []

    def expect(label, outcome, planted_row=None):
        if planted_row is None:
            ok = not outcome.failures
        else:
            ok = planted_row in outcome.failures
        results.append(ok)
        reasons = "; ".join(outcome.problems()) or "no unexpected failure"
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {reasons}")

    try:
        spectrum = SMALL["spectrum-2d"]
        table = table_of(spectrum, work)
        expect("spectrum-2d as written", checks.check_spectrum(table, spectrum))
        row = 250
        expect("spectrum-2d, one X scaled by 1+1e-6",
               checks.check_spectrum(mutate(mutate(table, "re_X", row, lambda v: v * (1 + 1e-6)),
                                            "im_X", row, lambda v: v * (1 + 1e-6)), spectrum), row)
        row = spectrum.sampled_rows[10]
        expect("spectrum-2d, one row moved to X (1+1e-6) with its t_p, transmissions and phase",
               checks.check_spectrum(scale_row_consistently(table, row, 1 + 1e-6), spectrum), row)
        n_d = spectrum.delta_points
        start = 2 * n_d + n_d // 2
        expect("spectrum-2d, one phase block shifted by 2 pi partway",
               checks.check_spectrum(mutate(table, "phase", slice(start, 3 * n_d), lambda v: v + 2 * math.pi),
                                     spectrum), start)

        splitting = SMALL["splitting-gc"]
        table = table_of(splitting, work)
        expect("splitting-gc as written", checks.check_splitting(table, splitting))
        grid = np.linspace(1 - workloads.SPLITTING_HALF_WIDTH, 1 + workloads.SPLITTING_HALF_WIDTH,
                           workloads.SPLITTING_POINTS)
        row = 3

        def next_grid_point(v):
            return grid[int(np.argmin(np.abs(grid - 1 - v))) + 1] - 1

        moved = mutate(table, "peak_lo", row, next_grid_point)
        moved.values[row, moved.columns.index("separation")] = moved.col("peak_hi")[row] - moved.col("peak_lo")[row]
        expect("splitting-gc, one peak moved by one grid step", checks.check_splitting(moved, splitting), row)

        delay = SMALL["delay-scan"]
        table = table_of(delay, work)
        outcome = checks.check_delay(table, delay)
        expect(f"delay-scan as written ({outcome.known_failures} known finite-difference failures)", outcome)
        row = 100
        expect("delay-scan, one tau_g_analytic scaled by 1+1e-6",
               checks.check_delay(mutate(table, "tau_g_analytic", row, lambda v: v * (1 + 1e-6)), delay), row)

        inputs = Inputs("validate", 5)
        expect("validate, all checks pass", checks.check_validate(report(5), 0, inputs))
        expect("validate, one failing check", checks.check_validate(report(5, ("demodulation",)), 3, inputs),
               [n for n in workloads.VALIDATE_CHECKS if n not in workloads.VALIDATE_UNCOUNTED].index("demodulation"))
        for label, text, code in (("exit code 0 with a failing check", report(5, ("steady_state",)), 0),
                                  ("seed not echoed", report(6), 0)):
            try:
                checks.check_validate(text, code, inputs)
                ok = False
            except ValueError:
                ok = True
            results.append(ok)
            print(f"{'PASS' if ok else 'FAIL'}  validate, {label}: {'rejected' if ok else 'accepted'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = (
        tuple(w["name"] for w in spec["workloads"]),
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )
    ok = declared == (workloads.NAMES, run.END_TO_END, run.PER_LAYER)
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  BENCHMARK.json names the workloads and metrics run.py reports")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

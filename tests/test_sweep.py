import concurrent.futures
import dataclasses
import hashlib
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest

import oemsim.response
import oemsim.steady
import oemsim.sweep
from oemsim.config import SCENARIOS, SweepAxis, SweepSpec, apply_override, parse_config
from oemsim.errors import (
    OK,
    STATUS_ERRORS,
    ConfigError,
    InvariantViolationError,
    MechanicalPoleError,
    SimulationError,
    StaticInstabilityError,
)
from oemsim.presets import get_preset, slowfast_pump_power
from oemsim.response import group_delay, transmission
from oemsim.steady import solve_steady_state
from oemsim.sweep import NO_ERROR, emit_csv, render_table, run_sweep
from oemsim.validate import dimensionless_system, system_for_beta
from table_io import read_sweep_csv, render_text, sweep_section, table_rows

# one small grid per sweep scenario the config accepts, plus one with unstable rows
PARALLEL_CASES = {
    "spectrum": SweepSpec(
        "spectrum", (SweepAxis("g_coulomb", 0.05, 0.2, 3), SweepAxis("delta_bar", -0.1, 0.1, 4))
    ),
    "phase": SweepSpec(
        "phase", (SweepAxis("g_coulomb", 0.05, 0.2, 3), SweepAxis("delta_bar", -0.1, 0.1, 7))
    ),
    "delay-vs-power": SweepSpec("delay-vs-power", (SweepAxis("P_l", 0.05, 0.4, 5),)),
    "delay-vs-kappa": SweepSpec("delay-vs-kappa", (SweepAxis("kappa", 0.113, 0.34, 3),)),
    "splitting-vs-gc": SweepSpec("splitting-vs-gc", (SweepAxis("g_coulomb", 0.05, 0.2, 4),)),
    "static-instability": SweepSpec(
        "phase", (SweepAxis("g_coulomb", 0.8, 1.2, 3), SweepAxis("delta_bar", -0.05, 0.05, 5))
    ),
}

# runs whose header is rerun: the case of the spectrum_spec fixture, then configs of every
# scenario with no axis, one or two, delta_bar given or implied (the default axis the sweep
# appends, a third one after g_coulomb x kappa)
SLOWFAST = "preset = dimensionless-slowfast\n[coupling]\ng_coulomb = 0.1 dimensionless\n"
HEADER_CONFIGS = {
    "spectrum": SLOWFAST + sweep_section("spectrum"),
    "spectrum-delta": SLOWFAST + sweep_section("spectrum", ("delta_bar", -0.1, 0.1, 7)),
    "spectrum-gc": SLOWFAST + sweep_section("spectrum", ("g_coulomb", 0, 0.2, 2)),
    "spectrum-gc-delta": SLOWFAST + sweep_section(
        "spectrum", ("g_coulomb", 0, 0.2, 3), ("delta_bar", -0.1, 0.1, 5)),
    "spectrum-delta-kappa": SLOWFAST + sweep_section(
        "spectrum", ("delta_bar", -0.1, 0.1, 5), ("kappa", 0.1, 0.3, 3, "log")),
    "spectrum-gc-kappa": SLOWFAST + sweep_section("spectrum", ("g_coulomb", 0, 0.2, 2), ("kappa", 0.1, 0.3, 2)),
    "phase": SLOWFAST + sweep_section("phase"),
    "phase-gc": SLOWFAST + sweep_section("phase", ("g_coulomb", 0, 0.2, 2)),
    "phase-gc-delta": SLOWFAST + sweep_section("phase", ("g_coulomb", 0, 0.2, 3), ("delta_bar", -0.1, 0.1, 9)),
    "phase-gc-kappa": SLOWFAST + sweep_section("phase", ("g_coulomb", 0, 0.2, 2), ("kappa", 0.1, 0.3, 2)),
    "delay-power": SLOWFAST + sweep_section("delay-vs-power", ("P_l", 1e-4, 1, 5, "log")),
    "delay-amplitude": SLOWFAST + sweep_section("delay-vs-power", ("Omega_l", 1e-3, 0.5, 5)),
    "delay-kappa": SLOWFAST + sweep_section("delay-vs-kappa", ("kappa", 0.113, 0.34, 5)),
    "splitting": SLOWFAST + sweep_section("splitting-vs-gc", ("g_coulomb", 0, 1.2, 4)),
    "paper-spectrum-gc-kappa": "preset = paper-2012\n" + sweep_section(
        "spectrum", ("g_coulomb", "0 MHz", "16 MHz", 2), ("kappa", "100 kHz", "300 kHz", 2)),
    "paper-delay-power": "preset = paper-2012\n" + sweep_section(
        "delay-vs-power", ("P_l", "1 uW", "10 uW", 3, "log")),
}
HEADER_CASES = {
    "spectrum-spec": (
        system_for_beta(0.227, 5e-3, g_coulomb=0.2),
        SweepSpec("spectrum", (SweepAxis("g_coulomb", 0.05, 0.2, 3), SweepAxis("delta_bar", -0.1, 0.1, 4))),
    ),
    **{name: parse_config(text) for name, text in HEADER_CONFIGS.items()},
}


@pytest.fixture
def spectrum_spec():
    return SweepSpec(
        scenario="spectrum",
        axes=(
            SweepAxis("g_coulomb", 0.05, 0.2, 3),
            SweepAxis("delta_bar", -0.1, 0.1, 4),
        ),
    )


class TestApplyOverride:
    def test_each_supported_parameter(self, slowfast_spectrum):
        assert apply_override(slowfast_spectrum, "kappa", 0.3).cavity.kappa == 0.3
        assert apply_override(slowfast_spectrum, "g_coulomb", 0.07).coupling.g_coulomb == 0.07
        assert apply_override(slowfast_spectrum, "g_cav", 0.2).coupling.g_cav == 0.2
        powered = apply_override(slowfast_spectrum, "P_l", 0.5)
        assert powered.drive.pump_power == 0.5 and powered.drive.pump_amplitude is None
        amped = apply_override(slowfast_spectrum, "Omega_l", 0.25)
        assert amped.drive.pump_amplitude == 0.25 and amped.drive.pump_power is None
        with pytest.raises(ValueError):
            apply_override(slowfast_spectrum, "delta_bar", 0.1)


@pytest.fixture
def eigvals_sizes(monkeypatch):
    """Stack sizes of the np.linalg.eigvals calls made while the test runs."""
    sizes = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(companion):
        sizes.append(len(companion))
        return eigvals(companion)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    return sizes


class TestRunSweep:
    def test_row_count_and_row_major_order(self, slowfast_spectrum, spectrum_spec):
        result = run_sweep(slowfast_spectrum, spectrum_spec)
        assert len(table_rows(result)) == 3 * 4
        g_values = [row[0] for row in table_rows(result)]
        assert g_values == sorted(g_values)
        assert g_values[0] == g_values[3]  # outer axis constant over inner block
        inner = [row[1] for row in table_rows(result)[:4]]
        assert inner == sorted(inner)
        assert all(row[-1] == NO_ERROR for row in table_rows(result))

    def test_default_delta_bar_axis_injected(self, slowfast_spectrum):
        result = run_sweep(slowfast_spectrum, SweepSpec(scenario="spectrum"))
        assert result.spec.axes[0].name == "delta_bar"
        assert len(table_rows(result)) == result.spec.axes[0].points

    def test_phase_appends_the_default_delta_bar_axis_innermost(self, slowfast_spectrum):
        axes = (SweepAxis("g_coulomb", 0.05, 0.2, 3),)
        phase = run_sweep(slowfast_spectrum, SweepSpec("phase", axes))
        spectrum = run_sweep(slowfast_spectrum, SweepSpec("spectrum", axes))
        assert [axis.name for axis in phase.spec.axes] == ["g_coulomb", "delta_bar"]
        assert phase.spec.axes == spectrum.spec.axes
        assert phase.columns[-2:] == ("phase", "error")
        np.testing.assert_array_equal(phase.values[:-1], spectrum.values)
        blocks = phase.values[-1].reshape(3, -1)
        assert np.max(np.abs(np.diff(blocks, axis=1))) < math.pi  # unwrapped along delta_bar

    def test_instability_marks_rows_and_continues(self):
        params = system_for_beta(kappa=0.2, beta=1e-3, g_coulomb=0.0)
        spec = SweepSpec(
            scenario="spectrum",
            axes=(
                SweepAxis("g_coulomb", 0.8, 1.2, 3),  # crosses K = 0 at g_c = 1
                SweepAxis("delta_bar", -0.05, 0.05, 2),
            ),
        )
        result = run_sweep(params, spec)
        assert len(table_rows(result)) == 6
        slugs = {row[-1] for row in table_rows(result)}
        assert "StaticInstability" in slugs and NO_ERROR in slugs
        for row in table_rows(result):
            if row[-1] != NO_ERROR:
                assert math.isnan(row[2])

    def test_delay_columns_agree(self):
        params = system_for_beta(kappa=0.227, beta=1e-4, g_coulomb=0.1)
        spec = SweepSpec(scenario="delay-vs-power", axes=(SweepAxis("P_l", 0.05, 0.4, 5),))
        result = run_sweep(params, spec)
        i_fd = result.columns.index("tau_g_fd")
        i_an = result.columns.index("tau_g_analytic")
        for row in table_rows(result):
            assert row[-1] == NO_ERROR
            assert abs(row[i_fd] - row[i_an]) <= 1e-6 * abs(row[i_an])

    def test_delay_vs_kappa_scenario(self):
        params = system_for_beta(kappa=0.227, beta=1e-6, g_coulomb=0.2)
        spec = SweepSpec(scenario="delay-vs-kappa", axes=(SweepAxis("kappa", 0.113, 0.34, 3),))
        result = run_sweep(params, spec)
        taus = [row[result.columns.index("tau_g_analytic")] for row in table_rows(result)]
        assert all(t > 0 for t in taus)

    def test_splitting_scenario_reports_separations(self):
        params = get_preset("dimensionless-slowfast")
        spec = SweepSpec(scenario="splitting-vs-gc", axes=(SweepAxis("g_coulomb", 0.05, 0.2, 4),))
        result = run_sweep(params, spec)
        i_n = result.columns.index("n_maxima")
        i_sep = result.columns.index("separation")
        seps = []
        for row in table_rows(result):
            assert row[i_n] == 2.0
            seps.append(row[i_sep])
        assert all(b > a for a, b in zip(seps, seps[1:]))

    def test_phase_scenario_unwraps_along_inner_axis(self, slowfast_spectrum):
        spec = SweepSpec(scenario="phase", axes=(SweepAxis("delta_bar", -0.15, 0.15, 801),))
        result = run_sweep(slowfast_spectrum, spec)
        i_phase = result.columns.index("phase")
        phases = np.array([row[i_phase] for row in table_rows(result)])
        assert np.max(np.abs(np.diff(phases))) < math.pi

    def test_axis_requirements_validated(self, slowfast_spectrum):
        with pytest.raises(ConfigError):
            run_sweep(slowfast_spectrum, SweepSpec(scenario="delay-vs-power"))
        with pytest.raises(ConfigError):
            run_sweep(
                slowfast_spectrum,
                SweepSpec(scenario="splitting-vs-gc", axes=(SweepAxis("kappa", 0.1, 0.3, 3),)),
            )
        with pytest.raises(ConfigError):
            run_sweep(slowfast_spectrum, SweepSpec(scenario="validate"))
        outer_delta = (SweepAxis("delta_bar", -0.1, 0.1, 5), SweepAxis("kappa", 0.1, 0.3, 3))
        with pytest.raises(ConfigError, match="phase sweeps need delta_bar as the innermost axis"):
            run_sweep(slowfast_spectrum, SweepSpec("phase", outer_delta))

    def test_more_than_two_given_axes_rejected(self, slowfast_spectrum):
        # a header has keys for two axes, so it would drop the third and rerun another grid
        axes = (SweepAxis("g_coulomb", 0, 0.2, 2), SweepAxis("kappa", 0.1, 0.3, 2),
                SweepAxis("delta_bar", -0.1, 0.1, 3))
        with pytest.raises(ConfigError, match="at most two given axes, got 3"):
            run_sweep(slowfast_spectrum, SweepSpec("spectrum", axes))

    @pytest.mark.parametrize("case", list(SCENARIOS) + ["static-instability"])
    def test_parallel_matches_serial(self, slowfast_spectrum, case):
        spec = PARALLEL_CASES[case]
        serial = run_sweep(slowfast_spectrum, spec, jobs=1)
        parallel = run_sweep(slowfast_spectrum, spec, jobs=3)
        # repr, because NaN != NaN once the rows have crossed a process boundary
        assert [tuple(map(repr, r)) for r in table_rows(serial)] == [
            tuple(map(repr, r)) for r in table_rows(parallel)
        ]
        for fmt in ("csv", "gnuplot"):
            assert render_text(serial, fmt, timestamp=False) == render_text(parallel, fmt, timestamp=False)
        if case == "static-instability":
            assert {"StaticInstability", NO_ERROR} <= {row[-1] for row in table_rows(serial)}

    def test_steady_state_solved_once_per_operating_point(self, monkeypatch, slowfast_spectrum):
        calls = []  # the points of each steady pass
        solve = oemsim.sweep.solve_steady_states

        def counting_solve(params, swept):
            states = solve(params, swept)
            calls.extend(states.status)
            return states

        monkeypatch.setattr(oemsim.sweep, "solve_steady_states", counting_solve)
        # 3 g_coulomb x 4 delta_bar rows, then 5 P_l rows
        assert len(table_rows(run_sweep(slowfast_spectrum, PARALLEL_CASES["spectrum"], jobs=1))) == 12
        assert len(calls) == 3
        calls.clear()
        run_sweep(slowfast_spectrum, PARALLEL_CASES["delay-vs-power"], jobs=1)
        assert len(calls) == 5

    def test_splitting_sweep_solves_its_points_in_one_pass(self, monkeypatch, slowfast_spectrum):
        # 60 blocks of one 4001-point scan each, and one steady pass for all of them
        passes = []
        solve = oemsim.sweep.solve_steady_states

        def counting_solve(params, swept):
            states = solve(params, swept)
            passes.append(len(states.status))
            return states

        monkeypatch.setattr(oemsim.sweep, "solve_steady_states", counting_solve)
        spec = SweepSpec("splitting-vs-gc", (SweepAxis("g_coulomb", 0.01, 0.2, 60),))
        result = run_sweep(slowfast_spectrum, spec)
        assert len(table_rows(result)) == 60 and all(row[-1] == NO_ERROR for row in table_rows(result))
        assert passes == [60]

    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_parallel_chunks_solve_each_operating_point_once(self, monkeypatch, slowfast_spectrum, jobs):
        # 41 g_coulomb blocks of 101 rows, the shape of a reduced spectrum-2d grid: chunks of whole
        # blocks, so no operating point straddles two chunks and is solved in each
        spec = SweepSpec(
            "phase", (SweepAxis("g_coulomb", 0.0, 0.2, 41), SweepAxis("delta_bar", -0.2, 0.2, 101))
        )
        serial = render_text(run_sweep(slowfast_spectrum, spec, jobs=1), timestamp=False)
        assert render_text(run_sweep(slowfast_spectrum, spec, jobs=jobs), timestamp=False) == serial
        points, chunks = [], []
        solve, evaluate = oemsim.sweep.solve_steady_states, oemsim.sweep._evaluate_chunk

        def counting_solve(params, swept):
            states = solve(params, swept)
            points.extend(zip(*(column.tolist() for fields in swept.values() for column in fields.values())))
            return states

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                assert fn is evaluate
                tasks = list(tasks)
                chunks.extend(task[-1].shape[1] for task in tasks)
                return map(fn, tasks)

        monkeypatch.setattr(oemsim.sweep, "solve_steady_states", counting_solve)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert render_text(run_sweep(slowfast_spectrum, spec, jobs=jobs), timestamp=False) == serial
        assert len(chunks) > 1 and all(size % 101 == 0 for size in chunks)
        assert len(points) == len(set(points)) == 41

    def test_worker_count_capped_by_task_count(self, monkeypatch, slowfast_spectrum):
        # a fork pool starts all max_workers processes on its first submit
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_sweep imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        result = run_sweep(slowfast_spectrum, PARALLEL_CASES["spectrum"], jobs=64)
        assert len(table_rows(result)) == 12
        assert len(requested) == 1 and 1 <= requested[0] <= 12
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("scenario", ["spectrum", "phase"])
    def test_response_error_marks_only_its_row(self, scenario, jobs):
        # gamma2 = 0 puts an exact pole of mirror 2 at delta_bar = 0, the middle row of each block
        params = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.1, gamma2=0.0)
        spec = SweepSpec(
            scenario, (SweepAxis("g_coulomb", 0.05, 0.1, 2), SweepAxis("delta_bar", -0.1, 0.1, 5))
        )
        result = run_sweep(params, spec, jobs=jobs)
        rows = table_rows(result)
        assert [row[-1] for row in rows] == [NO_ERROR, NO_ERROR, "MechanicalPole", NO_ERROR, NO_ERROR] * 2
        for block in (rows[:5], rows[5:]):
            # the error row keeps its axis values and no data, photon number included
            assert all(math.isnan(value) for value in block[2][2:-1])
            if scenario == "phase":
                i_phase = result.columns.index("phase")
                i_re = result.columns.index("re_t_p")
                i_im = result.columns.index("im_t_p")
                # the unwrap starts afresh at the principal value after the error row
                for run in (block[:2], block[3:]):
                    principal = [math.atan2(row[i_im], row[i_re]) for row in run]
                    assert [row[i_phase] for row in run] == oemsim.response.unwrap_phase(principal)

    def test_delay_sweep_calls_the_kernel_twice_per_block(self, monkeypatch, slowfast_spectrum):
        # the centres with the derivative, which fixes each row's step, then the 4 points of each row
        sizes = []
        kernel = oemsim.response.amplitude_kernel

        def counting_kernel(delta, c, derivative=False):
            sizes.append(np.size(delta))
            return kernel(delta, c, derivative)

        monkeypatch.setattr(oemsim.response, "amplitude_kernel", counting_kernel)
        rows = 2001
        spec = SweepSpec("delay-vs-power", (SweepAxis("P_l", 1e-4, 1.0, rows, "log"),))
        result = run_sweep(slowfast_spectrum, spec)
        assert all(row[-1] == NO_ERROR for row in table_rows(result))
        cap = oemsim.sweep.BLOCK_ELEMENTS
        assert len(sizes) == 2 * math.ceil(5 * rows / cap)
        assert sizes[1::2] == [4 * n for n in sizes[::2]]
        assert sum(sizes) == 5 * rows and max(sizes) <= cap

    def test_delay_sweep_solves_each_block_in_one_eigvals_call(self, eigvals_sizes, slowfast_spectrum):
        rows = 2001
        spec = SweepSpec("delay-vs-power", (SweepAxis("P_l", 1e-4, 1.0, rows, "log"),))
        result = run_sweep(slowfast_spectrum, spec)
        assert all(row[-1] == NO_ERROR for row in table_rows(result))
        per_block = oemsim.sweep.BLOCK_ELEMENTS // (1 + len(oemsim.response.FD_OFFSETS))
        assert len(eigvals_sizes) <= math.ceil(rows / per_block)
        assert sum(eigvals_sizes) == rows

    def test_unstable_rows_share_a_block_with_solved_rows(self, eigvals_sizes, slowfast_spectrum):
        spec = SweepSpec(
            "phase", (SweepAxis("g_coulomb", 0.8, 1.2, 5), SweepAxis("delta_bar", -0.05, 0.05, 51))
        )
        result = run_sweep(slowfast_spectrum, spec)
        # the one block's stable operating points went to one eigvals call
        solved = sum(row[-1] == NO_ERROR for row in table_rows(result)[::51])
        assert eigvals_sizes == [solved] and 0 < solved < 5
        i_n = result.columns.index("photon_number")
        for start in range(0, 255, 51):
            block = table_rows(result)[start : start + 51]
            try:
                op = solve_steady_state(apply_override(slowfast_spectrum, "g_coulomb", block[0][0]))
            except StaticInstabilityError:
                assert {row[-1] for row in block} == {"StaticInstability"}
            else:
                assert {(row[i_n], row[-1]) for row in block} == {(op.photon_number, NO_ERROR)}

    def test_phase_grid_solves_its_operating_points_in_one_eigvals_call(self, eigvals_sizes, slowfast_spectrum):
        # 10,005 rows, longer than a kernel block, and 5 operating points: one pass solves them all once
        spec = SweepSpec(
            "phase", (SweepAxis("g_coulomb", 0.05, 0.2, 5), SweepAxis("delta_bar", -0.2, 0.2, 2001))
        )
        result = run_sweep(slowfast_spectrum, spec)
        assert (result.status == OK).all()
        assert eigvals_sizes == [5]

    def test_huge_pump_marks_only_its_rows(self, slowfast_spectrum):
        spec = SweepSpec("delay-vs-power", (SweepAxis("P_l", 1e-3, 1e300, 31, "log"),))
        result = run_sweep(slowfast_spectrum, spec)
        i_n = result.columns.index("photon_number")
        for row in table_rows(result):
            try:
                op = solve_steady_state(apply_override(slowfast_spectrum, "P_l", row[0]))
            except InvariantViolationError:
                assert row[-1] == "InvariantViolation"
            else:
                assert row[i_n] == op.photon_number and row[-1] == NO_ERROR
        assert {NO_ERROR, "InvariantViolation"} == {row[-1] for row in table_rows(result)}

    def test_finite_difference_pole_gives_the_group_delay_slug(self):
        # the pole of an undamped mirror 2 sits on delta + h of the line-centre delay only
        params = system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.1, gamma2=0.0, omega2=1.0 + 1e-6)
        spec = SweepSpec("delay-vs-power", (SweepAxis("P_l", 0.05, 0.4, 3),))
        result = run_sweep(params, spec)
        for (power, *_, slug) in table_rows(result):
            powered = apply_override(params, "P_l", power)
            op = solve_steady_state(powered)
            group_delay(1.0, powered, op, "analytic")  # the centre itself is regular
            with pytest.raises(SimulationError) as raised:
                group_delay(1.0, powered, op, "finite-difference")
            assert slug == type(raised.value).__name__.removesuffix("Error") == "MechanicalPole"

    def test_degenerate_outer_axis_keeps_phase_blocks(self, slowfast_spectrum):
        spec = SweepSpec(
            "phase", (SweepAxis("g_coulomb", 0.1, 0.1, 3), SweepAxis("delta_bar", -0.2, 0.2, 401))
        )
        result = run_sweep(slowfast_spectrum, spec)
        i_phase = result.columns.index("phase")
        starts = [table_rows(result)[i][i_phase] for i in (0, 401, 802)]
        assert starts[0] == starts[1] == starts[2]
        body = render_text(result, fmt="gnuplot", timestamp=False).splitlines()
        assert sum(1 for ln in body if ln == "") == 2

    def test_steady_state_invariant_marks_rows(self, monkeypatch):
        # a polish that misses the root by 1e-6 fails the steady-state residual check
        polish = oemsim.steady._newton_polish
        monkeypatch.setattr(
            oemsim.steady, "_newton_polish", lambda *a, **k: polish(*a, **k) * (1.0 + 1e-6)
        )
        params = dimensionless_system(
            kappa=0.227, g_coulomb=0.1, pump_amplitude=0.05, detuning_mode="explicit", detuning=1.0
        )
        with pytest.raises(InvariantViolationError, match="residual"):
            solve_steady_state(params)
        spec = SweepSpec(
            "spectrum", (SweepAxis("g_coulomb", 0.05, 0.1, 2), SweepAxis("delta_bar", -0.1, 0.1, 3))
        )
        result = run_sweep(params, spec)
        assert [row[-1] for row in table_rows(result)] == ["InvariantViolation"] * 6

    @pytest.mark.parametrize(
        "params, spec, error",
        [
            (system_for_beta(kappa=0.2, beta=1e-3, g_coulomb=0.0),  # K = 0 at g_c = 1
             SweepSpec("spectrum", (SweepAxis("g_coulomb", 0.8, 1.2, 3), SweepAxis("delta_bar", -0.05, 0.05, 2))),
             StaticInstabilityError),
            (get_preset("dimensionless-slowfast"),  # floats overflow at the largest pumps
             SweepSpec("delay-vs-power", (SweepAxis("P_l", 1e-3, 1e300, 31, "log"),)),
             InvariantViolationError),
            (system_for_beta(kappa=0.227, beta=5e-3, g_coulomb=0.1, gamma2=0.0),  # a pole at delta_bar = 0
             SweepSpec("spectrum", (SweepAxis("delta_bar", -0.1, 0.1, 5),)),
             MechanicalPoleError),
        ],
        ids=["static-instability", "overflowing-pump", "gamma2-pole"],
    )
    def test_one_point_raises_the_error_of_the_batch_code(self, params, spec, error):
        result = run_sweep(params, spec)
        failed = np.flatnonzero(result.status != OK)
        assert failed.size and {STATUS_ERRORS[code] for code in result.status[failed].tolist()} == {error}
        for row in failed.tolist():
            point, delta = params, params.mech1.omega
            for axis, value in zip(result.columns[: len(result.spec.axes)], result.values[:, row].tolist()):
                if axis == "delta_bar":
                    delta += value
                else:
                    point = apply_override(point, axis, value)
            with pytest.raises(SimulationError) as raised:
                op = solve_steady_state(point)
                if spec.scenario == "spectrum":
                    transmission(delta, point, op)
                else:
                    group_delay(delta, point, op, "finite-difference")
            assert type(raised.value) is STATUS_ERRORS[result.status[row]]


class WriteRecorder:
    """A text stream that keeps a digest of what is written and the size of each write, not the text."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.sizes = []

    def write(self, text):
        self.digest.update(text.encode())
        self.sizes.append(len(text))


class TestEmission:
    def test_csv_round_trip(self, tmp_path, slowfast_spectrum, spectrum_spec):
        result = run_sweep(slowfast_spectrum, spectrum_spec)
        path = tmp_path / "out.csv"
        emit_csv(result, path, timestamp=False)
        config_text, columns, rows = read_sweep_csv(path)
        assert columns == result.columns
        assert len(rows) == len(table_rows(result))
        for got, want in zip(rows, table_rows(result)):
            assert got == want  # 17 significant digits round-trip doubles exactly

    def test_determinism_and_timestamp_suppression(self, slowfast_spectrum, spectrum_spec):
        result1 = run_sweep(slowfast_spectrum, spectrum_spec)
        result2 = run_sweep(slowfast_spectrum, spectrum_spec)
        a = render_text(result1, timestamp=False)
        b = render_text(result2, timestamp=False)
        assert a == b
        assert "generated" not in a
        assert "generated" in render_text(result1, timestamp=True)

    @pytest.mark.parametrize(
        "scenario, axes, render_rows",
        [
            ("spectrum", (SweepAxis("g_coulomb", 0.05, 0.2, 3), SweepAxis("delta_bar", -0.1, 0.1, 4)), None),
            # no blocks in a 1-D table, even one longer than a render slice
            ("spectrum", (SweepAxis("delta_bar", -0.1, 0.1, oemsim.sweep.RENDER_ROWS + 3),), None),
            # each block spans two render slices
            ("spectrum", (SweepAxis("g_coulomb", 0.05, 0.2, 3),
                          SweepAxis("delta_bar", -0.1, 0.1, oemsim.sweep.RENDER_ROWS + 1)), None),
            # each block spans 33 slices of 64 rows, each written as soon as it is formatted
            ("phase", (SweepAxis("g_coulomb", 0.05, 0.2, 3), SweepAxis("delta_bar", -0.1, 0.1, 2049)), 64),
        ],
        ids=["2d", "1d-long", "2d-long-blocks", "phase-streamed"],
    )
    def test_gnuplot_blocks(self, monkeypatch, slowfast_spectrum, scenario, axes, render_rows):
        result = run_sweep(slowfast_spectrum, SweepSpec(scenario, axes))
        text = render_text(result, fmt="gnuplot", timestamp=False)
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        blanks = [i for i, ln in enumerate(body) if ln == ""]
        # one blank line after each outer-axis block but the last
        inner = axes[-1].points
        outer = len(table_rows(result)) // inner
        assert blanks == [(k + 1) * (inner + 1) - 1 for k in range(outer - 1)]
        assert len(body) == len(table_rows(result)) + outer - 1
        assert [ln for ln in body if ln] == [" ".join("%.17g" % v for v in row[:-1]) + " " + row[-1]
                                             for row in table_rows(result)]
        assert "," not in body[0]
        if render_rows:
            monkeypatch.setattr(oemsim.sweep, "RENDER_ROWS", render_rows)
            sink = WriteRecorder()
            tracemalloc.start()
            try:
                render_table(result, sink, fmt="gnuplot", timestamp=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sink.digest.digest() == hashlib.sha256(text.encode()).digest()
            # the header, each slice and each blank line are one write apiece
            assert len(sink.sizes) == 1 + outer * -(-inner // render_rows) + outer - 1
            assert peak < sum(sink.sizes) / 4

    @pytest.mark.parametrize(
        "config_text",
        [
            # gamma2 = 0 puts an exact pole of mirror 2 on the delta_bar = 0 rows: error slugs, NaN data
            "preset = dimensionless-slowfast\n[mech2]\ngamma = 0 dimensionless\n[sweep]\nscenario = phase\n"
            "axis1 = g_coulomb\naxis1_min = 0 dimensionless\naxis1_max = 0.1 dimensionless\naxis1_points = 3\n"
            "axis2 = delta_bar\naxis2_min = -0.1 dimensionless\naxis2_max = 0.1 dimensionless\naxis2_points = 9\n",
            "preset = paper-2012\n[sweep]\nscenario = spectrum\naxis1 = delta_bar\n"
            "axis1_min = -20 kHz\naxis1_max = 20 kHz\naxis1_points = 41\n",
        ],
        ids=["pole-rows", "paper-si"],
    )
    def test_csv_rows(self, config_text):
        result = run_sweep(*parse_config(config_text))
        body = [ln for ln in render_text(result, timestamp=False).splitlines() if not ln.startswith("#")]
        assert body[0] == ",".join(result.columns)
        assert body[1:] == [",".join("%.17g" % v for v in row[:-1]) + "," + row[-1] for row in table_rows(result)]
        failed = result.status != OK
        assert failed.any() == ("gamma = 0" in config_text)
        assert np.isnan(result.values[len(result.spec.axes) :, failed]).all()

    def test_each_status_code_renders_the_slug_of_its_error(self, slowfast_spectrum):
        spec = SweepSpec("spectrum", (SweepAxis("delta_bar", -0.1, 0.1, len(STATUS_ERRORS)),))
        result = run_sweep(slowfast_spectrum, spec)
        coded = dataclasses.replace(result, status=np.arange(len(STATUS_ERRORS), dtype=np.int8))
        body = [ln for ln in render_text(coded, timestamp=False).splitlines() if not ln.startswith("#")]
        slugs = [line.rsplit(",", 1)[1] for line in body[1:]]
        assert slugs == [NO_ERROR] + [error.__name__.removesuffix("Error") for error in STATUS_ERRORS[1:]]
        assert len(set(slugs)) == len(STATUS_ERRORS)

    @pytest.mark.parametrize("fmt", ["csv", "gnuplot"])
    def test_zero_rows_give_the_header_alone(self, slowfast_spectrum, fmt):
        spec = SweepSpec("spectrum", (SweepAxis("delta_bar", -0.1, 0.1, 4),))
        result = run_sweep(slowfast_spectrum, spec)
        empty = dataclasses.replace(result, values=result.values[:, :0], status=result.status[:0])
        text = render_text(result, fmt=fmt, timestamp=False)
        header = text[: text.index("\n", text.index("# columns:")) + 1]
        if fmt == "csv":
            header += ",".join(result.columns) + "\n"
        assert render_text(empty, fmt=fmt, timestamp=False) == header

    @pytest.mark.parametrize("params, spec", HEADER_CASES.values(), ids=HEADER_CASES)
    def test_rerun_from_header_reproduces_data(self, tmp_path, params, spec):
        result = run_sweep(params, spec)
        path = tmp_path / "out.csv"
        emit_csv(result, path, timestamp=False)
        config_text, _, _ = read_sweep_csv(path)
        params2, spec2 = parse_config(config_text)
        result2 = run_sweep(params2, spec2)
        path2 = tmp_path / "rerun.csv"
        emit_csv(result2, path2, timestamp=False)
        assert path.read_bytes() == path2.read_bytes()

    def test_unknown_format_rejected(self, slowfast_spectrum, spectrum_spec):
        result = run_sweep(slowfast_spectrum, spectrum_spec)
        with pytest.raises(ValueError):
            render_text(result, fmt="tsv")


def test_kappa_sweep_rescales_power_specified_pump():
    # with the pump given as power, Omega^2 = 2 kappa P tracks the kappa axis
    params = get_preset("dimensionless-slowfast")
    power = params.drive.pump_power
    for kappa in (0.113, 0.34):
        overridden = apply_override(params, "kappa", kappa)
        assert overridden.pump_amplitude() == pytest.approx(math.sqrt(2 * kappa * power))
    assert slowfast_pump_power(5e-3) == pytest.approx(power)

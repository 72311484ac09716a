import io
import json
import os
import subprocess
import sys

import pytest

import oemsim
from oemsim.cli import (
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _finish_validation,
    main,
)
from oemsim.config import SweepAxis, SweepSpec
from oemsim.errors import ConfigError
from oemsim.presets import get_preset
from oemsim.sweep import run_sweep
from oemsim.validate import CheckResult, ValidationReport
from table_io import read_sweep_csv

SPECTRUM_CFG = """\
preset = dimensionless-slowfast

[coupling]
g_coulomb = 0.1 dimensionless

[sweep]
scenario = spectrum
axis1 = delta_bar
axis1_min = -0.1 dimensionless
axis1_max = 0.1 dimensionless
axis1_points = 21
"""

UNSTABLE_CFG = """\
units = dimensionless

[cavity]
kappa = 0.2 dimensionless
detuning = 1 dimensionless

[mech1]
omega = 1 dimensionless
gamma = 0.01 dimensionless

[mech2]
omega = 1 dimensionless
gamma = 0.01 dimensionless

[coupling]
g_cav = 0.1 dimensionless
g_coulomb = 2 dimensionless

[drive]
pump_amplitude = 0.1 dimensionless
"""


# axes that leave their parameter's domain: (command, [sweep] section, stderr)
OUT_OF_DOMAIN_AXES = {
    "kappa": (
        "delay",
        "scenario = delay-vs-kappa\naxis1 = kappa\naxis1_min = -0.1 dimensionless\n"
        "axis1_max = 0.3 dimensionless\naxis1_points = 5\n",
        "line 5: axis kappa: cavity decay rate must be positive, got -0.1",
    ),
    "g_coulomb": (
        "sweep",
        "scenario = splitting-vs-gc\naxis1 = g_coulomb\naxis1_min = -0.1 dimensionless\n"
        "axis1_max = 0.1 dimensionless\naxis1_points = 5\n",
        "line 5: axis g_coulomb: g_coulomb must be nonnegative, got -0.1",
    ),
    "P_l": (
        "delay",
        "scenario = delay-vs-power\naxis1 = P_l\naxis1_min = -1 dimensionless\n"
        "axis1_max = 1 dimensionless\naxis1_points = 5\n",
        "line 5: axis P_l: pump_power must be nonnegative, got -1.0",
    ),
}
# the same axes as a SweepSpec built in Python, which no config line checks: (scenario, lo, hi)
OUT_OF_DOMAIN_SPECS = {
    "kappa": ("delay-vs-kappa", -0.1, 0.3),
    "g_coulomb": ("splitting-vs-gc", -0.1, 0.1),
    "P_l": ("delay-vs-power", -1.0, 1.0),
}


def _python_env():
    """The environment with the package under test first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oemsim.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_python(*args):
    """Run the interpreter on the package under test; the completed process."""
    return subprocess.run([sys.executable, *args], env=_python_env(), capture_output=True, text=True)


class ShortWrites(io.RawIOBase):
    """A raw byte sink that takes at most ``limit`` bytes per write, as a pipe may, and says so."""

    def __init__(self, limit: int):
        self.limit, self.taken = limit, bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        taken = min(self.limit, len(data))
        self.taken += bytes(data[:taken])
        return taken


@pytest.fixture
def spectrum_config(tmp_path):
    path = tmp_path / "spectrum.cfg"
    path.write_text(SPECTRUM_CFG)
    return path


class TestSpectrumCommand:
    def test_writes_table(self, tmp_path, spectrum_config):
        out = tmp_path / "out.csv"
        code = main(["spectrum", "--config", str(spectrum_config), "--out", str(out),
                     "--no-timestamp"])
        assert code == EXIT_OK
        _, columns, rows = read_sweep_csv(out)
        assert len(rows) == 21
        assert "transmission" in columns

    def test_stdout_when_no_out(self, spectrum_config, capsys):
        code = main(["spectrum", "--config", str(spectrum_config), "--no-timestamp"])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert captured.startswith("# oemsim")
        assert "generated" not in captured

    def test_convention_override(self, tmp_path, spectrum_config):
        out = tmp_path / "intra.csv"
        code = main(["spectrum", "--config", str(spectrum_config), "--out", str(out),
                     "--convention", "intracavity", "--no-timestamp"])
        assert code == EXIT_OK
        assert "convention = intracavity" in out.read_text()

    def test_jobs_equivalence(self, tmp_path, spectrum_config):
        out1 = tmp_path / "serial.csv"
        out8 = tmp_path / "parallel.csv"
        assert main(["sweep", "--config", str(spectrum_config), "--out", str(out1),
                     "--jobs", "1", "--no-timestamp"]) == EXIT_OK
        assert main(["sweep", "--config", str(spectrum_config), "--out", str(out8),
                     "--jobs", "8", "--no-timestamp"]) == EXIT_OK
        assert out1.read_bytes() == out8.read_bytes()


class TestErrorPaths:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["phase", "steady-state"])
    def test_closed_stdout_pipe_exits_1(self, tmp_path, command, unbuffered):
        # the phase table is about 1.2 MB in three render slices, far more than a 64 KiB pipe
        # holds, and is cut after a few bytes; the few lines of steady-state find the pipe closed
        config = tmp_path / "phase.cfg"
        config.write_text(SPECTRUM_CFG.replace("scenario = spectrum", "scenario = phase")
                          .replace("axis1_points = 21", "axis1_points = 5000"))
        env = _python_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:  # stdout is then a raw file, whose short writes TextIOWrapper does not retry
            env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "oemsim.cli", command, "--config", str(config)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        if command == "phase":
            assert process.stdout.read(8) == "# oemsim"
        process.stdout.close()
        stderr = process.stderr.read()
        assert process.wait(timeout=60) == EXIT_USAGE
        # one message, and no "Exception ignored" from a second failing flush at exit
        assert stderr.splitlines() == ["oemsim: i/o error: [Errno 32] Broken pipe"]

    @pytest.mark.parametrize("command", ["phase", "steady-state"])
    def test_short_raw_writes_are_completed(self, tmp_path, monkeypatch, command):
        # stdout on a raw layer (PYTHONUNBUFFERED=1) whose write takes at most 97 bytes
        config = tmp_path / "phase.cfg"
        config.write_text(SPECTRUM_CFG.replace("scenario = spectrum", "scenario = phase")
                          .replace("axis1_points = 21", "axis1_points = 500"))
        argv = [command, "--config", str(config)] + (["--no-timestamp"] if command == "phase" else [])
        assert main(argv + ["--out", str(tmp_path / "table.txt")]) == EXIT_OK
        raw = ShortWrites(limit=97)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        assert main(argv) == EXIT_OK
        assert len(raw.taken) > raw.limit
        assert bytes(raw.taken) == (tmp_path / "table.txt").read_bytes()

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
    def test_validate_output_survives_short_raw_writes(self, tmp_path, monkeypatch, out):
        # the summary line of the long check alone is 268 bytes, so each line takes several writes
        report = ValidationReport(seed=1, checks=(CheckResult("c" * 60, True, "d" * 200),
                                                  CheckResult("short", True, "ok")))
        monkeypatch.setattr("oemsim.cli.run_validation", lambda seed: report)
        raw = ShortWrites(limit=97)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        path = tmp_path / "report.json"
        assert main(["validate"] + (["--out", str(path)] if out else [])) == EXIT_OK
        summary = "".join(f"{line}\n" for line in report.summary_lines())
        if out:
            assert bytes(raw.taken) == summary.encode()
            assert path.read_text(encoding="utf-8") == report.to_json()
        else:
            assert bytes(raw.taken) == (summary + report.to_json()).encode()

    def test_raw_write_taking_nothing_exits_1(self, monkeypatch, capsys, spectrum_config):
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(ShortWrites(limit=0), encoding="utf-8",
                                                            write_through=True))
        assert main(["spectrum", "--config", str(spectrum_config)]) == EXIT_USAGE
        assert capsys.readouterr().err == "oemsim: i/o error: stdout took no bytes\n"

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("preset = paper-2012\n[mech1]\nmass = 145\n")
        assert main(["spectrum", "--config", str(bad)]) == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exits_1(self):
        assert main(["spectrum", "--config", "/nonexistent.cfg"]) == EXIT_USAGE

    def test_usage_error_exits_1(self, capsys):
        assert main(["spectrum"]) == EXIT_USAGE

    def test_physics_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text(UNSTABLE_CFG)
        assert main(["steady-state", "--config", str(cfg)]) == EXIT_PHYSICS
        assert "stiffness" in capsys.readouterr().err

    def test_delay_requires_axis(self, tmp_path, capsys):
        cfg = tmp_path / "noaxis.cfg"
        cfg.write_text("preset = dimensionless-slowfast\n")
        assert main(["delay", "--config", str(cfg)]) == EXIT_USAGE

    def test_delay_with_an_axis_it_cannot_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "gc-axis.cfg"
        cfg.write_text(
            "preset = dimensionless-slowfast\n[sweep]\nscenario = delay-vs-kappa\naxis1 = g_coulomb\n"
            "axis1_min = 0 dimensionless\naxis1_max = 0.2 dimensionless\naxis1_points = 3\n"
        )
        assert main(["delay", "--config", str(cfg)]) == EXIT_USAGE
        assert "delay needs a [sweep] axis: P_l, Omega_l or kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["steady-state", "spectrum"])
    def test_si_cavity_without_a_length_exits_1(self, tmp_path, capsys, command):
        # no g_cav, so the default omega_c / L needs the length the config leaves out
        cfg = tmp_path / "si.cfg"
        cfg.write_text(
            "units = SI\n[cavity]\nkappa = 215 kHz\ndetuning_mode = locked\nwavelength = 1064 nm\n"
            "[mech1]\nmass = 145 ng\nomega = 947 kHz\nquality = 6700 dimensionless\n"
            "[mech2]\nmass = 145 ng\nomega = 947 kHz\nquality = 6700 dimensionless\n"
            "[drive]\npower = 6 uW\n"
        )
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "oemsim: config error: default g_cav needs a cavity length (SI mode)\n"
        assert captured.out == ""

    def test_validate_is_not_a_sweep_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "validate.cfg"
        cfg.write_text("preset = dimensionless-slowfast\n[sweep]\nscenario = validate\n")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "line 3: scenario must be one of" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("axis", sorted(OUT_OF_DOMAIN_AXES))
    def test_axis_out_of_domain_exits_1(self, tmp_path, capsys, axis, jobs):
        command, section, message = OUT_OF_DOMAIN_AXES[axis]
        cfg = tmp_path / "axis.cfg"
        cfg.write_text("preset = dimensionless-slowfast\n[sweep]\n" + section)
        table = tmp_path / "table.csv"
        argv = [command, "--config", str(cfg), "--jobs", jobs, "--out", str(table)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"oemsim: config error: {message}\n"
        assert captured.out == ""
        assert not table.exists()

    @pytest.mark.parametrize("axis", sorted(OUT_OF_DOMAIN_AXES))
    def test_axis_out_of_domain_from_python_is_a_config_error(self, axis):
        # the message of the config path without its line number, whichever bound is outside
        scenario, lo, hi = OUT_OF_DOMAIN_SPECS[axis]
        message = OUT_OF_DOMAIN_AXES[axis][2].removeprefix("line 5: ")
        for bounds in ((lo, hi), (hi, lo)):
            spec = SweepSpec(scenario, (SweepAxis(axis, *bounds, 5),))
            with pytest.raises(ConfigError) as info:
                run_sweep(get_preset("dimensionless-slowfast"), spec)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--seed", "-1"],
            ["validate", "--jobs", "0"],
            ["spectrum", "--config", "unused.cfg", "--jobs", "0"],
            ["sweep", "--config", "unused.cfg", "--jobs", "-2"],
        ],
    )
    def test_out_of_range_integer_option_exits_1(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "expected an integer >=" in captured.err
        assert captured.out == ""


class TestSteadyState:
    def test_prints_operating_point(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("preset = dimensionless-slowfast\n")
        assert main(["steady-state", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "photon_number = 1" in out
        assert "branch_count = 1" in out

    def test_huge_pump_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("preset = dimensionless-slowfast\n[drive]\npower = 1e300 dimensionless\n")
        assert main(["steady-state", "--config", str(cfg)]) == EXIT_PHYSICS
        captured = capsys.readouterr()
        assert "steady state leaves the float range" in captured.err
        assert captured.out == ""


class TestValidation:
    def test_failing_report_maps_to_exit_3(self, tmp_path, capsys):
        report = ValidationReport(
            seed=1,
            checks=(CheckResult("demo", False, "forced failure"),),
        )
        out = tmp_path / "report.json"
        assert _finish_validation(report, str(out)) == EXIT_VALIDATION
        assert json.loads(out.read_text())["passed"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_passing_report_maps_to_exit_0(self, capsys):
        report = ValidationReport(seed=1, checks=(CheckResult("demo", True, "ok"),))
        assert _finish_validation(report, None) == EXIT_OK


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "oemsim" in capsys.readouterr().out


def test_package_import_does_not_load_scipy():
    # the package needs numpy only: neither importing it nor running the
    # time-domain oracle (`oemsim validate`) loads scipy
    code = (
        "import sys, oemsim, oemsim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    code = (
        "import contextlib, io, sys, oemsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = oemsim.cli.main(['validate', '--seed', '1'])\n"
        "print(status, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"{EXIT_OK} []"


def test_serial_table_does_not_load_the_process_pool(tmp_path):
    # only a run with several chunks (--jobs > 1) imports the process pool
    config = tmp_path / "phase.cfg"
    config.write_text(SPECTRUM_CFG.replace("spectrum", "phase"), encoding="utf-8")
    code = (
        "import contextlib, io, sys, oemsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = oemsim.cli.main(['phase', '--config', {str(config)!r}, '--jobs', '1', '--no-timestamp'])\n"
        "print(status, 'concurrent.futures.process' in sys.modules)"
    )
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"{EXIT_OK} False"


def test_every_exported_name_resolves():
    assert [name for name in oemsim.__all__ if not hasattr(oemsim, name)] == []


def test_delay_rows_of_a_nonperturbative_probe_do_not_warn(tmp_path):
    # P_l from 1e-130 makes the fixed probe far larger than the pump; the table
    # is per unit probe, so the run must leave stderr empty (no line per row)
    cfg = tmp_path / "underflow.cfg"
    cfg.write_text(
        "preset = dimensionless-slowfast\n[sweep]\nscenario = delay-vs-power\naxis1 = P_l\n"
        "axis1_min = 1e-130 dimensionless\naxis1_max = 1e-90 dimensionless\n"
        "axis1_points = 41\naxis1_spacing = log\n"
    )
    table = tmp_path / "table.csv"
    result = _run_python("-m", "oemsim.cli", "delay", "--config", str(cfg), "--out", str(table))
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stderr == ""
    assert len(read_sweep_csv(table)[2]) == 41

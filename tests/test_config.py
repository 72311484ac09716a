import math

import pytest

from oemsim.config import _SECTION_KEYS, SweepAxis, SweepSpec, parse_config, serialize_config
from oemsim.errors import ConfigError
from oemsim.params import (
    CavityParams,
    CouplingParams,
    DriveParams,
    MechanicalMode,
    SystemParams,
    default_g_cav,
)
from oemsim.presets import SLOWFAST_BETA_SPECTRUM, get_preset, slowfast_pump_power
from table_io import sweep_section

TWO_PI = 2 * math.pi


class TestPresets:
    def test_paper_2012_values(self):
        params, sweep = parse_config("preset = paper-2012\n")
        assert sweep is None
        assert params.unit_mode == "SI"
        assert params.mech1.omega == pytest.approx(TWO_PI * 947e3)
        assert params.mech2.omega == params.mech1.omega
        assert params.cavity.kappa == pytest.approx(TWO_PI * 215e3)
        assert params.mech1.mass == pytest.approx(145e-12)
        assert params.cavity.length == pytest.approx(25e-3)
        assert params.cavity.pump_wavelength == pytest.approx(1064e-9)
        assert params.mech1.omega / params.mech1.gamma == pytest.approx(6700.0)
        assert params.drive.pump_power == pytest.approx(6e-6)
        assert params.coupling.g_coulomb == pytest.approx(TWO_PI * 8e6)
        assert params.cavity.detuning_mode == "locked"

    def test_slowfast_preset_beta(self):
        params = get_preset("dimensionless-slowfast")
        from oemsim.steady import solve_steady_state

        op = solve_steady_state(params)
        beta = params.coupling.g_cav**2 * op.photon_number / 2.0
        assert beta == pytest.approx(SLOWFAST_BETA_SPECTRUM, rel=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("preset = mystery-2020\n")

    def test_presets_equal_their_formulas(self):
        omega = 2.0 * math.pi * 947e3
        cavity = CavityParams(
            kappa=2.0 * math.pi * 215e3,
            detuning_mode="locked",
            length=25e-3,
            pump_wavelength=1064e-9,
        )
        mech = MechanicalMode(mass=145e-12, omega=omega, gamma=omega / 6700.0)
        paper = SystemParams(
            cavity=cavity,
            mech1=mech,
            mech2=mech,
            coupling=CouplingParams(
                g_cav=default_g_cav(cavity, omega), g_coulomb=2.0 * math.pi * 8e6
            ),
            drive=DriveParams(pump_power=6e-6, probe_power=6e-12),
            unit_mode="SI",
        )
        power = slowfast_pump_power(5e-3)
        mech = MechanicalMode(mass=1.0, omega=1.0, gamma=1.0 / 6700.0)
        slowfast = SystemParams(
            cavity=CavityParams(kappa=0.227, detuning_mode="locked"),
            mech1=mech,
            mech2=mech,
            coupling=CouplingParams(g_cav=0.1),
            drive=DriveParams(
                pump_power=power, probe_amplitude=1e-3 * math.sqrt(2.0 * 0.227 * power)
            ),
            unit_mode="dimensionless",
        )
        for name, expected in (("paper-2012", paper), ("dimensionless-slowfast", slowfast)):
            params = get_preset(name)
            for part in ("cavity", "mech1", "mech2", "coupling", "drive", "unit_mode"):
                assert getattr(params, part) == getattr(expected, part), (name, part)


class TestUnits:
    def test_khz_converted_by_two_pi(self):
        text = "preset = paper-2012\n[cavity]\nkappa = 215 kHz\n"
        params, _ = parse_config(text)
        assert params.cavity.kappa == pytest.approx(TWO_PI * 215e3)

    def test_rad_s_stored_as_is(self):
        text = "preset = paper-2012\n[cavity]\nkappa = 1.23e6 rad_s\n"
        params, _ = parse_config(text)
        assert params.cavity.kappa == 1.23e6

    def test_missing_unit_suffix_names_the_line(self):
        text = "preset = paper-2012\n[mech1]\nmass = 145\n"
        with pytest.raises(ConfigError, match="line 3") as err:
            parse_config(text)
        assert "unit suffix" in str(err.value)
        assert err.value.line == 3

    def test_si_suffix_rejected_in_dimensionless_mode(self):
        text = "preset = dimensionless-slowfast\n[cavity]\nkappa = 215 kHz\n"
        with pytest.raises(ConfigError, match="not valid"):
            parse_config(text)

    def test_unknown_key_is_hard_error(self):
        text = "preset = paper-2012\n[cavity]\nfinesse = 1000 dimensionless\n"
        with pytest.raises(ConfigError, match="unknown key 'finesse'"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[laser]\npower = 1 W\n")

    @pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "line",
        [
            "[mech1]\ngamma = {} dimensionless",
            "[mech2]\nquality = {} dimensionless",
            "[cavity]\nkappa = {} dimensionless",
            "[cavity]\ndetuning = {} dimensionless",
            "[coupling]\ng_coulomb = {} dimensionless",
            "[sweep]\nscenario = spectrum\naxis1 = delta_bar\naxis1_min = {} dimensionless",
        ],
        ids=["gamma", "quality", "kappa", "detuning", "g_coulomb", "axis1_min"],
    )
    def test_non_finite_number_names_the_line(self, number, line):
        text = "preset = dimensionless-slowfast\n" + line.format(number) + "\n"
        with pytest.raises(ConfigError, match="not a finite number") as err:
            parse_config(text)
        assert err.value.line == text.count("\n")


class TestOverridesAndResolution:
    def test_overrides_apply_in_file_order(self):
        text = (
            "preset = dimensionless-slowfast\n"
            "[coupling]\n"
            "g_coulomb = 0.1 dimensionless\n"
            "g_coulomb = 0.2 dimensionless\n"
        )
        params, _ = parse_config(text)
        assert params.coupling.g_coulomb == 0.2

    def test_quality_and_gamma_last_one_wins(self):
        base = "units = dimensionless\n[cavity]\nkappa = 0.2 dimensionless\ndetuning_mode = locked\n"
        base += "[coupling]\ng_cav = 0.1 dimensionless\n[drive]\npump_amplitude = 0 dimensionless\n"
        base += "[mech2]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n"
        text = base + "[mech1]\nomega = 1 dimensionless\ngamma = 0.5 dimensionless\nquality = 100 dimensionless\n"
        params, _ = parse_config(text)
        assert params.mech1.gamma == pytest.approx(1.0 / 100.0)
        text = base + "[mech1]\nomega = 1 dimensionless\nquality = 100 dimensionless\ngamma = 0.5 dimensionless\n"
        params, _ = parse_config(text)
        assert params.mech1.gamma == 0.5

    @pytest.mark.parametrize(
        "first, first_field, second, second_field, value",
        [
            ("probe_amplitude", "probe_amplitude", "probe_power", "probe_power", 1e-8),
            ("pump_amplitude", "pump_amplitude", "power", "pump_power", 0.3),
            ("power", "pump_power", "pump_amplitude", "pump_amplitude", 0.05),
        ],
        ids=("probe", "pump", "pump-reversed"),
    )
    def test_probe_pair_exclusivity_by_order(self, first, first_field, second, second_field, value):
        text = (
            "preset = dimensionless-slowfast\n"
            "[drive]\n"
            f"{first} = 1e-4 dimensionless\n"
            f"{second} = {value!r} dimensionless\n"
        )
        params, _ = parse_config(text)
        assert getattr(params.drive, first_field) is None
        assert getattr(params.drive, second_field) == value

    def test_detuning_after_locked_mode_is_explicit(self):
        text = (
            "preset = dimensionless-slowfast\n"
            "[cavity]\n"
            "detuning_mode = locked\n"
            "detuning = 1.1 dimensionless\n"
        )
        params, _ = parse_config(text)
        assert params.cavity.detuning_mode == "explicit"
        assert params.cavity.detuning == 1.1

    def test_missing_required_parameter(self):
        text = (
            "units = dimensionless\n"
            "[mech1]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n"
            "[mech2]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n"
        )
        with pytest.raises(ConfigError, match="cavity.kappa"):
            parse_config(text)

    def test_invariant_violation_reported(self):
        text = "preset = dimensionless-slowfast\n[mech1]\nomega = 2 dimensionless\n"
        with pytest.raises(ConfigError, match="omega == 1"):
            parse_config(text)


class TestSweepSection:
    BASE = "preset = dimensionless-slowfast\n"

    def test_full_sweep_parse(self):
        text = self.BASE + (
            "[sweep]\n"
            "scenario = spectrum\n"
            "convention = intracavity\n"
            "axis1 = g_coulomb\n"
            "axis1_min = 0.05 dimensionless\n"
            "axis1_max = 0.2 dimensionless\n"
            "axis1_points = 4\n"
            "axis2 = delta_bar\n"
            "axis2_min = -0.2 dimensionless\n"
            "axis2_max = 0.2 dimensionless\n"
            "axis2_points = 101\n"
            "axis2_spacing = linear\n"
        )
        _, sweep = parse_config(text)
        assert sweep.scenario == "spectrum"
        assert sweep.convention == "intracavity"
        assert [a.name for a in sweep.axes] == ["g_coulomb", "delta_bar"]
        assert sweep.axes[0].points == 4
        assert sweep.axes[1].lo == -0.2

    def test_validate_is_not_a_scenario(self):
        with pytest.raises(ConfigError, match="line 3: scenario must be one of") as err:
            parse_config(self.BASE + "[sweep]\nscenario = validate\n")
        assert err.value.line == 3
        assert "got 'validate'" in str(err.value)

    def test_axis_names_must_differ(self):
        text = self.BASE + (
            "[sweep]\nscenario = spectrum\n"
            "axis1 = delta_bar\naxis1_min = -0.1 dimensionless\n"
            "axis1_max = 0.1 dimensionless\naxis1_points = 5\n"
            "axis2 = delta_bar\naxis2_min = -0.1 dimensionless\n"
            "axis2_max = 0.1 dimensionless\naxis2_points = 5\n"
        )
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(text)

    def test_log_spacing_needs_positive_bounds(self):
        text = self.BASE + (
            "[sweep]\nscenario = delay-vs-power\n"
            "axis1 = P_l\naxis1_min = 0 dimensionless\n"
            "axis1_max = 1 dimensionless\naxis1_points = 5\naxis1_spacing = log\n"
        )
        with pytest.raises(ConfigError, match="log spacing"):
            parse_config(text)

    def test_points_minimum(self):
        text = self.BASE + (
            "[sweep]\nscenario = spectrum\n"
            "axis1 = delta_bar\naxis1_min = -0.1 dimensionless\n"
            "axis1_max = 0.1 dimensionless\naxis1_points = 1\n"
        )
        with pytest.raises(ConfigError, match="points"):
            parse_config(text)

    def test_bound_that_overflows_its_unit_is_not_finite(self):
        # each number is finite, but 1e308 MHz is not once scaled to rad_s
        text = "preset = paper-2012\n" + (
            "[sweep]\nscenario = spectrum\n"
            "axis1 = delta_bar\naxis1_min = -10 kHz\naxis1_max = 1e308 MHz\naxis1_points = 3\n"
        )
        with pytest.raises(ConfigError, match="^line 6: not finite in SI units: '1e308 MHz'$"):
            parse_config(text)

    def test_axis_values_use_axis_units(self):
        text = "preset = paper-2012\n" + (
            "[sweep]\nscenario = delay-vs-power\n"
            "axis1 = P_l\naxis1_min = 1 uW\naxis1_max = 10 uW\naxis1_points = 4\n"
        )
        _, sweep = parse_config(text)
        assert sweep.axes[0].lo == pytest.approx(1e-6)
        assert sweep.axes[0].hi == pytest.approx(1e-5)


# (params, sweep) inputs of the round trips: presets with each pump and probe key, both
# detuning modes, quality in place of gamma, and every axis name with both spacings
DIMENSIONLESS_CASES = {
    "preset": (
        get_preset("dimensionless-slowfast"),
        SweepSpec(
            scenario="spectrum",
            axes=(SweepAxis("delta_bar", -0.2, 0.2, 401), SweepAxis("g_coulomb", 0.05, 0.2, 4)),
            convention="paper-corrected",
        ),
    ),
    **{
        name: parse_config("preset = dimensionless-slowfast\n" + text)
        for name, text in {
            "pump-amplitude-probe-power": "[drive]\npump_amplitude = 0.05 dimensionless\n"
                                          "probe_power = 1e-8 dimensionless\n",
            "explicit-quality-mass": "[cavity]\ndetuning = 0.9 dimensionless\n[mech1]\n"
                                     "quality = 100 dimensionless\n[mech2]\nmass = 2 dimensionless\n",
            "delta-linear-power-log": sweep_section(
                "phase", ("delta_bar", -0.2, 0.2, 5, "linear"), ("P_l", 1e-4, 1, 3, "log")),
            "power-linear-delta-log": sweep_section(
                "spectrum", ("P_l", 0.1, 0.4, 3, "linear"), ("delta_bar", 0.01, 0.2, 5, "log"),
                convention="intracavity"),
            "amplitude-log-gc-linear": sweep_section(
                "spectrum", ("Omega_l", 1e-3, 0.5, 3, "log"), ("g_coulomb", 0, 0.2, 3, "linear")),
            "gc-log-amplitude-linear": sweep_section(
                "spectrum", ("g_coulomb", 0.01, 0.2, 3, "log"), ("Omega_l", 0.01, 0.05, 3, "linear")),
            "kappa-linear-gcav-log": sweep_section(
                "spectrum", ("kappa", 0.1, 0.3, 3, "linear"), ("g_cav", 0.01, 0.1, 3, "log")),
            "gcav-linear-kappa-log": sweep_section(
                "spectrum", ("g_cav", 0.05, 0.1, 3, "linear"), ("kappa", 0.1, 0.3, 3, "log")),
        }.items()
    },
}
SI_CASES = {
    "preset": (get_preset("paper-2012"), None),
    **{
        name: parse_config("preset = paper-2012\n" + text)
        for name, text in {
            "explicit-amplitudes-g-cav": "[cavity]\ndetuning = 950 kHz\n[mech2]\ngamma = 200 rad_s\n"
                                         "[coupling]\ng_cav = 1e17 rad_s\n[drive]\n"
                                         "pump_amplitude = 1e5 rad_s\nprobe_amplitude = 10 rad_s\n",
            "power-log-delta-linear": sweep_section(
                "delay-vs-power", ("P_l", "1 uW", "10 uW", 7, "log"),
                ("delta_bar", "-20 kHz", "20 kHz", 41, "linear")),
            "gc-linear-kappa-log": sweep_section(
                "spectrum", ("g_coulomb", "0 MHz", "16 MHz", 3, "linear"),
                ("kappa", "100 kHz", "300 kHz", 3, "log")),
            "amplitude-linear-gcav-linear": sweep_section(
                "spectrum", ("Omega_l", "1e3 rad_s", "1e5 rad_s", 3, "linear"),
                ("g_cav", "1e16 rad_s", "1e17 rad_s", 3, "linear")),
        }.items()
    },
}


class TestSerialization:
    @pytest.mark.parametrize("params, sweep", DIMENSIONLESS_CASES.values(), ids=DIMENSIONLESS_CASES)
    def test_round_trip_dimensionless(self, params, sweep):
        text = serialize_config(params, sweep)
        params2, sweep2 = parse_config(text)
        assert params2 == params
        assert sweep2 == sweep
        assert serialize_config(params2, sweep2) == text

    @pytest.mark.parametrize("params, sweep", SI_CASES.values(), ids=SI_CASES)
    def test_round_trip_si(self, params, sweep):
        text = serialize_config(params, sweep)
        params2, sweep2 = parse_config(text)
        assert params2 == params
        assert sweep2 == sweep
        assert serialize_config(params2, sweep2) == text

    def test_every_key_is_written_for_some_input(self):
        written = set()
        for params, sweep in (*DIMENSIONLESS_CASES.values(), *SI_CASES.values()):
            section = ""
            for line in serialize_config(params, sweep).splitlines():
                if line.startswith("["):
                    section = line[1:-1]
                else:
                    written.add((section, line.split(" = ")[0]))
        input_only = {"preset", "quality"}
        assert written == {(section, key) for section, keys in _SECTION_KEYS.items()
                           for key in keys if key not in input_only}

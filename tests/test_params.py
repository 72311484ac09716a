import dataclasses
import math
import warnings

import pytest

from oemsim.errors import StaticInstabilityError
from oemsim.params import (
    HBAR,
    C_LIGHT,
    CavityParams,
    CouplingParams,
    DriveParams,
    MechanicalMode,
    SystemParams,
)
from oemsim.validate import dimensionless_system

PAPER_OMEGA = 2 * math.pi * 947e3
PAPER_MECH = MechanicalMode(mass=145e-12, omega=PAPER_OMEGA, gamma=PAPER_OMEGA / 6700)


def si_system(cavity=None, drive=DriveParams(pump_power=0.0), mech=PAPER_MECH, g_coulomb=0.0):
    """An SI parameter set; the cavity defaults to the paper-2012 geometry."""
    if cavity is None:
        cavity = CavityParams(kappa=2 * math.pi * 215e3, length=25e-3, pump_wavelength=1064e-9)
    return SystemParams(
        cavity=cavity, mech1=mech, mech2=mech,
        coupling=CouplingParams(g_cav=7.08e16, g_coulomb=g_coulomb), drive=drive,
    )


class TestPumpAmplitude:
    def test_zero_power_gives_zero_amplitude(self):
        assert si_system(drive=DriveParams(pump_power=0.0)).pump_amplitude() == 0.0

    def test_reference_power_conversion(self):
        # independent evaluation of sqrt(2 kappa P / (hbar omega_l))
        kappa = 2 * math.pi * 215e3
        power = 6e-6
        omega_l = 2 * math.pi * C_LIGHT / 1064e-9
        expected = math.sqrt(2 * kappa * power / (HBAR * omega_l))
        cavity = CavityParams(kappa=kappa, length=25e-3, pump_wavelength=1064e-9)
        got = si_system(cavity, DriveParams(pump_power=power)).pump_amplitude()
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(9.318e9, rel=1e-3)

    def test_doubled_kappa_halved_power_is_invariant(self):
        cavity1 = CavityParams(kappa=1e6, length=25e-3, pump_wavelength=1064e-9)
        cavity2 = CavityParams(kappa=2e6, length=25e-3, pump_wavelength=1064e-9)
        a1 = si_system(cavity1, DriveParams(pump_power=4e-6)).pump_amplitude()
        a2 = si_system(cavity2, DriveParams(pump_power=2e-6)).pump_amplitude()
        assert a1 == a2

    def test_amplitude_passthrough(self):
        assert dimensionless_system(kappa=0.3, pump_amplitude=0.7).pump_amplitude() == 0.7

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            DriveParams(pump_power=-1.0)


class TestProbeAmplitude:
    def test_si_probe_power_is_taken_at_the_probe_frequency(self):
        # eps_p = sqrt(2 kappa P_p / (hbar omega_p)), omega_p = omega_l + delta
        kappa, power, delta = 2 * math.pi * 215e3, 1e-9, PAPER_OMEGA
        cavity = CavityParams(kappa=kappa, length=25e-3, pump_wavelength=1064e-9)
        params = si_system(cavity, DriveParams(pump_power=6e-6, probe_power=power))
        omega_p = 2 * math.pi * C_LIGHT / 1064e-9 + delta
        assert params.probe_amplitude(delta) == pytest.approx(
            math.sqrt(2 * kappa * power / (HBAR * omega_p)), rel=1e-14
        )
        assert params.probe_amplitude(delta) < params.probe_amplitude(0.0)

    def test_dimensionless_probe_power_has_no_frequency_shift(self):
        drive = DriveParams(pump_amplitude=0.5, probe_power=2e-6)
        params = dataclasses.replace(dimensionless_system(kappa=0.3), drive=drive)
        assert params.probe_amplitude(0.7) == params.probe_amplitude(0.0) == math.sqrt(2 * 0.3 * 2e-6)


class TestEffectiveStiffness:
    def test_decoupled_is_bare_stiffness(self):
        mech = MechanicalMode(mass=2.0, omega=3.0, gamma=0.0)
        assert si_system(mech=mech).stiffness() == 2.0 * 9.0

    def test_stability_boundary_raises(self):
        with pytest.raises(StaticInstabilityError):
            dimensionless_system(kappa=0.2, gamma1=0.0, gamma2=0.0, g_coulomb=1.0).stiffness()

    def test_si_coulomb_correction_is_negligible(self):
        # at the SI working point the Coulomb term is ~60 orders below m w^2
        g_coulomb = 2 * math.pi * 8e6
        k = si_system(g_coulomb=g_coulomb).stiffness()
        bare = 145e-12 * PAPER_OMEGA**2
        correction = (HBAR * g_coulomb) ** 2 / (145e-12 * PAPER_OMEGA**2)
        assert correction / bare < 1e-30
        assert k == pytest.approx(bare, rel=1e-30)


class TestInvariants:
    def test_mechanical_mode_validation(self):
        with pytest.raises(ValueError):
            MechanicalMode(mass=0.0, omega=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            MechanicalMode(mass=1.0, omega=-1.0, gamma=0.0)
        with pytest.raises(ValueError):
            MechanicalMode(mass=1.0, omega=1.0, gamma=-0.1)

    @pytest.mark.parametrize("cls, fields", [
        (MechanicalMode, {"mass": 1.0, "omega": 1.0, "gamma": math.nan}),
        (CouplingParams, {"g_cav": math.nan}),
        (CouplingParams, {"g_cav": 0.1, "g_coulomb": math.nan}),
        (DriveParams, {"pump_power": math.nan}),
        (DriveParams, {"pump_amplitude": math.nan}),
        (DriveParams, {"pump_amplitude": 0.1, "probe_power": math.nan}),
        (DriveParams, {"pump_amplitude": 0.1, "probe_amplitude": math.nan}),
    ], ids=["gamma", "g_cav", "g_coulomb", "pump_power", "pump_amplitude", "probe_power", "probe_amplitude"])
    def test_nan_rejected_where_negative_is(self, cls, fields):
        # NaN passes no comparison, so `x < 0` lets it through where `not x >= 0` does not
        with pytest.raises(ValueError, match="nan"):
            cls(**fields)

    @pytest.mark.parametrize("cls, fields", [
        (MechanicalMode, {"mass": math.inf, "omega": 1.0, "gamma": 0.0}),
        (MechanicalMode, {"mass": 1.0, "omega": math.inf, "gamma": 0.0}),
        (MechanicalMode, {"mass": 1.0, "omega": 1.0, "gamma": math.inf}),
        (CavityParams, {"kappa": math.inf}),
        (CavityParams, {"kappa": 0.2, "detuning": math.inf}),
        (CavityParams, {"kappa": 0.2, "detuning": -math.inf}),
        (CavityParams, {"kappa": 0.2, "detuning": math.nan}),
        (CavityParams, {"kappa": 0.2, "length": math.inf}),
        (CavityParams, {"kappa": 0.2, "pump_wavelength": math.inf}),
        (CouplingParams, {"g_cav": math.inf}),
        (CouplingParams, {"g_cav": 0.1, "g_coulomb": math.inf}),
        (DriveParams, {"pump_power": math.inf}),
        (DriveParams, {"pump_amplitude": math.inf}),
        (DriveParams, {"pump_amplitude": 0.1, "probe_power": math.inf}),
        (DriveParams, {"pump_amplitude": 0.1, "probe_amplitude": math.inf}),
    ], ids=["mass", "omega", "gamma", "kappa", "detuning", "detuning-negative", "detuning-nan", "length",
            "pump_wavelength", "g_cav", "g_coulomb", "pump_power", "pump_amplitude", "probe_power",
            "probe_amplitude"])
    def test_non_finite_rejected_naming_the_field(self, cls, fields):
        name, value = next((name, v) for name, v in fields.items() if not math.isfinite(v))
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be finite, got {value}$"):
            cls(**fields)

    def test_a_field_rule_keeps_its_message_for_negative_infinity(self):
        with pytest.raises(ValueError, match="mechanical mass must be positive, got -inf"):
            MechanicalMode(mass=-math.inf, omega=1.0, gamma=0.0)
        with pytest.raises(ValueError, match="g_cav must be nonnegative, got -inf"):
            CouplingParams(g_cav=-math.inf)

    def test_dimensionless_requires_unit_mech1_frequency(self):
        with pytest.raises(ValueError, match="omega == 1"):
            SystemParams(
                cavity=CavityParams(kappa=0.2, detuning=1.0),
                mech1=MechanicalMode(mass=1.0, omega=2.0, gamma=0.0),
                mech2=MechanicalMode(mass=1.0, omega=1.0, gamma=0.0),
                coupling=CouplingParams(g_cav=0.1),
                drive=DriveParams(pump_amplitude=0.0),
                unit_mode="dimensionless",
            )

    def test_pump_choice_is_exclusive(self):
        with pytest.raises(ValueError):
            DriveParams(pump_power=1.0, pump_amplitude=1.0)
        with pytest.raises(ValueError):
            DriveParams()

    def test_perturbative_warning(self):
        # a probe/pump ratio of 0.2 warns only where the probe drives a run
        # (timedomain.integrate), never at construction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dimensionless_system(kappa=0.2, pump_amplitude=1.0, probe_amplitude=0.2)

    def test_no_warning_in_perturbative_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dimensionless_system(kappa=0.2, pump_amplitude=1.0, probe_amplitude=1e-3)


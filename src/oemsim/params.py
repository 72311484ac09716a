"""Physical parameters of the driven cavity with two Coulomb-coupled resonators.

All internal rates are angular (rad/s); SI quantities are kg, m, W.  In
dimensionless mode the first resonator frequency is the unit of rate;
masses, hbar and (with no wavelength set) the pump frequency are one, and
the same formulas apply verbatim.  The classes validate, and make numpy
scalars Python floats; `SystemParams` derives the drive amplitudes and the
stiffness.  Responses are per unit probe, so the probe is checked for being
perturbative only in `timedomain.integrate`.

The pump amplitude and the stiffness are written for Python floats (one
operating point) and for array fields of an element per point or one for all
(a batch of `steady.solve_steady_states`), with the rounding of `arith`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import power, sqrt
from .errors import StaticInstabilityError

HBAR = 1.054571817e-34  # J s
C_LIGHT = 299_792_458.0  # m/s

SI = "SI"
DIMENSIONLESS = "dimensionless"

DETUNING_EXPLICIT = "explicit"
DETUNING_LOCKED = "locked"


def _finite_floats(params, *names: str) -> None:
    """Numpy scalars among the fields ``names`` made Python floats (`response` rounds by type), ValueError
    naming the first that is set and not finite; a field's own rules come first, so they keep their messages."""
    for name in names:
        value = getattr(params, name)
        if isinstance(value, np.generic):
            object.__setattr__(params, name, value := float(value))
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{type(params).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical resonator: effective mass, frequency and viscous damping."""

    mass: float  # kg (1 in dimensionless mode)
    omega: float  # rad/s
    gamma: float  # rad/s

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"mechanical mass must be positive, got {self.mass}")
        if not self.omega > 0:
            raise ValueError(f"mechanical frequency must be positive, got {self.omega}")
        if not self.gamma >= 0:
            raise ValueError(f"mechanical damping must be nonnegative, got {self.gamma}")
        _finite_floats(self, "mass", "omega", "gamma")


@dataclass(frozen=True)
class CavityParams:
    """Single optical mode: geometry, amplitude decay rate and detuning policy.

    ``detuning_mode`` selects how the pump-cavity detuning is fixed:
    ``explicit`` uses ``detuning`` as Delta_c directly, ``locked`` derives
    Delta_c so the effective detuning (after the static radiation-pressure
    shift) equals the first mechanical frequency.
    """

    kappa: float  # rad/s, amplitude decay rate
    detuning_mode: str = DETUNING_EXPLICIT
    detuning: float = 0.0  # rad/s, Delta_c (ignored when locked)
    length: float | None = None  # m, SI only
    pump_wavelength: float | None = None  # m, SI only

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"cavity decay rate must be positive, got {self.kappa}")
        if self.detuning_mode not in (DETUNING_EXPLICIT, DETUNING_LOCKED):
            raise ValueError(f"unknown detuning_mode {self.detuning_mode!r}")
        if self.length is not None and not self.length > 0:
            raise ValueError(f"cavity length must be positive, got {self.length}")
        if self.pump_wavelength is not None and not self.pump_wavelength > 0:
            raise ValueError(f"pump wavelength must be positive, got {self.pump_wavelength}")
        _finite_floats(self, "kappa", "detuning", "length", "pump_wavelength")

    @property
    def omega_l(self) -> float:
        """Pump angular frequency from the wavelength (1.0 when unset)."""
        if self.pump_wavelength is None:
            return 1.0
        return 2.0 * math.pi * C_LIGHT / self.pump_wavelength


@dataclass(frozen=True)
class CouplingParams:
    """Optomechanical frequency pull and electrostatic resonator-resonator coupling.

    ``g_cav`` is the cavity frequency shift per unit mirror displacement
    (rad s^-1 m^-1); ``g_coulomb`` is the bilinear Coulomb coefficient
    (rad s^-1 m^-2) multiplying hbar q1 q2 in the energy.
    """

    g_cav: float  # rad s^-1 m^-1
    g_coulomb: float = 0.0  # rad s^-1 m^-2

    def __post_init__(self):
        if not self.g_cav >= 0:
            raise ValueError(f"g_cav must be nonnegative, got {self.g_cav}")
        if not self.g_coulomb >= 0:
            raise ValueError(f"g_coulomb must be nonnegative, got {self.g_coulomb}")
        _finite_floats(self, "g_cav", "g_coulomb")


@dataclass(frozen=True)
class DriveParams:
    """Pump and probe drives, each given as a power or as an amplitude.

    Exactly one of (pump_power, pump_amplitude) must be set; the probe pair
    may be left entirely unset for response-only work (amplitude 0).
    """

    pump_power: float | None = None  # W
    pump_amplitude: float | None = None  # s^-1
    probe_power: float | None = None  # W
    probe_amplitude: float | None = None  # s^-1

    def __post_init__(self):
        if (self.pump_power is None) == (self.pump_amplitude is None):
            raise ValueError("specify exactly one of pump_power / pump_amplitude")
        if self.probe_power is not None and self.probe_amplitude is not None:
            raise ValueError("specify at most one of probe_power / probe_amplitude")
        for name in ("pump_power", "pump_amplitude", "probe_power", "probe_amplitude"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        _finite_floats(self, "pump_power", "pump_amplitude", "probe_power", "probe_amplitude")


@dataclass(frozen=True)
class SystemParams:
    """Full description of the driven system in one unit convention."""

    cavity: CavityParams
    mech1: MechanicalMode
    mech2: MechanicalMode
    coupling: CouplingParams
    drive: DriveParams
    unit_mode: str = SI

    def __post_init__(self):
        if self.unit_mode not in (SI, DIMENSIONLESS):
            raise ValueError(f"unknown unit_mode {self.unit_mode!r}")
        if self.unit_mode == DIMENSIONLESS and self.mech1.omega != 1.0:
            raise ValueError("dimensionless mode requires mech1.omega == 1 exactly")
        if self.unit_mode == SI:
            if self.cavity.length is None or self.cavity.pump_wavelength is None:
                raise ValueError("SI mode requires cavity length and pump wavelength")

    @property
    def hbar(self) -> float:
        return 1.0 if self.unit_mode == DIMENSIONLESS else HBAR

    def pump_amplitude(self) -> float:
        """|Omega_l| = sqrt(2 kappa P_l / (hbar omega_l)), or the amplitude given."""
        drive, cavity = self.drive, self.cavity
        if drive.pump_amplitude is not None:
            return drive.pump_amplitude
        return sqrt(2.0 * cavity.kappa * drive.pump_power / (self.hbar * cavity.omega_l))

    def probe_amplitude(self, delta: float = 0.0) -> float:
        """eps_p = sqrt(2 kappa P_p / (hbar omega_p)), omega_p = omega_l + delta; 0 when unset."""
        drive, cavity = self.drive, self.cavity
        if drive.probe_amplitude is not None:
            return drive.probe_amplitude
        if drive.probe_power is None:
            return 0.0
        omega_p = cavity.omega_l + (delta if cavity.pump_wavelength is not None else 0.0)
        return math.sqrt(2.0 * cavity.kappa * drive.probe_power / (self.hbar * omega_p))

    def stiffness(self) -> float:
        """Static stiffness K = m1 w1^2 - hbar^2 g_c^2 / (m2 w2^2) of the first mirror.

        Raises StaticInstabilityError when the Coulomb term softens the mirror
        past the stability boundary (K <= 0); no steady state exists there.
        On a batch K comes back for every point, and `steady` refuses the
        points where K <= 0.
        """
        mech1, mech2 = self.mech1, self.mech2
        k = mech1.mass * power(mech1.omega, 2) - power(self.hbar * self.coupling.g_coulomb, 2) / (
            mech2.mass * power(mech2.omega, 2)
        )
        if not isinstance(k, np.ndarray) and k <= 0:
            raise StaticInstabilityError(
                f"Coulomb softening exceeds mechanical stiffness (K = {k!r} <= 0)"
            )
        return k


def default_g_cav(cavity: CavityParams, mech1_omega: float) -> float:
    """Default frequency pull omega_c / L with omega_c ~ omega_l + Delta_c."""
    if cavity.length is None:
        raise ValueError("default g_cav needs a cavity length (SI mode)")
    delta_nominal = cavity.detuning if cavity.detuning_mode == DETUNING_EXPLICIT else mech1_omega
    return (cavity.omega_l + delta_nominal) / cavity.length


"""Line-oriented configuration format: ``key = value`` with ``[section]`` headers.

Sections: cavity, mech1, mech2, coupling, drive, sweep.  Every physical
value is a finite number with an explicit unit suffix; frequency-family
suffixes (Hz, kHz, MHz) denote ordinary frequencies and are converted by
2*pi, while ``rad_s`` is stored as-is.  In dimensionless mode every physical
value uses the ``dimensionless`` suffix.  ``preset = <name>`` imports a named preset, which
is itself config text (`presets.PRESET_TEXT`) read by the same parser, and
later lines override it, in file order.  Unknown keys are hard errors.

`AXES` is the one table of swept names: each one's unit kind and the
`SystemParams` field that `axis_changes` sets, for one value (`apply_override`)
or for a sweep's array of them.  An axis bound outside that field's domain is
a config error at the bound's line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .params import (
    DIMENSIONLESS,
    SI,
    CavityParams,
    CouplingParams,
    DriveParams,
    MechanicalMode,
    SystemParams,
    default_g_cav,
)
from .presets import PRESET_NAMES, PRESET_TEXT
from .response import CONVENTIONS

TWO_PI = 2.0 * math.pi

FREQUENCY = "frequency"
RATE = "rate"
LENGTH = "length"
MASS = "mass"
POWER = "power"
PURE = "pure"

_SI_SUFFIXES = {
    FREQUENCY: {"Hz": TWO_PI, "kHz": TWO_PI * 1e3, "MHz": TWO_PI * 1e6, "rad_s": 1.0},
    RATE: {"rad_s": 1.0},
    LENGTH: {"m": 1.0, "mm": 1e-3, "nm": 1e-9},
    MASS: {"kg": 1.0, "ng": 1e-12},
    POWER: {"W": 1.0, "uW": 1e-6},
    PURE: {"dimensionless": 1.0},
}
_SI_BASE_UNITS = {FREQUENCY: "rad_s", RATE: "rad_s", LENGTH: "m", MASS: "kg", POWER: "W"}

# swept name -> (unit kind, SystemParams section, field it sets, field it sets
# to None so that the swept value alone gives the pump); delta_bar moves the
# probe and sets no field
AXES = {
    "delta_bar": (FREQUENCY, None, None, None),
    "P_l": (POWER, "drive", "pump_power", "pump_amplitude"),
    "Omega_l": (RATE, "drive", "pump_amplitude", "pump_power"),
    "g_coulomb": (FREQUENCY, "coupling", "g_coulomb", None),
    "kappa": (FREQUENCY, "cavity", "kappa", None),
    "g_cav": (FREQUENCY, "coupling", "g_cav", None),
}
AXIS_NAMES = tuple(AXES)
SCENARIOS = ("spectrum", "phase", "delay-vs-power", "delay-vs-kappa", "splitting-vs-gc")
SPACINGS = ("linear", "log")

# key -> a physical kind, a tuple of allowed words, "int", "raw" (an axis
# bound, parsed once the axis name is known) or "preset"
_SECTION_KEYS = {
    "": {"preset": "preset", "units": (SI, DIMENSIONLESS)},
    "cavity": {
        "kappa": FREQUENCY,
        "detuning": FREQUENCY,
        "detuning_mode": ("explicit", "locked"),
        "length": LENGTH,
        "wavelength": LENGTH,
    },
    "mech1": {"mass": MASS, "omega": FREQUENCY, "gamma": FREQUENCY, "quality": PURE},
    "mech2": {"mass": MASS, "omega": FREQUENCY, "gamma": FREQUENCY, "quality": PURE},
    "coupling": {"g_cav": FREQUENCY, "g_coulomb": FREQUENCY},
    "drive": {
        "power": POWER,
        "pump_amplitude": RATE,
        "probe_power": POWER,
        "probe_amplitude": RATE,
    },
    "sweep": {
        "scenario": SCENARIOS,
        "convention": CONVENTIONS,
        "axis1": AXIS_NAMES,
        "axis2": AXIS_NAMES,
        "axis1_min": "raw",
        "axis1_max": "raw",
        "axis2_min": "raw",
        "axis2_max": "raw",
        "axis1_points": "int",
        "axis2_points": "int",
        "axis1_spacing": SPACINGS,
        "axis2_spacing": SPACINGS,
    },
}

# Setting a key resets another key of its section: of two ways to give one
# quantity the later line wins, and an explicit detuning ends locked mode.
_RESETS = {
    "gamma": ("quality", None),
    "quality": ("gamma", None),
    "power": ("pump_amplitude", None),
    "pump_amplitude": ("power", None),
    "probe_power": ("probe_amplitude", None),
    "probe_amplitude": ("probe_power", None),
    "detuning": ("detuning_mode", "explicit"),
}


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter with an inclusive range."""

    name: str
    lo: float
    hi: float
    points: int
    spacing: str = "linear"

    def values(self):
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Scenario, swept axes and the reporting convention."""

    scenario: str
    axes: tuple[SweepAxis, ...] = ()
    convention: str = "paper-corrected"


def axis_changes(name: str, value) -> tuple[str, dict]:
    """(section, {field: value}) that sweeping ``name`` to ``value`` sets; ValueError if it sets none.

    ``value`` is one value or an array of them.  A pump axis also clears the
    pump field it does not set.
    """
    _, section, field, cleared = AXES[name]
    if field is None:
        raise ValueError(f"cannot override parameter {name!r}")
    return section, ({field: value} if cleared is None else {field: value, cleared: None})


def apply_override(params: SystemParams, name: str, value: float) -> SystemParams:
    """Params with the field swept by ``name`` set to ``value``; ValueError if none or out of domain."""
    section, changes = axis_changes(name, value)
    return replace(params, **{section: replace(getattr(params, section), **changes)})


def _blank_state() -> dict:
    """Every key of the key table unset, but for the two keys with defaults."""
    state = {section: dict.fromkeys(keys) for section, keys in _SECTION_KEYS.items()}
    state["cavity"]["detuning_mode"] = "explicit"
    state["coupling"]["g_coulomb"] = 0.0
    return state


def _parse_physical(value_text: str, kind: str, unit_mode: str, line_no: int) -> float:
    tokens = value_text.split()
    if len(tokens) == 1:
        raise ConfigError(f"missing unit suffix on physical value {value_text!r}", line=line_no)
    if len(tokens) != 2:
        raise ConfigError(f"expected '<number> <unit>', got {value_text!r}", line=line_no)
    number_text, suffix = tokens
    try:
        number = float(number_text)
    except ValueError:
        raise ConfigError(f"not a number: {number_text!r}", line=line_no) from None
    if not math.isfinite(number):
        raise ConfigError(f"not a finite number: {number_text!r}", line=line_no)
    mode = unit_mode or SI
    allowed = _SI_SUFFIXES[PURE if kind == PURE or mode == DIMENSIONLESS else kind]
    if suffix not in allowed:
        raise ConfigError(
            f"unit {suffix!r} not valid for a {kind} value in {mode} mode "
            f"(allowed: {', '.join(sorted(allowed))})",
            line=line_no,
        )
    return number * allowed[suffix]


def _read(text: str) -> dict:
    """Builder state of config text: each line sets ``state[section][key]``."""
    state = _blank_state()
    section = ""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS or section == "":
                raise ConfigError(f"unknown section [{section}]", line=line_no)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"empty value for key {key!r}", line=line_no)
        keys = _SECTION_KEYS.get(section, {})
        if key not in keys:
            where = f"section [{section}]" if section else "top level"
            raise ConfigError(f"unknown key {key!r} in {where}", line=line_no)
        kind = keys[key]

        if kind == "preset":
            if value not in PRESET_TEXT:
                raise ConfigError(
                    f"unknown preset {value!r} (available: {', '.join(PRESET_NAMES)})",
                    line=line_no,
                )
            state = _read(PRESET_TEXT[value])
            continue
        if kind == "raw":
            parsed = (value, line_no)  # its kind is known once the axis name is
        elif kind == "int":
            try:
                parsed = int(value)
            except ValueError:
                raise ConfigError(f"expected an integer for {key}, got {value!r}", line=line_no) from None
        elif isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError(f"{key} must be one of {', '.join(kind)}; got {value!r}", line=line_no)
            parsed = value
        else:
            parsed = _parse_physical(value, kind, state[""]["units"], line_no)
        state[section][key] = parsed
        if key in _RESETS:
            other, reset = _RESETS[key]
            state[section][other] = reset
    return state


def parse_config(text: str):
    """Parse configuration text into (SystemParams, SweepSpec | None)."""
    state = _read(text)
    params = resolve_state(state)
    has_sweep = any(value is not None for value in state["sweep"].values())
    sweep = _resolve_sweep(state["sweep"], params) if has_sweep else None
    return params, sweep


def _require(value, what):
    if value is None:
        raise ConfigError(f"missing required parameter: {what}")
    return value


def _resolve_mech(entry: dict, label: str, unit_mode: str) -> MechanicalMode:
    mass = entry["mass"]
    if mass is None:
        if unit_mode != DIMENSIONLESS:
            raise ConfigError(f"missing required parameter: {label}.mass")
        mass = 1.0
    omega = _require(entry["omega"], f"{label}.omega")
    gamma = entry["gamma"]
    if gamma is None:
        quality = _require(entry["quality"], f"{label}.gamma (or {label}.quality)")
        if quality <= 0:
            raise ConfigError(f"{label}.quality must be positive")
        gamma = omega / quality
    try:
        return MechanicalMode(mass=mass, omega=omega, gamma=gamma)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def resolve_state(state: dict) -> SystemParams:
    """Turn raw builder state into validated SystemParams."""
    unit_mode = state[""]["units"] or SI
    cav = state["cavity"]
    mech1 = _resolve_mech(state["mech1"], "mech1", unit_mode)
    mech2 = _resolve_mech(state["mech2"], "mech2", unit_mode)
    kappa = _require(cav["kappa"], "cavity.kappa")
    detuning_mode = cav["detuning_mode"]
    detuning = 0.0
    if detuning_mode == "explicit":
        detuning = _require(cav["detuning"], "cavity.detuning (or detuning_mode = locked)")
    try:
        cavity = CavityParams(
            kappa=kappa,
            detuning_mode=detuning_mode,
            detuning=detuning,
            length=cav["length"],
            pump_wavelength=cav["wavelength"],
        )
    except ValueError as exc:
        raise ConfigError(f"cavity: {exc}") from exc
    g_cav = state["coupling"]["g_cav"]
    if g_cav is None and unit_mode == DIMENSIONLESS:
        raise ConfigError("missing required parameter: coupling.g_cav")
    try:
        if g_cav is None:
            g_cav = default_g_cav(cavity, mech1.omega)
        coupling = CouplingParams(g_cav=g_cav, g_coulomb=state["coupling"]["g_coulomb"])
        drive = DriveParams(
            pump_power=state["drive"]["power"],
            pump_amplitude=state["drive"]["pump_amplitude"],
            probe_power=state["drive"]["probe_power"],
            probe_amplitude=state["drive"]["probe_amplitude"],
        )
        return SystemParams(
            cavity=cavity,
            mech1=mech1,
            mech2=mech2,
            coupling=coupling,
            drive=drive,
            unit_mode=unit_mode,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_sweep(raw: dict, params: SystemParams) -> SweepSpec:
    if raw["scenario"] is None:
        raise ConfigError("sweep section needs a scenario")
    axes = []
    for idx in (1, 2):
        name = raw[f"axis{idx}"]
        if name is None:
            if any(v is not None for k, v in raw.items() if k.startswith(f"axis{idx}_")):
                raise ConfigError(f"axis{idx}_* keys given without axis{idx}")
            continue
        kind, section, _, _ = AXES[name]
        bounds = {}
        for end in ("min", "max"):
            key = f"axis{idx}_{end}"
            if raw[key] is None:
                raise ConfigError(f"missing {key} for axis {name}")
            text, line_no = raw[key]
            bounds[end] = _parse_physical(text, kind, params.unit_mode, line_no)
            # a bound outside its field's domain fails here, so no grid value
            # can: each lies between the bounds, and each domain is an interval
            if section is not None:
                try:
                    apply_override(params, name, bounds[end])
                except ValueError as exc:
                    raise ConfigError(f"axis {name}: {exc}", line=line_no) from exc
        points = raw[f"axis{idx}_points"]
        if points is None:
            raise ConfigError(f"missing axis{idx}_points for axis {name}")
        spacing = raw[f"axis{idx}_spacing"] or "linear"
        if points < 2:
            raise ConfigError(f"axis {name}: points must be >= 2, got {points}")
        if spacing == "log" and (bounds["min"] <= 0 or bounds["max"] <= 0):
            raise ConfigError(f"axis {name}: log spacing requires positive bounds")
        axes.append(SweepAxis(name, bounds["min"], bounds["max"], points, spacing))
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ConfigError("swept parameter names must be distinct")
    return SweepSpec(
        scenario=raw["scenario"],
        axes=tuple(axes),
        convention=raw["convention"] or "paper-corrected",
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def serialize_config(params: SystemParams, sweep: SweepSpec | None = None) -> str:
    """Canonical config text that parses back to identical values.

    SI quantities are emitted in base units (rad_s, kg, m, W); dimensionless
    runs use the dimensionless suffix throughout.
    """
    dimless = params.unit_mode == DIMENSIONLESS
    unit = {kind: "dimensionless" if dimless else base for kind, base in _SI_BASE_UNITS.items()}
    freq, rate = unit[FREQUENCY], unit[RATE]
    lines = [f"units = {params.unit_mode}"]
    lines.append("[cavity]")
    lines.append(f"kappa = {_fmt(params.cavity.kappa)} {freq}")
    if params.cavity.detuning_mode == "locked":
        lines.append("detuning_mode = locked")
    else:
        lines.append(f"detuning = {_fmt(params.cavity.detuning)} {freq}")
    if params.cavity.length is not None:
        lines.append(f"length = {_fmt(params.cavity.length)} {unit[LENGTH]}")
    if params.cavity.pump_wavelength is not None:
        lines.append(f"wavelength = {_fmt(params.cavity.pump_wavelength)} {unit[LENGTH]}")
    for label, mech in (("mech1", params.mech1), ("mech2", params.mech2)):
        lines.append(f"[{label}]")
        lines.append(f"mass = {_fmt(mech.mass)} {unit[MASS]}")
        lines.append(f"omega = {_fmt(mech.omega)} {freq}")
        lines.append(f"gamma = {_fmt(mech.gamma)} {freq}")
    lines.append("[coupling]")
    lines.append(f"g_cav = {_fmt(params.coupling.g_cav)} {freq}")
    lines.append(f"g_coulomb = {_fmt(params.coupling.g_coulomb)} {freq}")
    lines.append("[drive]")
    drive = params.drive
    if drive.pump_power is not None:
        lines.append(f"power = {_fmt(drive.pump_power)} {unit[POWER]}")
    else:
        lines.append(f"pump_amplitude = {_fmt(drive.pump_amplitude)} {rate}")
    if drive.probe_power is not None:
        lines.append(f"probe_power = {_fmt(drive.probe_power)} {unit[POWER]}")
    elif drive.probe_amplitude is not None:
        lines.append(f"probe_amplitude = {_fmt(drive.probe_amplitude)} {rate}")
    if sweep is not None:
        lines.append("[sweep]")
        lines.append(f"scenario = {sweep.scenario}")
        lines.append(f"convention = {sweep.convention}")
        for idx, axis in enumerate(sweep.axes, start=1):
            axis_unit = unit[AXES[axis.name][0]]
            lines.append(f"axis{idx} = {axis.name}")
            lines.append(f"axis{idx}_min = {_fmt(axis.lo)} {axis_unit}")
            lines.append(f"axis{idx}_max = {_fmt(axis.hi)} {axis_unit}")
            lines.append(f"axis{idx}_points = {axis.points}")
            lines.append(f"axis{idx}_spacing = {axis.spacing}")
    return "\n".join(lines) + "\n"


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

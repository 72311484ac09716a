"""Line-oriented configuration format: ``key = value`` with ``[section]`` headers.

Sections: cavity, mech1, mech2, coupling, drive, sweep.  Every physical
value is a finite number with an explicit unit suffix; frequency-family
suffixes (Hz, kHz, MHz) denote ordinary frequencies and are converted by
2*pi, while ``rad_s`` is stored as-is.  In dimensionless mode every physical
value uses the ``dimensionless`` suffix.  ``preset = <name>`` imports a named preset, which
is itself config text (`presets.PRESET_TEXT`) read by the same parser, and
later lines override it, in file order.  Unknown keys are hard errors.

`_SECTION_KEYS` is the one table of keys and their kinds.  It drives reading
(`parse_config`), resolving (`resolve_state`, through the key -> field map
`_FIELDS`) and writing: `serialize_config` writes every key whose resolved
value is set, so a written config names only keys the reader knows.  The
default delta_bar axis that `sweep` appends as a third axis is implied, not written.

`AXES` is the one table of swept names: each one's unit kind and the
`SystemParams` field that `axis_changes` sets, for one value (`apply_override`)
or for a sweep's array of them.  The parser checks what needs the text or a line
number, and an axis bound's domain at its line (`check_axis_bound`); `SweepAxis`
and `SweepSpec` check a sweep's own rules when built, from text or in Python.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace

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
_BASE_UNITS = {FREQUENCY: "rad_s", RATE: "rad_s", LENGTH: "m", MASS: "kg", POWER: "W", PURE: "dimensionless"}

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
        "axis1_min": "raw",
        "axis1_max": "raw",
        "axis1_points": "int",
        "axis1_spacing": SPACINGS,
        "axis2": AXIS_NAMES,
        "axis2_min": "raw",
        "axis2_max": "raw",
        "axis2_points": "int",
        "axis2_spacing": SPACINGS,
    },
}
# config key -> the field of its SystemParams section, where the two differ
_FIELDS = {"wavelength": "pump_wavelength", "power": "pump_power"}

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


def _check_choice(key: str, value, choices: tuple[str, ...], line: int | None = None) -> None:
    if value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {value!r}", line=line)


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter with an inclusive range; ConfigError unless the name is one of `AXES`,
    the spacing one of `SPACINGS`, points an integer >= 2 and both bounds real and finite, and
    positive for log spacing."""

    name: str
    lo: float
    hi: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        _check_choice("axis", self.name, AXIS_NAMES)
        _check_choice(f"axis {self.name}: spacing", self.spacing, SPACINGS)
        if not isinstance(self.points, numbers.Integral):
            raise ConfigError(f"axis {self.name}: points must be an integer, got {self.points!r}")
        if not self.points >= 2:
            raise ConfigError(f"axis {self.name}: points must be >= 2, got {self.points}")
        if not (isinstance(self.lo, numbers.Real) and isinstance(self.hi, numbers.Real)):
            raise ConfigError(f"axis {self.name}: bounds must be real numbers, got {self.lo!r} and {self.hi!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError(f"axis {self.name}: bounds must be finite, got {self.lo} and {self.hi}")
        if self.spacing == "log" and (self.lo <= 0 or self.hi <= 0):
            raise ConfigError(f"axis {self.name}: log spacing requires positive bounds")

    def values(self):
        return (np.geomspace if self.spacing == "log" else np.linspace)(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Scenario, swept axes (kept as a tuple) and the reporting convention; ConfigError unless each axis
    is a `SweepAxis`, the scenario one of `SCENARIOS`, the convention one of `CONVENTIONS`, names distinct."""

    scenario: str
    axes: tuple[SweepAxis, ...] = ()
    convention: str = "paper-corrected"

    def __post_init__(self):
        axes = tuple(self.axes) if isinstance(self.axes, Iterable) and not isinstance(self.axes, str) else None
        if axes is None or not all(isinstance(axis, SweepAxis) for axis in axes):
            raise ConfigError(f"axes must be SweepAxis objects, got {self.axes!r}")
        object.__setattr__(self, "axes", axes)
        _check_choice("scenario", self.scenario, SCENARIOS)
        _check_choice("convention", self.convention, CONVENTIONS)
        if len({axis.name for axis in self.axes}) < len(self.axes):
            raise ConfigError("swept parameter names must be distinct")


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


def check_axis_bound(params: SystemParams, name: str, bound: float, line: int | None = None) -> None:
    """ConfigError if axis ``name`` at ``bound`` takes its field out of its domain (an interval)."""
    if AXES[name][1] is not None:
        try:
            apply_override(params, name, bound)
        except ValueError as exc:
            raise ConfigError(f"axis {name}: {exc}", line=line) from exc


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
    value = number * allowed[suffix]
    if not math.isfinite(value):
        raise ConfigError(f"not finite in SI units: {value_text!r}", line=line_no)
    return value


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
            _check_choice(key, value, kind, line_no)
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


def _checked(label: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError raised as a ConfigError prefixed by ``label``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{label}{exc}") from exc


def _section(cls, label: str, entry: dict, **resolved):
    """``cls`` built from a section's state: each key as its field (`_FIELDS`), unless ``resolved``
    gives the field; input-only keys, which name no field, are dropped."""
    values = {_FIELDS.get(key, key): value for key, value in entry.items()} | resolved
    return _checked(label, cls, **{field.name: values[field.name] for field in fields(cls)})


def resolve_state(state: dict) -> SystemParams:
    """Turn raw builder state into validated SystemParams.

    The rules below fill in or refuse what a section leaves unset, in the
    order of their messages; a mechanical or cavity error names its section.
    """
    unit_mode = state[""]["units"] or SI
    dimless = unit_mode == DIMENSIONLESS
    built = {}
    for label in ("mech1", "mech2"):
        entry = state[label]
        mass = entry["mass"]
        if mass is None:
            if not dimless:
                raise ConfigError(f"missing required parameter: {label}.mass")
            mass = 1.0
        omega = _require(entry["omega"], f"{label}.omega")
        gamma = entry["gamma"]
        if gamma is None:
            quality = _require(entry["quality"], f"{label}.gamma (or {label}.quality)")
            if quality <= 0:
                raise ConfigError(f"{label}.quality must be positive")
            gamma = omega / quality
        built[label] = _section(MechanicalMode, f"{label}: ", entry, mass=mass, gamma=gamma)
    cav = state["cavity"]
    _require(cav["kappa"], "cavity.kappa")
    detuning = 0.0  # locked mode derives Delta_c
    if cav["detuning_mode"] == "explicit":
        detuning = _require(cav["detuning"], "cavity.detuning (or detuning_mode = locked)")
    built["cavity"] = _section(CavityParams, "cavity: ", cav, detuning=detuning)
    g_cav = state["coupling"]["g_cav"]
    if g_cav is None:
        if dimless:
            raise ConfigError("missing required parameter: coupling.g_cav")
        g_cav = _checked("", default_g_cav, built["cavity"], built["mech1"].omega)
    built["coupling"] = _section(CouplingParams, "", state["coupling"], g_cav=g_cav)
    built["drive"] = _section(DriveParams, "", state["drive"])
    return _checked("", SystemParams, unit_mode=unit_mode, **built)


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
        bounds = []
        for key in (f"axis{idx}_min", f"axis{idx}_max"):
            if raw[key] is None:
                raise ConfigError(f"missing {key} for axis {name}")
            text, line_no = raw[key]
            bounds.append(_parse_physical(text, AXES[name][0], params.unit_mode, line_no))
            check_axis_bound(params, name, bounds[-1], line_no)
        points = raw[f"axis{idx}_points"]
        if points is None:
            raise ConfigError(f"missing axis{idx}_points for axis {name}")
        axes.append(SweepAxis(name, *bounds, points, raw[f"axis{idx}_spacing"] or "linear"))
    return SweepSpec(raw["scenario"], tuple(axes), raw["convention"] or "paper-corrected")


def serialize_config(params: SystemParams, sweep: SweepSpec | None = None) -> str:
    """Canonical config text that parses back to identical values.

    Walks the key table and writes, in its order, every key whose resolved
    value is set: SI quantities in the base unit of their kind (rad_s, kg, m,
    W), dimensionless runs with the dimensionless suffix throughout.  A third
    axis, which a config can only imply (the default delta_bar), has no key.
    """
    dimless = params.unit_mode == DIMENSIONLESS
    unit = {kind: DIMENSIONLESS if dimless else base for kind, base in _BASE_UNITS.items()}
    state = {"": {"units": params.unit_mode}, "sweep": {}}
    for section in ("cavity", "mech1", "mech2", "coupling", "drive"):
        part = getattr(params, section)
        state[section] = {key: getattr(part, _FIELDS.get(key, key), None) for key in _SECTION_KEYS[section]}
    # a detuning implies explicit mode, and locked mode has none
    state["cavity"]["detuning" if params.cavity.detuning_mode == "locked" else "detuning_mode"] = None
    if sweep is not None:
        state["sweep"] = {"scenario": sweep.scenario, "convention": sweep.convention}
        for idx, axis in enumerate(sweep.axes, start=1):
            axis_unit = unit[AXES[axis.name][0]]
            state["sweep"].update({
                f"axis{idx}": axis.name,
                f"axis{idx}_min": f"{axis.lo:.17g} {axis_unit}",
                f"axis{idx}_max": f"{axis.hi:.17g} {axis_unit}",
                f"axis{idx}_points": axis.points,
                f"axis{idx}_spacing": axis.spacing,
            })
    lines = []
    for section, keys in _SECTION_KEYS.items():
        written = [
            f"{key} = {value:.17g} {unit[kind]}" if kind in unit else f"{key} = {value}"
            for key, kind in keys.items()
            if (value := state[section].get(key)) is not None
        ]
        if section and written:
            lines.append(f"[{section}]")
        lines += written
    return "\n".join(lines) + "\n"


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

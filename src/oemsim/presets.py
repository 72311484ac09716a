"""Named parameter presets.

``paper-2012`` carries the millimeter Fabry-Perot experiment values
(L = 25 mm, lambda = 1064 nm, omega/2pi = 947 kHz, Q = 6700, m = 145 ng,
kappa/2pi = 215 kHz, P_l = 6 uW, g_c/2pi = 8 MHz m^-2) with the detuning
locked to the first mechanical frequency.

``dimensionless-slowfast`` is the working point for all qualitative window
and delay studies: rates in units of the mechanical frequency
(omega1 = omega2 = 1, gamma = 1/6700, kappa = 0.227, locked detuning).
The radiation-pressure scale is set through a dimensionless pump power so
kappa sweeps rescale the pump amplitude the way a fixed laser power would.
Two pump levels are bundled: a spectrum level (beta = 5e-3) strong enough
that the split transparency windows rise above the all-pass baseline, and
a weak delay level (beta = 1e-6) where the line-center response switches
sign between the Coulomb-on and Coulomb-off configurations.

At the delay level with g_c != 0, mirror 2 pins mirror 1 at line center:
the Coulomb self-energy alpha = g_c^2/chi2 (about -268i at g_c = 0.2)
swamps chi1 (about 1.5e-4 i), so X -> 1/kappa and t_p -> -1.  The
line-center delay is then the empty cavity's all-pass 2/kappa (1/kappa in
the intracavity convention), positive at every kappa but falling with it.
"""
from __future__ import annotations

import math

PAPER_2012 = "paper-2012"
SLOWFAST = "dimensionless-slowfast"

# dimensionless-slowfast knobs
SLOWFAST_KAPPA = 0.227
SLOWFAST_GAMMA = 1.0 / 6700.0
SLOWFAST_G_CAV = 0.1
SLOWFAST_BETA_SPECTRUM = 5e-3
SLOWFAST_BETA_DELAY = 1e-6
SLOWFAST_GC_GRID = (0.05, 0.10, 0.15, 0.20)
SLOWFAST_KAPPA_GRID = (0.113, 0.227, 0.340)


def slowfast_pump_power(beta_target: float, kappa: float = SLOWFAST_KAPPA,
                        g_cav: float = SLOWFAST_G_CAV) -> float:
    """Dimensionless pump power giving the requested radiation-pressure beta.

    With the detuning locked to omega1 = 1 the photon number is
    n = 2 kappa P / (kappa^2 + 1), and beta = g_cav^2 n / 2.
    """
    return beta_target * (kappa**2 + 1.0) / (g_cav**2 * kappa)


_SLOWFAST_POWER = slowfast_pump_power(SLOWFAST_BETA_SPECTRUM)
_SLOWFAST_PROBE = 1e-3 * math.sqrt(2.0 * SLOWFAST_KAPPA * _SLOWFAST_POWER)

# Config text read by `config.parse_config`.  Computed numbers are written
# with !r in base units, so they parse back to the same bits.
PRESET_TEXT = {
    PAPER_2012: f"""\
units = SI
[cavity]
kappa = {2.0 * math.pi * 215e3!r} rad_s
detuning_mode = locked
length = 25e-3 m
wavelength = 1064e-9 m
[mech1]
mass = 145e-12 kg
omega = {2.0 * math.pi * 947e3!r} rad_s
quality = 6700 dimensionless
[mech2]
mass = 145e-12 kg
omega = {2.0 * math.pi * 947e3!r} rad_s
quality = 6700 dimensionless
[coupling]
g_coulomb = {2.0 * math.pi * 8e6!r} rad_s
[drive]
power = 6e-6 W
probe_power = 6e-12 W
""",
    SLOWFAST: f"""\
units = dimensionless
[cavity]
kappa = {SLOWFAST_KAPPA!r} dimensionless
detuning_mode = locked
[mech1]
omega = 1 dimensionless
gamma = {SLOWFAST_GAMMA!r} dimensionless
[mech2]
omega = 1 dimensionless
gamma = {SLOWFAST_GAMMA!r} dimensionless
[coupling]
g_cav = {SLOWFAST_G_CAV!r} dimensionless
[drive]
power = {_SLOWFAST_POWER!r} dimensionless
probe_amplitude = {_SLOWFAST_PROBE!r} dimensionless
""",
}
PRESET_NAMES = tuple(PRESET_TEXT)


def get_preset(name: str):
    """Resolved SystemParams for a named preset."""
    from .config import parse_config

    return parse_config(PRESET_TEXT[name])[0]

import sys
from pathlib import Path

import numpy as np
import pytest

from oemsim.validate import dimensionless_system, system_for_beta

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import reference_outputs  # noqa: E402  (tools/reference_outputs.py)


def pytest_report_header(config):
    """Python, numpy, the libc and numpy's dispatched CPU features: the bit-for-bit tests rest on them."""
    return reference_outputs.platform_lines()


@pytest.fixture
def rng():
    return np.random.default_rng(seed=1234)


@pytest.fixture
def pump_off():
    """All-pass reference: no pump, no Coulomb coupling, explicit detuning."""
    return dimensionless_system(
        kappa=0.227, pump_amplitude=0.0, detuning_mode="explicit", detuning=1.0
    )


@pytest.fixture
def slowfast_spectrum():
    """Slow/fast working point at the spectrum pump level, Coulomb on."""
    return system_for_beta(0.227, 5e-3, g_coulomb=0.2)


@pytest.fixture
def slowfast_delay():
    """Slow/fast working point at the weak delay pump level, Coulomb on."""
    return system_for_beta(0.227, 1e-6, g_coulomb=0.2)


__all__ = ["dimensionless_system", "system_for_beta"]

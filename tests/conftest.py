import platform

import numpy as np
import pytest

from oemsim.validate import dimensionless_system, system_for_beta


def pytest_report_header(config):
    """The libc and numpy's dispatched CPU features: the bit-for-bit tests rest on both."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatched = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return [
        "libc: " + (" ".join(platform.libc_ver()) or "unknown"),
        f"numpy {np.__version__} dispatched CPU features: {' '.join(dispatched) or 'none'}",
    ]


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

import numpy as np
import pytest

import oemsim.validate
from oemsim.linsys import solve_sidebands
from oemsim.steady import solve_steady_state
from oemsim.timedomain import DemodResult


@pytest.mark.parametrize("leakage, passed", [(1e-3, False), (0.0, True)])
def test_timedomain_check_enforces_demodulation_leakage(monkeypatch, leakage, passed):
    def exact_probe_response(params, delta, config):
        # the 6x6 answer itself, so only the leakage can fail the check
        op = solve_steady_state(params)
        c_minus = solve_sidebands(delta, params, op).c_minus
        return DemodResult(cs_est=op.cs, c_minus_est=c_minus, c_plus_est=0j, leakage=leakage)

    monkeypatch.setattr(oemsim.validate, "probe_response", exact_probe_response)
    result = oemsim.validate.check_timedomain(np.random.default_rng(0))
    assert result.passed is passed
    assert ("demodulation leakage" in result.detail) is not passed


def test_linsys_properties_pass_on_seeds_0_to_39():
    # the rng stream run_validation gives the check (index 4) for each seed
    failing = [
        seed for seed in range(40)
        if not oemsim.validate.check_linsys_properties(np.random.default_rng([seed, 4])).passed
    ]
    assert failing == []

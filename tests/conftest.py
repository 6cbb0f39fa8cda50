import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import adexsim
from adexsim import AdExParameters, default_circuit_config, circuit_for_adex

# property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic
settings.register_profile("adexsim", derandomize=True, deadline=None, database=None)
settings.load_profile("adexsim")


# published cortical tonic-spiking constants (biological domain)
@pytest.fixture
def tonic_params():
    return AdExParameters(
        C=200e-12, g_l=10e-9, E_l=-70e-3, V_T=-50e-3, Delta_T=2e-3,
        tau_w=30e-3, a=2e-9, b=0.0, V_r=-58e-3, V_det=-40e-3)


# hardware-domain AdEx target used for circuit round trips
@pytest.fixture
def hw_target():
    return AdExParameters(
        C=2.47e-12, g_l=0.12e-6, E_l=0.5, V_T=0.62, Delta_T=0.02,
        tau_w=100e-6, a=30e-9, b=3e-9, V_r=0.42, V_det=0.72, t_ref=1e-6)


@pytest.fixture
def hw_circuit(hw_target):
    return circuit_for_adex(
        hw_target,
        default_circuit_config(adaptation_enabled=True, exponential_enabled=True))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# environment for `python -m adexsim.cli` children: the directory holding the
# adexsim package this process imported comes first on PYTHONPATH, so the
# child runs the same code whatever its working directory
@pytest.fixture
def cli_env():
    src = str(Path(adexsim.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([src, inherited]) if inherited else src
    return dict(os.environ, PYTHONPATH=path)

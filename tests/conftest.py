import numpy as np
import pytest

from dimerqpt.bath import BathParams, build_redfield_generator
from dimerqpt.model import DimerParams, build_exciton_basis
from dimerqpt.pulses import PulseToolbox


@pytest.fixture(scope="session")
def dimer():
    return DimerParams(site_energy_1=12881.0, site_energy_2=12719.0,
                       coupling_j=120.0)


@pytest.fixture(scope="session")
def geometries(dimer):
    """Three dimers with different mixing angles and dipole geometries."""
    return [
        dimer,
        DimerParams(site_energy_1=12700.0, site_energy_2=12950.0,
                    coupling_j=-80.0, dipole_ratio_d2_over_d1=0.7,
                    dipole_angle_phi=1.1),
        DimerParams(site_energy_1=13000.0, site_energy_2=12500.0,
                    coupling_j=300.0, dipole_angle_phi=2.4),
    ]


@pytest.fixture(scope="session")
def basis(dimer):
    return build_exciton_basis(dimer)


@pytest.fixture(scope="session")
def bath():
    return BathParams(reorganization_energy=30.0, cutoff_freq=120.0,
                      temperature=298.0)


@pytest.fixture(scope="session")
def gen(basis, bath):
    return build_redfield_generator(basis, bath)


@pytest.fixture(scope="session")
def toolbox():
    return PulseToolbox(freq_plus=13480.0, freq_minus=12130.0,
                        pulse_width_sigma=40.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)

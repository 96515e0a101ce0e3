import math

import numpy as np
import pytest

from dimerqpt.errors import DegenerateDimerError
from dimerqpt.model import DimerParams, build_exciton_basis


def one_exciton_eigensystem(dimer):
    """Oracle: direct diagonalization of the one-excitation block."""
    h = np.array([[dimer.site_energy_1, dimer.coupling_j],
                  [dimer.coupling_j, dimer.site_energy_2]])
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def test_exciton_energies_match_eigensolver(dimer, basis):
    vals, _ = one_exciton_eigensystem(dimer)
    assert basis.energy_e == pytest.approx(vals[1], abs=1e-9)
    assert basis.energy_ep == pytest.approx(vals[0], abs=1e-9)
    assert basis.energy_e >= basis.energy_ep


def test_reference_energies(basis):
    # derived from the default site energies and coupling
    assert basis.energy_e == pytest.approx(12944.77914214416, abs=1e-8)
    assert basis.energy_ep == pytest.approx(12655.22085785584, abs=1e-8)
    assert basis.energy_f == pytest.approx(25600.0, abs=1e-12)
    assert basis.splitting() == pytest.approx(289.5582842883, abs=1e-8)


def test_mixing_angle_sign_safe():
    flipped = DimerParams(site_energy_1=12719.0, site_energy_2=12881.0,
                          coupling_j=120.0)
    basis = build_exciton_basis(flipped)
    assert basis.energy_e >= basis.energy_ep
    vals, _ = one_exciton_eigensystem(flipped)
    assert basis.energy_e == pytest.approx(vals[1], abs=1e-9)


def test_biexciton_energy_is_sum_of_sites(dimer, basis):
    assert basis.energy_f == dimer.site_energy_1 + dimer.site_energy_2
    assert basis.energy_f == pytest.approx(basis.energy_e + basis.energy_ep,
                                           abs=1e-9)


def test_dipoles_match_eigenvector_rotation(dimer, basis):
    _, vecs = one_exciton_eigensystem(dimer)
    d1 = np.array([0.0, 0.0, dimer.dipole_d1])
    phi = dimer.dipole_angle_phi
    d2 = dimer.dipole_d2 * np.array([math.sin(phi), 0.0, math.cos(phi)])
    # column 1 of the eigenvector matrix is the upper exciton
    upper = vecs[:, 1] * np.sign(vecs[0, 1])
    expected_eg = upper[0] * d1 + upper[1] * d2
    assert np.allclose(basis.mu_eg, expected_eg, atol=1e-12)


def test_dipole_sum_rule(dimer, basis):
    total = (np.dot(basis.mu_eg, basis.mu_eg)
             + np.dot(basis.mu_epg, basis.mu_epg))
    assert total == pytest.approx(dimer.dipole_d1 ** 2 + dimer.dipole_d2 ** 2,
                                  abs=1e-12)


def test_degenerate_dimer_rejected():
    with pytest.raises(DegenerateDimerError):
        DimerParams(site_energy_1=12800.0, site_energy_2=12800.0,
                    coupling_j=0.0)


def test_gamma_range_enforced():
    with pytest.raises(ValueError):
        DimerParams(site_energy_1=12881.0, site_energy_2=12719.0,
                    coupling_j=120.0, quantum_yield_gamma=2.5)


def test_zero_coupling_site_basis():
    local = DimerParams(site_energy_1=12881.0, site_energy_2=12719.0,
                        coupling_j=0.0)
    basis = build_exciton_basis(local)
    assert basis.mixing_angle_theta == pytest.approx(0.0, abs=1e-15)
    assert basis.energy_e == pytest.approx(12881.0)
    assert basis.energy_ep == pytest.approx(12719.0)

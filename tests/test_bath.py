import math

import numpy as np
import pytest

from dimerqpt.bath import (BathParams, ProcessTensor, bose_occupation,
                           propagate_process_tensor, spectral_density)
from dimerqpt.units import thermal_energy


def test_spectral_density_shape(bath):
    assert spectral_density(0.0, bath) == 0.0
    # peak of an Ohmic-exponential density sits at the cutoff
    peak = spectral_density(bath.cutoff_freq, bath)
    assert peak == pytest.approx(
        bath.reorganization_energy * math.exp(-1.0), abs=1e-12)
    omegas = np.linspace(0.0, 1000.0, 101)
    vals = spectral_density(omegas, bath)
    assert vals.shape == omegas.shape
    assert np.all(vals >= 0)
    with pytest.raises(ValueError):
        spectral_density(-1.0, bath)


def test_bose_occupation_limits(bath):
    cold = BathParams(reorganization_energy=30.0, cutoff_freq=120.0,
                      temperature=0.0)
    assert bose_occupation(200.0, cold) == 0.0
    # high-temperature limit: n ~ kT/omega
    kt = thermal_energy(bath.temperature)
    assert bose_occupation(0.01, bath) == pytest.approx(kt / 0.01, rel=1e-3)


def test_detailed_balance_ratio(basis, bath, gen):
    gap = basis.splitting()
    kt = thermal_energy(bath.temperature)
    expected = math.exp(-gap / kt)
    assert gen.rate_ep_to_e / gen.rate_e_to_ep == pytest.approx(expected,
                                                               rel=1e-12)
    # numeric value for the default parameters
    assert expected == pytest.approx(0.247086, abs=1e-5)


def test_population_columns_sum_to_zero(gen):
    assert np.allclose(gen.population_rates.sum(axis=0), 0.0, atol=1e-18)


def test_transfer_timescale_sensible(gen):
    # downhill transfer within a few hundred fs for the default parameters
    assert 1e-3 < gen.rate_e_to_ep < 1e-1


def test_propagator_identity_at_zero(gen):
    tensor = propagate_process_tensor(gen, 0.0)
    ident = ProcessTensor.identity()
    assert np.allclose(tensor.elements, ident.elements, atol=1e-15)
    assert np.allclose(tensor.ground_row, 0.0, atol=1e-15)


def test_propagator_trace_and_hermiticity(gen):
    for t in (50.0, 300.0, 1500.0):
        tensor = propagate_process_tensor(gen, t)
        assert tensor.trace_defect() < 1e-14
        assert tensor.hermiticity_defect() < 1e-14


def test_propagator_semigroup(gen):
    a = propagate_process_tensor(gen, 130.0)
    b = propagate_process_tensor(gen, 270.0)
    ab = b.compose(a)
    direct = propagate_process_tensor(gen, 400.0)
    assert np.allclose(ab.elements, direct.elements, atol=1e-14)
    assert np.allclose(ab.ground_row, direct.ground_row, atol=1e-14)
    assert ab.waiting_time == pytest.approx(400.0)


def test_propagator_long_time_boltzmann(gen):
    tensor = propagate_process_tensor(gen, 1e6)
    pops = np.array([tensor.elements[0, 0, 0, 0].real,
                     tensor.elements[1, 1, 0, 0].real])
    ratio = gen.rate_ep_to_e / gen.rate_e_to_ep
    assert pops[0] / pops[1] == pytest.approx(ratio, rel=1e-8)
    # exciton coherence fully damped
    assert abs(tensor.elements[0, 1, 0, 1]) < 1e-12


def test_propagator_rejects_negative_time(gen):
    with pytest.raises(ValueError):
        propagate_process_tensor(gen, -1.0)


def test_apply_preserves_trace_with_ground(gen):
    rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    tensor = propagate_process_tensor(gen, 250.0)
    out = tensor.apply(rho)
    leaked = np.einsum("vu,vu->", tensor.ground_row, rho)
    assert np.trace(out) + leaked == pytest.approx(np.trace(rho), abs=1e-14)


def test_bath_param_validation():
    with pytest.raises(ValueError):
        BathParams(reorganization_energy=-1.0, cutoff_freq=120.0,
                   temperature=298.0)
    with pytest.raises(ValueError):
        BathParams(reorganization_energy=30.0, cutoff_freq=0.0,
                   temperature=298.0)
    with pytest.raises(ValueError):
        BathParams(reorganization_energy=30.0, cutoff_freq=120.0,
                   temperature=-5.0)

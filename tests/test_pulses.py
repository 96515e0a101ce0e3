import math

import numpy as np
import pytest
from scipy.integrate import quad

from dimerqpt.errors import SingularToolboxError
from dimerqpt.model import DimerParams, build_exciton_basis
from dimerqpt.pulses import (PulseToolbox, base_coefficient_matrix,
                             build_c_matrix, pulse_coefficient)
from dimerqpt.units import to_angular


def quadrature_coefficient(transition_freq, omega, toolbox):
    """Oracle: numerical Fourier transform of the Gaussian envelope.

    i * lambda * integral of exp(-t^2 / (2 sigma^2)) exp(i dw t) dt.
    """
    sigma = toolbox.pulse_width_sigma
    dw = to_angular(transition_freq - omega)

    def integrand_re(t):
        return math.exp(-t * t / (2 * sigma * sigma)) * math.cos(dw * t)

    def integrand_im(t):
        return math.exp(-t * t / (2 * sigma * sigma)) * math.sin(dw * t)

    re, _ = quad(integrand_re, -12 * sigma, 12 * sigma, limit=400)
    im, _ = quad(integrand_im, -12 * sigma, 12 * sigma, limit=400)
    return 1j * toolbox.field_strength_lambda * (re + 1j * im)


def test_coefficient_matches_quadrature(toolbox):
    for freq in (12130.0, 12655.2, 12944.8, 13480.0):
        for omega in (12130.0, 13480.0):
            exact = pulse_coefficient(freq, omega, toolbox)
            oracle = quadrature_coefficient(freq, omega, toolbox)
            assert exact == pytest.approx(oracle, abs=1e-12)


def test_coefficient_purely_imaginary_positive(toolbox):
    c = pulse_coefficient(12944.8, 13480.0, toolbox)
    assert c.real == 0.0
    assert c.imag > 0.0


def test_on_resonance_value(toolbox):
    c = pulse_coefficient(13480.0, 13480.0, toolbox)
    assert c == pytest.approx(
        1j * math.sqrt(2 * math.pi) * toolbox.pulse_width_sigma, abs=1e-12)


def test_base_matrix_values(basis, toolbox):
    base = base_coefficient_matrix(basis, toolbox)
    # diagonal dominance: each carrier mostly addresses its own exciton
    assert abs(base[0, 0]) > 1e4 * abs(base[0, 1])
    assert abs(base[1, 1]) > 1e4 * abs(base[1, 0])
    # pinned magnitudes for the default parameters
    assert abs(base[0, 0]) == pytest.approx(2.94981e-2, rel=1e-4)
    assert abs(base[1, 1]) == pytest.approx(3.98584e-2, rel=1e-4)


def test_kronecker_structure(basis, toolbox):
    cmat = build_c_matrix(basis, toolbox)
    base = cmat.base_2x2
    expected = np.kron(np.kron(np.kron(base, base), base), base)
    assert np.array_equal(cmat.entries, expected)
    assert cmat.entries.shape == (16, 16)


def test_condition_number_is_fourth_power(basis, toolbox):
    cmat = build_c_matrix(basis, toolbox)
    assert cmat.condition_number == pytest.approx(
        cmat.base_condition_number ** 4, rel=1e-10)


def test_solve_round_trip(basis, toolbox, rng):
    cmat = build_c_matrix(basis, toolbox)
    p = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = cmat.entries @ p
    assert np.allclose(cmat.solve(s), p, atol=1e-10)


def test_equal_carriers_rejected():
    with pytest.raises(SingularToolboxError):
        PulseToolbox(freq_plus=12800.0, freq_minus=12800.0,
                     pulse_width_sigma=40.0)


def test_unresolvable_toolbox_rejected(basis):
    # very long pulses centered far away cannot split the excitons
    toolbox = PulseToolbox(freq_plus=20000.0, freq_minus=20001.0,
                           pulse_width_sigma=40.0)
    with pytest.raises(SingularToolboxError):
        build_c_matrix(basis, toolbox)


def test_nonpositive_width_rejected():
    with pytest.raises(ValueError):
        PulseToolbox(freq_plus=13480.0, freq_minus=12130.0,
                     pulse_width_sigma=0.0)

import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

from dimerqpt.errors import SingularToolboxError
from dimerqpt.isoaverage import build_m_blocks, params_to_elements
from dimerqpt.model import DimerParams, build_exciton_basis
from dimerqpt.pulses import (PulseToolbox, base_coefficient_matrix,
                             build_c_matrix, kron_solve, pulse_coefficient)
from dimerqpt.reconstruct import reconstruct_rows
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


def test_far_off_resonance_coefficient_is_zero(toolbox):
    """A detuning whose square overflows gives the limit, 0, without a
    warning."""
    assert pulse_coefficient(1e308, 13480.0, toolbox) == 0.0
    assert pulse_coefficient(-1e200, 13480.0, toolbox) == 0.0


def test_base_matrix_values(basis, toolbox):
    base = base_coefficient_matrix([basis.energy_e, basis.energy_ep],
                                   toolbox)
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
    assert np.allclose(kron_solve(cmat.base_2x2, s), p, atol=1e-10)


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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(freq_plus=st.floats(11000.0, 15000.0),
       freq_minus=st.floats(11000.0, 15000.0),
       sigma=st.floats(1.0, 300.0))
@example(freq_plus=13480.0, freq_minus=12130.0, sigma=40.0)
@example(freq_plus=12800.0, freq_minus=12800.0, sigma=40.0)
# C numerically singular: the C solve raised LinAlgError
@example(freq_plus=12416.974123190234, freq_minus=13989.52313478469,
         sigma=37.45790968293625)
# every coefficient tiny: the entries of C underflow and C is singular
@example(freq_plus=14382.545684528857, freq_minus=11218.333258889237,
         sigma=89.05491940292526)
def test_random_toolbox_round_trips_or_is_rejected(basis, freq_plus,
                                                   freq_minus, sigma):
    """A toolbox raises SingularToolboxError, or noiseless signals invert
    through reconstruct_rows to the tensor parameters that made them: within
    1e-10, or, where C is poorly conditioned, within 16 eps cond(C), the
    forward-error scale of a backward-stable solve with C."""
    params = np.random.default_rng(7).normal(size=(3, 16))
    blocks = build_m_blocks(basis, 2.0)
    try:
        cmat = build_c_matrix(basis,
                              PulseToolbox(freq_plus, freq_minus, sigma))
    except SingularToolboxError:
        return
    signals = blocks.apply(params) @ cmat.entries.T
    elements, _, _ = reconstruct_rows(signals, cmat, blocks)
    error = np.max(np.abs(elements - params_to_elements(params)))
    assert error <= max(1e-10, 16 * np.finfo(float).eps
                        * cmat.condition_number)

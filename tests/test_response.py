import numpy as np
import pytest

from dimerqpt.bath import ProcessTensor, propagate_process_tensor
from dimerqpt.isoaverage import (iso_average_four, params_to_tensor,
                                 pathway_index, tensor_to_params,
                                 build_m_blocks)
from dimerqpt.model import build_exciton_basis
from dimerqpt.pulses import build_c_matrix
from dimerqpt.response import (PATHWAY_ORDER, detection_weight,
                               iso_pathway_vector, pathway_terms)


def test_term_counts():
    # three families on the diagonal, two off it
    assert len(pathway_terms(0, 0, 0, 0)) == 3
    assert len(pathway_terms(0, 0, 0, 1)) == 2


def test_detection_weights():
    assert detection_weight("gsb", 2.0) == 1.0
    assert detection_weight("se", 0.5) == 1.0
    assert detection_weight("esa", 2.0) == -1.0
    assert detection_weight("esa", 1.0) == 0.0
    with pytest.raises(ValueError):
        detection_weight("other", 1.0)


def test_identity_tensor_diagonal_amplitude(basis):
    # prepared population (e,e), detected on channel (e,e), gamma = 1:
    # bleach contributes -1 and emission -1, the doubly-excited route is
    # switched off, so the amplitude is -2 <(mu_eg . z)^4>
    ident = ProcessTensor(waiting_time=0.0, elements=np.eye(
        4, dtype=complex).reshape(2, 2, 2, 2))
    value = iso_pathway_vector(basis, 1.0, ident)[pathway_index(0, 0, 0, 0)]
    expected = -2.0 * iso_average_four(*(basis.mu_eg,) * 4)
    assert value == pytest.approx(expected, abs=1e-14)


def test_zero_tensor_gives_zero_vector(basis):
    # the ground-state hole cancels the closure constant exactly
    zero = params_to_tensor(np.zeros(16))
    vec = iso_pathway_vector(basis, 1.3, zero)
    assert np.max(np.abs(vec)) < 1e-15


def test_hermiticity_symmetry_of_pathway_vector(basis, gen, rng):
    # swapping both the preparation and detection transition labels
    # conjugates the amplitude for a Hermitian tensor
    tensor = propagate_process_tensor(gen, 240.0)
    vec = iso_pathway_vector(basis, 0.5, tensor)
    for (p, q, r, s) in PATHWAY_ORDER:
        a = vec[((p * 2 + q) * 2 + r) * 2 + s]
        b = vec[((q * 2 + p) * 2 + s) * 2 + r]
        assert b == pytest.approx(np.conj(a), abs=1e-13)


def test_linearity_in_tensor(basis, rng):
    x1 = rng.normal(size=16)
    x2 = rng.normal(size=16)
    v1 = iso_pathway_vector(basis, 0.8, params_to_tensor(x1))
    v2 = iso_pathway_vector(basis, 0.8, params_to_tensor(x2))
    v12 = iso_pathway_vector(basis, 0.8, params_to_tensor(x1 + 0.5 * x2))
    assert np.allclose(v12, v1 + 0.5 * v2, atol=1e-13)


def test_signal_matches_linear_path(basis, gen, toolbox):
    # pathway-by-pathway synthesis agrees with the geometry-block form
    tensor = propagate_process_tensor(gen, 300.0)
    cmat = build_c_matrix(basis, toolbox)
    signals = cmat.entries @ iso_pathway_vector(basis, 1.5, tensor)
    blocks = build_m_blocks(basis, 1.5)
    expected = cmat.entries @ (blocks.full_matrix()
                               @ tensor_to_params(tensor))
    assert np.allclose(signals, expected, atol=1e-13)


def test_verbatim_variant_differs_but_reconstructs(basis, gen, toolbox):
    # the alternative published reading changes the forward model, yet the
    # blocks derived from the same expressions still invert it exactly
    from dimerqpt.isoaverage import params_to_elements, solve_chi_blocks
    tensor = propagate_process_tensor(gen, 260.0)
    v_std = iso_pathway_vector(basis, 0.5, tensor)
    v_alt = iso_pathway_vector(basis, 0.5, tensor, verbatim=True)
    assert np.max(np.abs(v_std - v_alt)) > 1e-6
    blocks_alt = build_m_blocks(basis, 0.5, verbatim=True)
    rec = params_to_elements(solve_chi_blocks(v_alt[:, None], blocks_alt).T)
    assert np.allclose(rec[0], tensor.elements, atol=1e-10)


def test_verbatim_switches_only_off_diagonal_routes(geometries, rng):
    # the alternative reading touches only the off-diagonal doubly-excited
    # route: every detection-diagonal (r == s) amplitude keeps its bits
    diagonal = [pathway_index(*pqrs) for pqrs in PATHWAY_ORDER
                if pqrs[2] == pqrs[3]]
    off_diagonal = [pathway_index(*pqrs) for pqrs in PATHWAY_ORDER
                    if pqrs[2] != pqrs[3]]
    assert len(diagonal) == 8
    for dimer in geometries:
        basis = build_exciton_basis(dimer)
        for gamma in (0.0, 0.7, 2.0):
            tensor = params_to_tensor(rng.normal(size=16))
            std = iso_pathway_vector(basis, gamma, tensor)
            alt = iso_pathway_vector(basis, gamma, tensor, verbatim=True)
            assert std[diagonal].tobytes() == alt[diagonal].tobytes()
            assert np.any(std[off_diagonal] != alt[off_diagonal])

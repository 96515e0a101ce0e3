import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dimerqpt.bath import ProcessTensor
from dimerqpt.errors import SingularGeometryError
from dimerqpt.isoaverage import (N_PARAMS, build_m_blocks,
                                 closed_form_block_ee, iso_average_four,
                                 params_to_tensor, pathway_index,
                                 solve_chi_blocks, tensor_to_params)
from dimerqpt.model import DimerParams, build_exciton_basis


def mc_average_zzzz(vectors, n_rotations, seed):
    """Oracle: Monte-Carlo orientational average of four z projections."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_rotations:
        chunk = min(100000, n_rotations - done)
        mats = Rotation.random(chunk, rng=rng).as_matrix()
        prod = np.ones(chunk)
        for v in vectors:
            prod *= mats[:, 2, :] @ v
        total += prod.sum()
        total_sq += (prod * prod).sum()
        done += chunk
    mean = total / n_rotations
    var = total_sq / n_rotations - mean * mean
    return mean, np.sqrt(max(var, 0.0) / n_rotations)


def test_zzzz_identity_same_vector(rng):
    v = rng.normal(size=3)
    mu2 = float(v @ v)
    assert iso_average_four(v, v, v, v) == pytest.approx(mu2 * mu2 / 5.0,
                                                        abs=1e-12)


def test_zzzz_identity_orthogonal_pair():
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([1.0, 0.0, 0.0])
    assert iso_average_four(a, a, b, b) == pytest.approx(1.0 / 15.0,
                                                        abs=1e-12)
    assert iso_average_four(a, b, a, b) == pytest.approx(1.0 / 15.0,
                                                        abs=1e-12)
    assert iso_average_four(a, a, a, b) == pytest.approx(0.0, abs=1e-12)


def test_iso_average_matches_monte_carlo(basis):
    tuples = [
        (basis.mu_eg,) * 4,
        (basis.mu_eg, basis.mu_eg, basis.mu_epg, basis.mu_epg),
        (basis.mu_eg, basis.mu_epg, basis.mu_fe, basis.mu_fep),
    ]
    for i, vecs in enumerate(tuples):
        exact = iso_average_four(*vecs)
        mc, se = mc_average_zzzz(vecs, 200000, seed=100 + i)
        assert abs(exact - mc) < 4.0 * se


def test_params_round_trip(rng):
    params = rng.normal(size=N_PARAMS)
    tensor = params_to_tensor(params, waiting_time=17.0)
    assert np.allclose(tensor_to_params(tensor), params, atol=1e-15)
    assert tensor.hermiticity_defect() < 1e-15
    assert tensor.trace_defect() < 1e-15
    assert tensor.waiting_time == 17.0


def test_pathway_index_bijective():
    seen = {pathway_index(p, q, r, s)
            for p in (0, 1) for q in (0, 1) for r in (0, 1) for s in (0, 1)}
    assert seen == set(range(16))


def test_machine_block_matches_closed_form(basis):
    for gamma in (0.0, 0.7, 1.0, 1.5, 2.0):
        blocks = build_m_blocks(basis, gamma)
        reference = closed_form_block_ee(basis, gamma)
        assert np.allclose(blocks.m_ee, reference, atol=1e-13)


def test_block_shapes_and_conditioning(basis):
    blocks = build_m_blocks(basis, 2.0)
    assert blocks.m_ee.shape == (4, 4)
    assert blocks.m_epep.shape == (4, 4)
    assert blocks.m_eep.shape == (8, 8)
    for value in blocks.condition_numbers.values():
        assert value < 1e3


def test_full_matrix_solve_round_trip(basis, rng):
    blocks = build_m_blocks(basis, 1.0)
    params = rng.normal(size=N_PARAMS)
    pathway_vec = blocks.apply(params)
    tensor = solve_chi_blocks(pathway_vec, blocks, waiting_time=5.0)
    assert np.allclose(tensor_to_params(tensor), params, atol=1e-10)


def test_gamma_one_decouples_doubly_excited_routes(basis):
    # at gamma = 1 the (1 - gamma) routes vanish; the ee block collapses to
    # bleach plus emission terms only
    blocks = build_m_blocks(basis, 1.0)
    mu4 = float(basis.mu_eg @ basis.mu_eg) ** 2
    assert blocks.m_ee[0, 0] == pytest.approx(-2.0 * mu4 / 5.0, abs=1e-12)
    assert blocks.m_ee[0, 1] == pytest.approx(-mu4 / 5.0, abs=1e-12)


def test_orthogonal_geometry_singular():
    # equal site dipoles at phi = pi/2 make mu_eg and mu_epg orthogonal;
    # at gamma = 1 the doubly-excited routes are off as well, so the
    # coherence rows of the diagonal blocks vanish
    import math
    ortho = DimerParams(site_energy_1=12881.0, site_energy_2=12719.0,
                        coupling_j=120.0, dipole_ratio_d2_over_d1=1.0,
                        dipole_angle_phi=math.pi / 2)
    basis = build_exciton_basis(ortho)
    assert abs(np.dot(basis.mu_eg, basis.mu_epg)) < 1e-12
    with pytest.raises(SingularGeometryError):
        build_m_blocks(basis, 1.0)


def test_blocks_are_linear_in_gamma(basis):
    # every entry is affine in (1 - gamma); check midpoint consistency
    b0 = build_m_blocks(basis, 0.0)
    b1 = build_m_blocks(basis, 1.0)
    b2 = build_m_blocks(basis, 2.0)
    assert np.allclose(b1.m_eep, 0.5 * (b0.m_eep + b2.m_eep), atol=1e-13)


def test_m_blocks_equal_column_by_column_synthesis():
    # the blocks share one dipole-factor table across all seventeen pathway
    # vectors; each column must equal a vector that builds its own table
    from dimerqpt.response import iso_pathway_vector
    geometries = [
        DimerParams(site_energy_1=12881.0, site_energy_2=12719.0,
                    coupling_j=120.0),
        DimerParams(site_energy_1=12700.0, site_energy_2=12950.0,
                    coupling_j=-80.0, dipole_ratio_d2_over_d1=0.7,
                    dipole_angle_phi=1.1),
        DimerParams(site_energy_1=13000.0, site_energy_2=12500.0,
                    coupling_j=300.0, dipole_angle_phi=2.4),
    ]
    for dimer in geometries:
        basis = build_exciton_basis(dimer)
        for verbatim in (False, True):
            for gamma in (0.0, 1.3):
                blocks = build_m_blocks(basis, gamma, verbatim=verbatim)
                offset = iso_pathway_vector(
                    basis, gamma, params_to_tensor(np.zeros(N_PARAMS)),
                    verbatim=verbatim)
                columns = [iso_pathway_vector(
                    basis, gamma, params_to_tensor(np.eye(N_PARAMS)[k]),
                    verbatim=verbatim) - offset for k in range(N_PARAMS)]
                assert np.array_equal(blocks.full_matrix(),
                                      np.array(columns).T)
                assert np.array_equal(blocks.offset, offset)

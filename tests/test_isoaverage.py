import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dimerqpt import isoaverage, response
from dimerqpt.bath import (ProcessTensor, build_redfield_generator,
                           propagator_elements, secular_dynamics)
from dimerqpt.errors import SingularGeometryError, raise_first_failure
from dimerqpt.isoaverage import (COND_THRESHOLD, N_PARAMS, SECULAR_SLOTS,
                                 build_m_blocks, geometry_blocks,
                                 iso_average_four, params_to_elements,
                                 params_to_tensor, pathway_index,
                                 pathway_structure, secular_params,
                                 solve_chi_blocks, tensor_to_params)
from dimerqpt.model import DimerParams, ExcitonBasis, build_exciton_basis
from dimerqpt.reconstruct import validate_tensor
from dimerqpt.response import DIPOLE_TUPLES, iso_pathway_vector


def closed_form_block_ee(basis: ExcitonBasis, gamma: float):
    """Independent closed-form evaluation of the (e,e)-preparation block.

    Written directly from the collinear-average identity
    <(a.z)(b.z)(c.z)(d.z)> = [(a.b)(c.d) + (a.c)(b.d) + (a.d)(b.c)] / 15
    applied to the pathway dipole products, as a cross-check on the
    machine-derived block.
    """
    mu_eg = basis.mu_eg
    mu_epg = basis.mu_epg
    mu_fe = basis.mu_fe
    mu_fep = basis.mu_fep
    avg = iso_average_four
    g1 = 1.0 - gamma
    m = np.zeros((4, 4), dtype=complex)
    # rows: (r,s) = (e,e), (e,ep), (ep,e), (ep,ep); columns per block ordering
    m[0, 0] = -2.0 * avg(mu_eg, mu_eg, mu_eg, mu_eg)
    m[0, 1] = -avg(mu_eg, mu_eg, mu_eg, mu_eg) \
        - g1 * avg(mu_eg, mu_eg, mu_fep, mu_fep)
    coh = -avg(mu_eg, mu_eg, mu_eg, mu_epg) \
        - g1 * avg(mu_eg, mu_eg, mu_fep, mu_fe)
    m[1, 2] = coh
    m[1, 3] = -1j * coh
    m[2, 2] = coh
    m[2, 3] = 1j * coh
    m[3, 0] = -avg(mu_eg, mu_eg, mu_epg, mu_epg) \
        - g1 * avg(mu_eg, mu_eg, mu_fe, mu_fe)
    m[3, 1] = -2.0 * avg(mu_eg, mu_eg, mu_epg, mu_epg)
    return m


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
    diag = validate_tensor(tensor)
    assert diag.hermiticity_defect < 1e-15
    assert diag.trace_defect < 1e-15
    assert tensor.waiting_time == 17.0


def test_secular_params_fill_the_propagator(basis, bath):
    """The six parameters a secular propagator makes nonzero, put at
    SECULAR_SLOTS, give exactly the elements that bath lays out itself."""
    gen = build_redfield_generator(basis, bath)
    t_grid = [0.0, 150.0, 700.0]
    pop, phase = secular_dynamics(gen.rate_e_to_ep, gen.rate_ep_to_e,
                                  gen.coherence_freq, gen.dephasing_rate,
                                  t_grid)
    params = np.zeros((len(t_grid), N_PARAMS))
    params[:, SECULAR_SLOTS] = secular_params(pop, phase).T
    assert np.array_equal(params_to_elements(params),
                          propagator_elements(gen, t_grid))
    assert len(SECULAR_SLOTS) == 6


def test_raise_first_failure_names_the_first_member():
    """The first member failing any check raises that member's first
    failing check, numbered from ``first_member``; None numbers nothing."""
    checks = [(np.array([False, False, True, True]), KeyError, "first"),
              (np.array([False, True, False, True]), ValueError, "second")]
    with pytest.raises(ValueError, match=r"^member 11: second$"):
        raise_first_failure(10, *checks)
    with pytest.raises(KeyError, match=r"member 3: first"):
        raise_first_failure(1, checks[0])
    with pytest.raises(ValueError, match=r"^second$"):
        raise_first_failure(None, (np.bool_(True), ValueError, "second"))
    raise_first_failure(0, (np.zeros(4, dtype=bool), ValueError, "none"))


def _leak_outside_blocks(monkeypatch):
    """Make ``iso_pathway_vector`` put one unit outside the blocks: in the
    pathway and probe column of the first off-block entry of the map, for a
    basis and for the one-hot table of the first dipole factor."""
    pathway, param = np.argwhere(~isoaverage._BLOCK_MASK)[0]
    original = response.iso_pathway_vector

    def leaky(basis, gamma, tensor, verbatim=False, table=None):
        out = original(basis, gamma, tensor, verbatim=verbatim, table=table)
        if table is None or table[DIPOLE_TUPLES[0]] == 1.0:
            out[pathway, 1 + param] += 1.0
        return out

    monkeypatch.setattr(response, "iso_pathway_vector", leaky)
    return pathway, param


@pytest.mark.parametrize("verbatim", [False, True])
def test_block_pattern_checked_on_the_structure(monkeypatch, verbatim):
    """A structure with one nonzero entry outside the blocks is rejected
    where it is built, once for every dipole geometry."""
    _leak_outside_blocks(monkeypatch)
    with pytest.raises(RuntimeError, match="not block diagonal"):
        pathway_structure.__wrapped__(verbatim)


def test_block_pattern_checked_on_the_probed_map(basis, monkeypatch):
    """build_m_blocks, whose map is probed numerically, still rejects a map
    that is not block diagonal; geometry_blocks does not look outside the
    blocks."""
    clean = build_m_blocks(basis, 1.0)
    pathway, param = _leak_outside_blocks(monkeypatch)
    with pytest.raises(RuntimeError, match="not block diagonal"):
        build_m_blocks(basis, 1.0)
    full = clean.full_matrix()
    full[pathway, param] = 1.0
    blocks = geometry_blocks(clean.offset, full)
    for name in ("m_ee", "m_epep", "m_eep"):
        assert np.array_equal(getattr(blocks, name), getattr(clean, name))


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
    params = rng.normal(size=(3, N_PARAMS))
    pathways = blocks.apply(params)
    assert np.allclose(solve_chi_blocks(pathways.T, blocks), params.T,
                       atol=1e-10)


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


def column_by_column(basis, gamma, verbatim):
    """Oracle: the full map and offset from one pathway vector per column,
    each building its own dipole-factor table."""
    offset = iso_pathway_vector(basis, gamma,
                                params_to_tensor(np.zeros(N_PARAMS)),
                                verbatim=verbatim)
    columns = [iso_pathway_vector(basis, gamma,
                                  params_to_tensor(np.eye(N_PARAMS)[k]),
                                  verbatim=verbatim) - offset
               for k in range(N_PARAMS)]
    return np.array(columns).T, offset


def test_m_blocks_equal_column_by_column_synthesis(geometries):
    # the blocks come from one pass over the stacked probe tensor; each
    # column must equal a vector evaluated on its own
    for dimer in geometries:
        basis = build_exciton_basis(dimer)
        for verbatim in (False, True):
            for gamma in (0.0, 1.3):
                blocks = build_m_blocks(basis, gamma, verbatim=verbatim)
                full, offset = column_by_column(basis, gamma, verbatim)
                assert np.array_equal(blocks.full_matrix(), full)
                assert np.array_equal(blocks.offset, offset)


@settings(derandomize=True, max_examples=60, deadline=None)
@example(e1=12881.0, e2=12719.0, coupling=120.0, ratio=1.0,
         phi=math.pi / 2, gamma=1.0, verbatim=False)
@given(e1=st.floats(12000.0, 14000.0), e2=st.floats(12000.0, 14000.0),
       coupling=st.floats(-400.0, 400.0), ratio=st.floats(0.2, 5.0),
       phi=st.floats(0.0, math.pi), gamma=st.floats(0.0, 2.0),
       verbatim=st.booleans())
def test_m_blocks_random_dimers(e1, e2, coupling, ratio, phi, gamma,
                                verbatim):
    # a random geometry either reproduces the column-by-column map exactly
    # or is rejected as singular, and then the map really is ill conditioned
    assume(e1 != e2 or coupling != 0.0)
    basis = build_exciton_basis(DimerParams(
        site_energy_1=e1, site_energy_2=e2, coupling_j=coupling,
        dipole_ratio_d2_over_d1=ratio, dipole_angle_phi=phi))
    full, offset = column_by_column(basis, gamma, verbatim)
    try:
        blocks = build_m_blocks(basis, gamma, verbatim=verbatim)
    except SingularGeometryError:
        assert np.linalg.cond(full) > COND_THRESHOLD
        return
    assert np.array_equal(blocks.full_matrix(), full)
    assert np.array_equal(blocks.offset, offset)

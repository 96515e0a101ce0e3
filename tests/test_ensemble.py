import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dimerqpt import cli, ensemble
from dimerqpt.bath import build_redfield_generator, propagate_process_tensor
from dimerqpt.config import default_config
from dimerqpt.ensemble import (EnsembleSpec, evaluate_ensemble,
                               run_ensemble, sample_members,
                               synthesize_signal_table)
from dimerqpt.errors import DegenerateDimerError, SingularGeometryError
from dimerqpt.isoaverage import (build_m_blocks, pathway_structure,
                                 tensor_to_params)
from dimerqpt.model import DimerParams, build_exciton_basis
from dimerqpt.pulses import build_c_matrix, check_generators
from dimerqpt.reconstruct import (reconstruct_rows, reconstruct_single,
                                  validate_tensor)

T_GRID = (150.0, 300.0, 450.0)
GAMMAS = (0.0, 0.5, 1.0, 1.5, 2.0)

# coupling, dipoles and Gamma differ from member to member
HAND_BUILT = [
    DimerParams(site_energy_1=12881.0, site_energy_2=12719.0,
                coupling_j=120.0),
    DimerParams(site_energy_1=12700.0, site_energy_2=12950.0,
                coupling_j=-80.0, dipole_d1=1.3, dipole_ratio_d2_over_d1=0.7,
                dipole_angle_phi=1.1, quantum_yield_gamma=0.5),
    DimerParams(site_energy_1=13000.0, site_energy_2=12500.0,
                coupling_j=300.0, dipole_ratio_d2_over_d1=2.5,
                dipole_angle_phi=2.4, quantum_yield_gamma=1.5),
    DimerParams(site_energy_1=12800.0, site_energy_2=12790.0,
                coupling_j=45.0, dipole_d1=0.8, dipole_angle_phi=0.6,
                quantum_yield_gamma=0.0),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n_members=0)
    with pytest.raises(ValueError):
        EnsembleSpec(sigma_inh=-1.0)


def test_zero_disorder_members_identical(dimer):
    members = sample_members(dimer, EnsembleSpec(n_members=5, sigma_inh=0.0,
                                                 seed=1))
    assert all(m == dimer for m in members)


def test_sampling_deterministic(dimer):
    spec = EnsembleSpec(n_members=50, sigma_inh=40.0, seed=99)
    a = sample_members(dimer, spec)
    b = sample_members(dimer, spec)
    assert a == b
    c = sample_members(dimer, EnsembleSpec(n_members=50, sigma_inh=40.0,
                                           seed=100))
    assert a != c


@pytest.mark.parametrize("sigma", [0.0, 40.0])
def test_members_are_the_sampled_list(dimer, sigma):
    """Member i of ``Members`` is entry i of ``sample_members``, the draw of
    the generator spawned at key (i,) of the seed, at any index or slice."""
    spec = EnsembleSpec(n_members=7, sigma_inh=sigma, seed=13)
    members = ensemble.Members(dimer, spec)
    listed = sample_members(dimer, spec)
    assert len(members) == len(listed) == 7
    for i, member in enumerate(listed):
        rng = np.random.default_rng(np.random.SeedSequence(13,
                                                           spawn_key=(i,)))
        assert member == replace(
            dimer, site_energy_1=rng.normal(dimer.site_energy_1, sigma),
            site_energy_2=rng.normal(dimer.site_energy_2, sigma))
        assert members[i] == member
    assert members[-1] == listed[-1] and members[-7] == listed[0]
    assert members[1:6:2] == listed[1:6:2]
    assert members[::-3] == listed[::-3]
    assert members[5:50] == listed[5:]
    for index in (7, -8):
        with pytest.raises(IndexError):
            members[index]


def test_cli_draws_members_only_when_sliced(monkeypatch):
    """The CLI's member source for a 10^5-member ensemble is built without
    drawing a member and allocates under 64 KiB; a slice draws its members
    alone.  A list of the members would hold about 20 MiB."""
    drawn = []
    default_rng = np.random.default_rng

    def counted(*args):
        drawn.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counted)
    config = replace(default_config(), ensemble=EnsembleSpec(
        n_members=100_000, sigma_inh=40.0, seed=7))
    tracemalloc.start()
    try:
        members = cli._members(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert not drawn
    assert len(members) == 100_000
    chunk = members[99_998:]
    assert len(drawn) == 2
    assert chunk == [members[99_998], members[-1]]


def test_sample_mean_within_standard_error(dimer):
    spec = EnsembleSpec(n_members=10000, sigma_inh=40.0, seed=3)
    members = sample_members(dimer, spec)
    mean1 = np.mean([m.site_energy_1 for m in members])
    mean2 = np.mean([m.site_energy_2 for m in members])
    bound = 3.0 * spec.sigma_inh / np.sqrt(spec.n_members)
    assert abs(mean1 - dimer.site_energy_1) < bound
    assert abs(mean2 - dimer.site_energy_2) < bound
    # shared fields untouched
    assert all(m.coupling_j == dimer.coupling_j for m in members[:100])


def test_single_member_equals_direct_synthesis(dimer, bath, toolbox):
    table = run_ensemble([dimer], bath, toolbox, T_GRID,
                         want_tensors=False).signal_table
    direct = synthesize_signal_table(dimer, bath, toolbox, T_GRID)
    assert np.array_equal(table.values, direct.values)


def test_reduction_in_member_order(dimer, bath, toolbox):
    spec = EnsembleSpec(n_members=6, sigma_inh=40.0, seed=11)
    members = sample_members(dimer, spec)
    result = run_ensemble(members, bath, toolbox, T_GRID)
    sums = None
    for member in members:
        one = run_ensemble([member], bath, toolbox, T_GRID)
        parts = (one.signal_table.values, one.pathway_means, one.elements,
                 one.grounds)
        sums = list(parts) if sums is None else [
            total + part for total, part in zip(sums, parts)]
    sig, pw, el, gr = (total / len(members) for total in sums)
    assert np.array_equal(result.signal_table.values, sig)
    assert np.array_equal(result.pathway_means, pw)
    assert np.array_equal([t.elements for t in result.tensors], el)
    assert np.array_equal([t.ground_row for t in result.tensors], gr)


def test_ensemble_tensor_stays_physical(dimer, bath, toolbox):
    spec = EnsembleSpec(n_members=40, sigma_inh=40.0, seed=5)
    members = sample_members(dimer, spec)
    result = run_ensemble(members, bath, toolbox, T_GRID)
    for tensor in result.tensors:
        diag = validate_tensor(tensor)
        assert diag.passed(herm_tol=1e-12, trace_tol=1e-12, choi_tol=1e-10)


def test_linearity_transfer_fixed_matrices(dimer, bath, toolbox):
    # with one fixed inversion matrix pair, reconstructing the averaged
    # signals equals averaging the per-member reconstructions
    spec = EnsembleSpec(n_members=12, sigma_inh=40.0, seed=21)
    members = sample_members(dimer, spec)
    from dimerqpt.model import build_exciton_basis
    basis = build_exciton_basis(dimer)
    cmat = build_c_matrix(basis, toolbox)
    blocks = build_m_blocks(basis, dimer.quantum_yield_gamma)

    tables = [run_ensemble([m], bath, toolbox, T_GRID,
                           want_tensors=False).signal_table.values
              for m in members]
    mean_signals = np.mean(tables, axis=0)
    from_mean, _ = reconstruct_single(mean_signals[1], cmat, blocks,
                                      T_GRID[1])
    member_recs = [reconstruct_single(t[1], cmat, blocks, T_GRID[1])[0]
                   for t in tables]
    mean_elements = np.mean([r.elements for r in member_recs], axis=0)
    assert np.allclose(from_mean.elements, mean_elements, atol=1e-10)


def test_inhomogeneous_tensor_differs_from_homogeneous(dimer, bath, toolbox):
    spec = EnsembleSpec(n_members=60, sigma_inh=40.0, seed=8)
    members = sample_members(dimer, spec)
    ens = run_ensemble(members, bath, toolbox, T_GRID)
    homo = run_ensemble([dimer], bath, toolbox, T_GRID)
    diff = np.max(np.abs(ens.tensors[-1].elements
                         - homo.tensors[-1].elements))
    assert diff > 1e-4


def test_empty_members_rejected(bath, toolbox):
    with pytest.raises(ValueError):
        run_ensemble([], bath, toolbox, T_GRID)


def member_oracle(member, gamma, bath, toolbox, t_grid, verbatim):
    """Oracle: one member through its probe-evaluated geometry blocks, one
    propagator per waiting time, the dense C matrix and its LU solve."""
    basis = build_exciton_basis(member)
    gen = build_redfield_generator(basis, bath)
    cmat = build_c_matrix(basis, toolbox)
    blocks = build_m_blocks(basis, gamma, verbatim=verbatim)
    pathways = np.array([
        blocks.apply(tensor_to_params(propagate_process_tensor(gen, t)))
        for t in t_grid])
    signals = pathways @ cmat.entries.T
    elements, grounds, _ = reconstruct_rows(signals, cmat, blocks)
    return signals, pathways, elements, grounds


def oracle_means(members, gammas, bath, toolbox, verbatim):
    parts = [member_oracle(m, g, bath, toolbox, T_GRID, verbatim)
             for m, g in zip(members, gammas)]
    return [np.mean(arrays, axis=0) for arrays in zip(*parts)]


def assert_matches_oracle(result, expected):
    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))
    sig, pw, el, gr = expected
    assert rel(result.signal_table.values, sig) <= 1e-14
    assert rel(result.pathway_means, pw) <= 1e-14
    assert np.max(np.abs(result.elements - el)) <= 1e-12
    assert np.max(np.abs(result.grounds - gr)) <= 1e-12


@pytest.mark.parametrize("verbatim", [False, True])
def test_engine_matches_member_oracle(geometries, bath, toolbox, verbatim):
    for members in (geometries, HAND_BUILT):
        results = evaluate_ensemble(members, bath, toolbox, T_GRID, GAMMAS,
                                    verbatim=verbatim)
        for gamma, result in zip(GAMMAS, results):
            assert_matches_oracle(result, oracle_means(
                members, [gamma] * len(members), bath, toolbox, verbatim))
    # each member at its own Gamma
    own = [m.quantum_yield_gamma for m in HAND_BUILT]
    assert_matches_oracle(
        run_ensemble(HAND_BUILT, bath, toolbox, T_GRID, verbatim=verbatim),
        oracle_means(HAND_BUILT, own, bath, toolbox, verbatim))


@pytest.mark.parametrize("verbatim", [False, True])
def test_member_arrays_independent_of_batch(dimer, bath, toolbox, verbatim,
                                            monkeypatch):
    members = HAND_BUILT + sample_members(
        dimer, EnsembleSpec(n_members=5, sigma_inh=40.0, seed=17))
    gammas = np.array([m.quantum_yield_gamma for m in members])
    structure = pathway_structure(verbatim)
    t_grid = np.array(T_GRID)

    def arrays(start, stop):
        chunk = ensemble.prepare(members[start:stop], start, bath, toolbox,
                                 t_grid)
        return ensemble._evaluate(chunk, gammas[start:stop], structure, True)

    batch = arrays(0, len(members))
    assert list(batch) == ["signals", "pathways", "elements", "grounds"]
    for i in range(len(members)):
        alone = arrays(i, i + 1)
        assert alone.keys() == batch.keys()
        for name, part in batch.items():
            assert np.array_equal(part[i], alone[name][0])

    whole = run_ensemble(members, bath, toolbox, T_GRID, verbatim=verbatim)
    # chunks of 3, 3 and 3 members: the running sums cross two boundaries
    monkeypatch.setattr(ensemble, "_CHUNK_MEMBER_TIMES",
                        3 * (len(T_GRID) + 32))
    chunked = run_ensemble(members, bath, toolbox, T_GRID, verbatim=verbatim)
    sums = None
    for member in members:
        one = run_ensemble([member], bath, toolbox, T_GRID,
                           verbatim=verbatim)
        parts = (one.signal_table.values, one.pathway_means, one.elements,
                 one.grounds)
        sums = list(parts) if sums is None else [
            total + part for total, part in zip(sums, parts)]
    for result in (whole, chunked):
        for got, total in zip((result.signal_table.values,
                               result.pathway_means, result.elements,
                               result.grounds), sums):
            assert np.array_equal(got, total / len(members))


@pytest.mark.parametrize("chunk", [1024, 2])
def test_singular_member_is_named(dimer, bath, toolbox, chunk, monkeypatch):
    # equal site dipoles at phi = pi/2 are orthogonal; at Gamma = 1 the
    # coherence rows of the diagonal geometry blocks vanish
    ortho = replace(dimer, dipole_ratio_d2_over_d1=1.0,
                    dipole_angle_phi=math.pi / 2)
    members = sample_members(dimer, EnsembleSpec(n_members=6, sigma_inh=40.0,
                                                 seed=2))
    members[3] = ortho
    members = [replace(m, quantum_yield_gamma=1.0) for m in members]
    monkeypatch.setattr(ensemble, "_CHUNK_MEMBER_TIMES",
                        chunk * (len(T_GRID) + 32))
    with pytest.raises(SingularGeometryError, match=r"^member 3: geometry"):
        run_ensemble(members, bath, toolbox, T_GRID)
    # the forward pass inverts no M, so the singular block does not stop it
    forward = run_ensemble(members, bath, toolbox, T_GRID, want_tensors=False)
    assert np.isfinite(forward.signal_table.values).all()


def test_failures_surface_chunk_by_chunk(dimer, bath, toolbox, monkeypatch):
    """Each chunk is prepared and run at every Gamma before the next chunk
    is prepared, so the first failure in chunk order is named.  With chunks
    of 3 members and Gamma (0, 1), member 1 (singular at Gamma = 1 only)
    fails the inverting pass in the first chunk, before member 4, whose
    dipole factors overflow, is prepared in the second.  The forward pass
    inverts no M, so it runs on to member 4."""
    ortho = replace(dimer, dipole_ratio_d2_over_d1=1.0,
                    dipole_angle_phi=math.pi / 2)
    members = [dimer, ortho, dimer, dimer, replace(dimer, dipole_d1=1e200),
               dimer]
    monkeypatch.setattr(ensemble, "_CHUNK_MEMBER_TIMES",
                        3 * (len(T_GRID) + 32))
    with pytest.raises(SingularGeometryError,
                       match=r"^member 1: geometry block ee is singular"):
        evaluate_ensemble(members, bath, toolbox, T_GRID, (0.0, 1.0))
    with pytest.raises(ValueError, match=r"^member 4: isotropic dipole "
                       r"factors are not finite$"):
        evaluate_ensemble(members, bath, toolbox, T_GRID, (0.0, 1.0),
                          want_tensors=False)


def test_empty_grid_gives_empty_means(dimer, bath, toolbox):
    result = run_ensemble([dimer, dimer], bath, toolbox, [])
    assert result.signal_table.values.shape == (0, 16)
    assert result.pathway_means.shape == (0, 16)
    assert result.elements.shape == (0, 2, 2, 2, 2)
    assert result.grounds.shape == (0, 2, 2)


@pytest.mark.parametrize("start", [0, 10])
def test_prepare_names_the_first_failing_member(dimer, bath, toolbox, start):
    """prepare raises for the first member that fails any of its checks:
    here member 2, whose dipole factors overflow, and not member 3, a dimer
    whose site energies differ by less than the half-difference resolves."""
    members = [dimer, dimer, replace(dimer, dipole_d1=1e200),
               DimerParams(site_energy_1=5e-324, site_energy_2=0.0,
                           coupling_j=0.0)]
    with pytest.raises(ValueError, match=rf"^member {start + 2}: isotropic "
                       "dipole factors are not finite$"):
        ensemble.prepare(members, start, bath, toolbox, T_GRID)
    with pytest.raises(DegenerateDimerError,
                       match=rf"^member {start + 3}: degenerate dimer"):
        ensemble.prepare(members[3:], start + 3, bath, toolbox, T_GRID)


def test_overflow_is_checked_not_warned(geometries, bath, toolbox):
    """Signals that overflow although C is finite raise, naming the member;
    means that overflow although every member's signals are finite come
    out infinite, for the CSV writer to refuse.  No numpy warning either
    way (a warning fails the tests)."""
    def peak(dimer):
        """Largest real or imaginary part of the signals at field 1."""
        values = synthesize_signal_table(dimer, bath, toolbox, T_GRID).values
        return max(np.abs(values.real).max(), np.abs(values.imag).max())

    def field(strength):
        return replace(toolbox, field_strength_lambda=strength)

    # signals go as the fourth power of the field strength; this geometry's
    # signals peak about 18 times higher than its C, the default's about as
    # high as its C
    wide, default = geometries[2], geometries[0]
    strength = (1e308 / peak(wide)) ** 0.25 * 10 ** 0.25
    with pytest.raises(ValueError, match=r"^member 1: geometry map or "
                       r"signals are not finite$"):
        run_ensemble([default, wide], bath, field(strength), T_GRID)
    strength = 1.2e308 ** 0.25 / peak(default) ** 0.25
    result = run_ensemble([default, default], bath, field(strength), T_GRID,
                          want_tensors=False)
    assert np.isinf(result.signal_table.values).any()


def test_worst_conditioned_default_member_round_trips():
    """The default ensemble's worst-conditioned member, cond(C) ~ 1.35e12,
    still inverts its noiseless signals to its own propagator at every
    default Gamma: cond(C) bounds the noise gain, not the exact-data error,
    of the (base^-1)^(x)4 inverse."""
    config = default_config()
    members = sample_members(config.dimer, config.ensemble)
    prepared = ensemble.prepare(members, 0, config.bath, config.toolbox,
                                config.t_grid)
    cond_base = check_generators(prepared.base, config.toolbox)
    worst = int(np.argmax(cond_base))
    assert worst == 7298
    assert cond_base[worst] ** 4 == pytest.approx(1.35e12, rel=0.01)
    one = ensemble.prepare(members[worst:worst + 1], worst, config.bath,
                           config.toolbox, config.t_grid)
    truth, truth_grounds = ensemble.propagators(one)
    structure = pathway_structure(False)
    for gamma in config.gamma_list:
        gamma = np.array([gamma])
        parts = ensemble._evaluate(one, gamma, structure, False)
        assert list(parts) == ["signals", "pathways"]
        _, elements, grounds = ensemble.invert(one, gamma, parts["signals"])
        assert np.max(np.abs(elements - truth)) <= 1e-12
        assert np.max(np.abs(grounds - truth_grounds)) <= 1e-12


def _max_error(elements, grounds, truth, truth_grounds):
    """Per waiting time, the largest element or ground-row error."""
    n = len(elements)
    return np.maximum(
        np.abs(elements - truth).reshape(n, -1).max(axis=1),
        np.abs(grounds - truth_grounds).reshape(n, -1).max(axis=1))


def test_noise_gain_within_two_stage_bound():
    """Seeded noise study: the homogeneous default dimer's signals with the
    CLI's relative noise 1e-3, 10 draws, every default Gamma.  At each T
    the largest element or ground-row error against the propagator stays
    within 2 |ds|_2 / (s_min(base)^4 min_b s_min(M_b(Gamma))).

    sigma_min(C) = s_min(base)^4 bounds the first stage and the smallest
    block singular value the second, so the parameter error is at most
    |ds|_2 / (s_min(base)^4 min_b s_min(M_b)).  An element is one
    parameter or Re + i Im of two, so its error is at most that; a
    ground-row entry is minus the sum of two elements, hence the factor 2.
    The bound is for exact arithmetic, so twice the noiseless round trip's
    error at that T is allowed on top.
    """
    config = default_config()
    one = ensemble.prepare([config.dimer], 0, config.bath, config.toolbox,
                           config.t_grid)
    truth, truth_grounds = (array[0] for array in ensemble.propagators(one))
    first_stage = np.linalg.svd(one.base[0], compute_uv=False)[-1] ** 4
    results = evaluate_ensemble([config.dimer], config.bath, config.toolbox,
                                config.t_grid, config.gamma_list,
                                want_tensors=False)
    medians = {}
    for index, (gamma, result) in enumerate(zip(config.gamma_list,
                                                results)):
        clean = result.signal_table.values              # (T, 16)
        blocks, (elements,), (grounds,) = ensemble.invert(
            one, np.array([gamma]), clean.T[None])
        rounding = _max_error(elements, grounds, truth, truth_grounds)
        second_stage = min(np.linalg.svd(block[0], compute_uv=False)[-1]
                           for block in (blocks.m_ee, blocks.m_epep,
                                         blocks.m_eep))
        worst = []
        for seed in range(10):
            noisy = cli._apply_noise(clean, 1e-3, seed, index)
            _, (elements,), (grounds,) = ensemble.invert(
                one, np.array([gamma]), noisy.T[None], blocks=blocks)
            error = _max_error(elements, grounds, truth, truth_grounds)
            bound = (2 * np.linalg.norm(noisy - clean, axis=1)
                     / (first_stage * second_stage))
            assert (error <= bound + 2 * rounding).all(), (gamma, seed)
            worst.append(error.max())
        medians[gamma] = float(np.median(worst))
    print("median max element error per Gamma, relative noise 1e-3:",
          {gamma: f"{error:.2e}" for gamma, error in medians.items()})

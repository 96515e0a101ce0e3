import numpy as np
import pytest

from dimerqpt.ensemble import (EnsembleSpec, evaluate_member, run_ensemble,
                               sample_members, synthesize_signal_table)
from dimerqpt.isoaverage import build_m_blocks
from dimerqpt.pulses import build_c_matrix
from dimerqpt.reconstruct import reconstruct_single, validate_tensor

T_GRID = (150.0, 300.0, 450.0)


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
        parts = evaluate_member(member, bath, toolbox, T_GRID)
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

    tables = [evaluate_member(m, bath, toolbox, T_GRID,
                              want_tensors=False)[0] for m in members]
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

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line so the run log reads as a checklist.
"""

import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dimerqpt.bath import propagate_process_tensor
from dimerqpt.config import default_config
from dimerqpt.ensemble import (EnsembleSpec, run_ensemble, sample_members,
                               synthesize_signal_table)
from dimerqpt.isoaverage import (N_PARAMS, build_m_blocks, iso_average_four,
                                 params_to_tensor, tensor_to_params)
from dimerqpt.model import build_exciton_basis
from dimerqpt.pulses import build_c_matrix
from dimerqpt.reconstruct import (invert_signals, reconstruct,
                                  reconstruct_single, tensor_distance,
                                  validate_tensor)
from dimerqpt.response import (PATHWAY_ORDER, iso_pathway_vector,
                               projection_table)
from tests.test_reconstruct import random_lindblad_tensor

CFG = default_config()
GAMMAS = (0.0, 0.5, 1.0, 1.5, 2.0)


@pytest.fixture(scope="module")
def machinery():
    basis = build_exciton_basis(CFG.dimer)
    from dimerqpt.bath import build_redfield_generator
    gen = build_redfield_generator(basis, CFG.bath)
    cmat = build_c_matrix(basis, CFG.toolbox)
    blocks = {g: build_m_blocks(basis, g) for g in GAMMAS}
    return basis, gen, cmat, blocks


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_closed_loop(machinery):
    basis, gen, cmat, blocks = machinery
    start = time.time()
    truth = [propagate_process_tensor(gen, t) for t in CFG.t_grid]
    table = synthesize_signal_table(CFG.dimer, CFG.bath, CFG.toolbox,
                                    CFG.t_grid)
    report = reconstruct(table, cmat, blocks[2.0], reference=truth)
    elapsed = time.time() - start
    err = report.max_reference_error()
    _report("1 closed-loop",
            err <= 1e-8 and elapsed <= 10.0,
            f"max deviation {err:.3e}, runtime {elapsed:.2f} s")


def test_criterion_2_gamma_insensitivity(machinery):
    basis, gen, cmat, blocks = machinery
    start = time.time()
    tensors = {}
    pathway_at_200 = {}
    for gamma in GAMMAS:
        recs = []
        for t in CFG.t_grid:
            truth = propagate_process_tensor(gen, t)
            pv = iso_pathway_vector(basis, gamma, truth)
            if t == 200.0:
                pathway_at_200[gamma] = pv
            rec, _ = reconstruct_single(cmat.entries @ pv, cmat,
                                        blocks[gamma], t)
            recs.append(rec)
        tensors[gamma] = recs
    max_pair = 0.0
    for i, ga in enumerate(GAMMAS):
        for gb in GAMMAS[i + 1:]:
            for a, b in zip(tensors[ga], tensors[gb]):
                max_pair = max(max_pair, tensor_distance(a, b))
    scale = np.max(np.abs(pathway_at_200[2.0]))
    signal_spread = np.max(np.abs(pathway_at_200[0.0]
                                  - pathway_at_200[2.0])) / scale
    elapsed = time.time() - start
    _report("2 gamma-insensitivity",
            max_pair <= 1e-8 and signal_spread > 0.10 and elapsed <= 60.0,
            f"pairwise tensor spread {max_pair:.3e}, signal spread "
            f"{signal_spread:.1%}, runtime {elapsed:.2f} s")


def test_criterion_3_amplitude_ordering(machinery):
    basis, gen, cmat, blocks = machinery
    truth = propagate_process_tensor(gen, 200.0)
    vectors = {g: iso_pathway_vector(basis, g, truth) for g in (0., 1., 2.)}
    scale = np.max(np.abs(vectors[0.0]))
    checked = 0
    ok = True
    for idx in range(16):
        v0, v1, v2 = (vectors[g][idx] for g in (0., 1., 2.))
        dominant_real = abs(v0) > 0.05 * scale and abs(v0.imag) < 1e-12
        if not dominant_real:
            continue
        checked += 1
        # every surviving component carries doubly-excited content, so the
        # ordering must be strict
        ok = ok and abs(v0) > abs(v1) > abs(v2)
    _report("3 amplitude-ordering", ok and checked >= 3,
            f"{checked} dominant real components, strictly ordered: {ok}")


def test_criterion_4_tensor_properties(machinery):
    basis, gen, cmat, blocks = machinery
    worst = {"herm": 0.0, "trace": 0.0, "eig": 0.0}
    for t in CFG.t_grid:
        truth = propagate_process_tensor(gen, t)
        rec, _ = reconstruct_single(
            cmat.entries @ iso_pathway_vector(basis, 2.0, truth),
            cmat, blocks[2.0], t)
        for tensor in (truth, rec):
            diag = validate_tensor(tensor)
            worst["herm"] = max(worst["herm"], diag.hermiticity_defect)
            worst["trace"] = max(worst["trace"], diag.trace_defect)
            worst["eig"] = min(worst["eig"], diag.min_choi_eig)
    ok = (worst["herm"] <= 1e-10 and worst["trace"] <= 1e-10
          and worst["eig"] >= -1e-8)
    _report("4 tensor-properties", ok,
            f"herm {worst['herm']:.1e}, trace {worst['trace']:.1e}, "
            f"min Choi eig {worst['eig']:.1e}")


def _mc_projection_table(basis, keys, n_rotations, seed, chunk=200000):
    """Monte-Carlo estimate (mean, standard error) per dipole tuple.

    One shared rotation stream for all tuples; products of lab-z
    projections of the rotated molecular dipoles.
    """
    labels = sorted({lab for key in keys for lab in key})
    sums = {key: 0.0 for key in keys}
    sqs = {key: 0.0 for key in keys}
    rng = np.random.default_rng(seed)
    done = 0
    while done < n_rotations:
        size = min(chunk, n_rotations - done)
        zrows = Rotation.random(size, rng=rng).as_matrix()[:, 2, :]
        proj = {lab: zrows @ basis.dipole(lab) for lab in labels}
        for key in keys:
            prod = proj[key[0]] * proj[key[1]] * proj[key[2]] * proj[key[3]]
            sums[key] += prod.sum()
            sqs[key] += (prod * prod).sum()
        done += size
    means, ses = {}, {}
    for key in keys:
        mean = sums[key] / n_rotations
        var = max(sqs[key] / n_rotations - mean * mean, 0.0)
        means[key] = mean
        ses[key] = np.sqrt(var / n_rotations)
    return means, ses


def _full_matrix_from_table(basis, gamma, table):
    zero = iso_pathway_vector(basis, gamma,
                              params_to_tensor(np.zeros(N_PARAMS)),
                              table=table)
    cols = []
    for k in range(N_PARAMS):
        unit = np.zeros(N_PARAMS)
        unit[k] = 1.0
        cols.append(iso_pathway_vector(basis, gamma, params_to_tensor(unit),
                                       table=table) - zero)
    return np.array(cols).T


def test_criterion_5_orientation_oracle(machinery):
    basis, gen, cmat, blocks = machinery
    gamma = 0.5
    analytic_table = projection_table(basis, iso=True)
    keys = list(analytic_table)
    n_rot = 10_000_000
    mc_means, mc_ses = _mc_projection_table(basis, keys, n_rot, seed=424242)

    m_exact = _full_matrix_from_table(basis, gamma, analytic_table)
    m_mc = _full_matrix_from_table(basis, gamma, mc_means)
    # conservative per-entry error: sum of |coefficient| x tuple SE, from
    # one-hot probes of the table -> matrix map
    se_matrix = np.zeros(m_exact.shape)
    for key in keys:
        onehot = {k: (1.0 if k == key else 0.0) for k in keys}
        coeff = _full_matrix_from_table(basis, gamma, onehot)
        se_matrix += np.abs(coeff) * mc_ses[key]

    diff = np.abs(m_exact - m_mc)
    slack = 3.0 * se_matrix + 1e-14 * np.max(np.abs(m_exact))
    within = bool(np.all(diff <= slack))

    # analytic collinear-average identities
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    v = basis.mu_eg
    mu2 = float(v @ v)
    ident_ok = (abs(iso_average_four(v, v, v, v) - mu2 * mu2 / 5.0) < 1e-12
                and abs(iso_average_four(z, z, x, x) - 1.0 / 15.0) < 1e-12
                and abs(iso_average_four(z, x, z, x) - 1.0 / 15.0) < 1e-12)
    _report("5 orientation-oracle", within and ident_ok,
            f"{n_rot} rotations, max |diff|/slack "
            f"{np.max(diff / np.where(slack > 0, slack, 1.0)):.2f}, "
            f"identities {ident_ok}")


def test_criterion_6_gamma2_photon_echo(machinery):
    basis, gen, cmat, blocks = machinery

    # independent photon-echo expressions, written directly from the dot
    # products; ESA enters with the opposite sign and there is one overall
    # sign relative to the fluorescence convention
    def avg(a, b, c, d):
        return ((a @ b) * (c @ d) + (a @ c) * (b @ d)
                + (a @ d) * (b @ c)) / 15.0

    g_mu = {0: basis.mu_eg, 1: basis.mu_epg}
    f_mu = {0: basis.mu_fep, 1: basis.mu_fe}

    def pes(p, q, r, s, chi):
        el = chi.elements
        gr = chi.ground_row
        if r == s:
            gsb = avg(g_mu[p], g_mu[q], g_mu[r], g_mu[r]) \
                * ((1.0 if p == q else 0.0) - gr[q, p])
            se = avg(g_mu[p], g_mu[q], g_mu[r], g_mu[r]) * el[r, r, q, p]
            esa = avg(g_mu[p], g_mu[q], f_mu[r], f_mu[r]) \
                * el[1 - r, 1 - r, q, p]
        else:
            gsb = 0.0
            se = avg(g_mu[p], g_mu[q], g_mu[r], g_mu[s]) * el[s, r, q, p]
            esa = avg(g_mu[p], g_mu[q], f_mu[r], f_mu[s]) * el[s, r, q, p]
        return gsb + se - esa

    truth = propagate_process_tensor(gen, 260.0)
    ours = iso_pathway_vector(basis, 2.0, truth)
    theirs = np.array([pes(p, q, r, s, truth)
                       for (p, q, r, s) in PATHWAY_ORDER])
    # resolve the global sign on the largest component
    ref = np.argmax(np.abs(ours))
    sign = np.sign((ours[ref] / theirs[ref]).real)
    err = float(np.max(np.abs(ours - sign * theirs)))
    _report("6 gamma2-photon-echo", err <= 1e-12,
            f"global sign {sign:+.0f}, max deviation {err:.3e}")


def test_criterion_7_random_map_round_trip(machinery):
    basis, gen, cmat, blocks = machinery
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        truth = random_lindblad_tensor(rng)
        for gamma in GAMMAS:
            signals = cmat.entries @ iso_pathway_vector(basis, gamma, truth)
            rec, _ = reconstruct_single(signals, cmat, blocks[gamma],
                                        truth.waiting_time)
            worst = max(worst, tensor_distance(rec, truth))
    _report("7 random-map-round-trip", worst <= 1e-10,
            f"100 maps x {len(GAMMAS)} gammas, worst deviation {worst:.3e}")


def test_criterion_8_ensemble_scale():
    start = time.time()
    members = sample_members(CFG.dimer, CFG.ensemble)
    result = run_ensemble(members, CFG.bath, CFG.toolbox, CFG.t_grid,
                          want_tensors=True)
    elapsed = time.time() - start
    rerun = run_ensemble(members, CFG.bath, CFG.toolbox, CFG.t_grid,
                         want_tensors=True)
    identical = (np.array_equal(result.signal_table.values,
                                rerun.signal_table.values)
                 and all(np.array_equal(a.elements, b.elements)
                         for a, b in zip(result.tensors, rerun.tensors)))
    physical = all(
        validate_tensor(t).passed(herm_tol=1e-10, trace_tol=1e-10,
                                  choi_tol=1e-8)
        for t in result.tensors)
    ok = elapsed <= 300.0 and identical and physical
    _report("8 ensemble-scale", ok,
            f"{result.n_members} members x {len(CFG.t_grid)} T in "
            f"{elapsed:.1f} s, deterministic {identical}, CP {physical}")


def test_criterion_9_kronecker_conditioning(machinery):
    basis, gen, cmat, blocks = machinery
    rel = abs(cmat.condition_number - cmat.base_condition_number ** 4) \
        / cmat.condition_number
    inv_norm = np.linalg.norm(np.linalg.inv(cmat.entries), 2)
    rng = np.random.default_rng(99)
    truth = propagate_process_tensor(gen, 300.0)
    signals = cmat.entries @ iso_pathway_vector(basis, 2.0, truth)
    clean = invert_signals(signals, cmat)
    bound_ok = True
    for _ in range(50):
        noise = 1e-6 * np.max(np.abs(signals)) * (
            rng.normal(size=16) + 1j * rng.normal(size=16))
        noisy = invert_signals(signals + noise, cmat)
        lhs = np.linalg.norm(noisy - clean, 2)
        rhs = inv_norm * np.linalg.norm(noise, 2)
        bound_ok = bound_ok and lhs <= rhs * (1 + 1e-10)
    _report("9 kronecker-conditioning",
            rel <= 1e-8 and bound_ok,
            f"cond relative error {rel:.2e}, perturbation bound held: "
            f"{bound_ok}")

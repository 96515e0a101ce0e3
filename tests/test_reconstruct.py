import numpy as np
import pytest
from scipy.linalg import expm

from dimerqpt.bath import (ProcessTensor, build_redfield_generator,
                           propagate_process_tensor)
from dimerqpt.isoaverage import build_m_blocks
from dimerqpt.model import build_exciton_basis
from dimerqpt.pulses import build_c_matrix
from dimerqpt.reconstruct import (_CHOI_CHUNK, choi_matrix, invert_signals,
                                  reconstruct, reconstruct_rows,
                                  reconstruct_single, tensor_distance,
                                  validate_tensor, validate_tensors)
from dimerqpt.response import SignalTable, iso_pathway_vector


def random_lindblad_tensor(rng, waiting_time=1.0):
    """Oracle: CPTP map on {g, e, ep} from a random Lindblad generator.

    The Hamiltonian and the dissipators act inside the exciton manifold or
    drain it into the ground state, so the exciton block plus ground row is
    closed and trace preserving.
    """
    dim = 3  # basis order: g, e, ep
    h = np.zeros((dim, dim), dtype=complex)
    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h[1:, 1:] = 0.5 * (block + block.conj().T)

    jumps = []
    # random jump inside the exciton manifold
    j_in = np.zeros((dim, dim), dtype=complex)
    j_in[1:, 1:] = 0.3 * (rng.normal(size=(2, 2))
                          + 1j * rng.normal(size=(2, 2)))
    jumps.append(j_in)
    # decay to the ground state
    for k in (1, 2):
        j_dec = np.zeros((dim, dim), dtype=complex)
        j_dec[0, k] = 0.4 * rng.normal()
        jumps.append(j_dec)

    eye = np.eye(dim)
    lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in jumps:
        jdj = j.conj().T @ j
        lind += (np.kron(j, j.conj())
                 - 0.5 * np.kron(jdj, eye)
                 - 0.5 * np.kron(eye, jdj.T))
    super_op = expm(lind * waiting_time)

    chi = super_op.reshape(dim, dim, dim, dim)  # [n, m, nu, mu], row-major vec
    elements = chi[1:, 1:, 1:, 1:].copy()
    ground = chi[0, 0, 1:, 1:].copy()
    return ProcessTensor(waiting_time=waiting_time, elements=elements,
                         ground_row=ground)


def test_lindblad_oracle_is_physical(rng):
    for _ in range(5):
        diag = validate_tensor(random_lindblad_tensor(rng))
        assert diag.hermiticity_defect < 1e-12
        assert diag.trace_defect < 1e-12
        assert diag.min_choi_eig > -1e-12


def test_choi_of_identity_is_positive():
    # elements[n, m, nu, mu] = delta(n, nu) delta(m, mu)
    ident = ProcessTensor(waiting_time=0.0, elements=np.eye(
        4, dtype=complex).reshape(2, 2, 2, 2))
    diag = validate_tensor(ident)
    assert diag.choi_hermiticity_defect < 1e-15
    assert diag.min_choi_eig == pytest.approx(0.0, abs=1e-14)
    c = choi_matrix(ident)
    assert c.shape == (9, 9)
    # the three preserved diagonal routes g->g, e->e, ep->ep
    assert np.trace(c).real == pytest.approx(3.0, abs=1e-12)


def test_choi_matrix_entries(rng):
    """Entry [(nu, n), (mu, m)] is chi[n, m, nu, mu] on {g, e, ep}, with g
    kept and the optical-coherence blocks zero."""
    tensor = random_lindblad_tensor(rng)
    chi = np.zeros((3, 3, 3, 3), dtype=complex)
    chi[0, 0, 0, 0] = 1.0
    for nu in (1, 2):
        for mu in (1, 2):
            chi[0, 0, nu, mu] = tensor.ground_row[nu - 1, mu - 1]
            for n in (1, 2):
                for m in (1, 2):
                    chi[n, m, nu, mu] = tensor.elements[n - 1, m - 1,
                                                        nu - 1, mu - 1]
    c = choi_matrix(tensor)
    for nu, n, mu, m in np.ndindex(3, 3, 3, 3):
        assert c[3 * nu + n, 3 * mu + m] == chi[n, m, nu, mu]


def test_choi_flags_nonpositive_map():
    # transpose map on the exciton block is Hermitian and trace closed but
    # not completely positive
    elems = np.zeros((2, 2, 2, 2), dtype=complex)
    for n in (0, 1):
        for m in (0, 1):
            elems[n, m, m, n] = 1.0
    diag = validate_tensor(ProcessTensor(waiting_time=0.0, elements=elems))
    assert diag.hermiticity_defect < 1e-15
    assert diag.trace_defect < 1e-15
    assert diag.min_choi_eig < -0.5


def test_invert_signals_exact(basis, toolbox, rng):
    cmat = build_c_matrix(basis, toolbox)
    p = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = cmat.entries @ p
    assert np.allclose(invert_signals(s, cmat), p, atol=1e-10)


def test_closed_loop_single_time(basis, gen, toolbox):
    cmat = build_c_matrix(basis, toolbox)
    for gamma in (0.0, 1.0, 2.0):
        blocks = build_m_blocks(basis, gamma)
        truth = propagate_process_tensor(gen, 340.0)
        signals = cmat.entries @ iso_pathway_vector(basis, gamma, truth)
        rec, residual = reconstruct_single(signals, cmat, blocks, 340.0)
        assert tensor_distance(rec, truth) < 1e-11
        assert residual < 1e-11


def test_random_lindblad_round_trip(basis, toolbox, rng):
    cmat = build_c_matrix(basis, toolbox)
    blocks = {g: build_m_blocks(basis, g) for g in (0.0, 1.0, 2.0)}
    for _ in range(10):
        truth = random_lindblad_tensor(rng)
        for gamma, blk in blocks.items():
            signals = cmat.entries @ iso_pathway_vector(basis, gamma, truth)
            rec, _ = reconstruct_single(signals, cmat, blk,
                                        truth.waiting_time)
            assert tensor_distance(rec, truth) < 1e-10


def test_stacked_inversion_matches_single_rows(geometries, bath, toolbox,
                                               rng):
    t_grid = np.array([120.0, 260.0, 400.0, 700.0])
    for dimer in geometries:
        basis = build_exciton_basis(dimer)
        gen = build_redfield_generator(basis, bath)
        cmat = build_c_matrix(basis, toolbox)
        for verbatim in (False, True):
            blocks = build_m_blocks(basis, 1.3, verbatim=verbatim)
            clean = np.array([
                cmat.entries @ iso_pathway_vector(
                    basis, 1.3, propagate_process_tensor(gen, t),
                    verbatim=verbatim)
                for t in t_grid])
            # noise makes the data inconsistent, so residuals are nonzero
            signals = clean * (1 + 1e-3 * rng.normal(size=clean.shape))
            elements, grounds, residuals = reconstruct_rows(
                signals, cmat, blocks)
            for k, t in enumerate(t_grid):
                tensor, residual = reconstruct_single(
                    signals[k], cmat, blocks, t)
                assert np.max(np.abs(elements[k] - tensor.elements)) < 1e-13
                assert np.max(np.abs(grounds[k] - tensor.ground_row)) < 1e-13
                assert abs(residuals[k] - residual) < 1e-13


def test_reconstruct_report(basis, gen, toolbox):
    cmat = build_c_matrix(basis, toolbox)
    blocks = build_m_blocks(basis, 2.0)
    t_grid = np.array([150.0, 300.0, 450.0])
    truth = [propagate_process_tensor(gen, t) for t in t_grid]
    values = np.array([cmat.entries @ iso_pathway_vector(basis, 2.0, tt)
                       for tt in truth])
    table = SignalTable(t_grid=t_grid, values=values)
    report = reconstruct(table, cmat, blocks, reference=truth)
    assert report.max_reference_error() < 1e-11
    assert report.all_physical()
    assert report.c_condition == pytest.approx(cmat.condition_number)
    assert set(report.m_conditions) == {"ee", "epep", "eep"}
    assert len(report.tensors) == 3


def test_validate_tensor_diagnostics(gen):
    truth = propagate_process_tensor(gen, 500.0)
    diag = validate_tensor(truth)
    assert diag.passed()
    # breaking hermiticity is caught
    broken = truth.elements.copy()
    broken[0, 1, 0, 0] += 1e-3
    bad = ProcessTensor(waiting_time=500.0, elements=broken)
    assert not validate_tensor(bad).passed()


def _diagnostic_table(diagnostics):
    return np.array([[d.hermiticity_defect, d.trace_defect, d.min_choi_eig,
                      d.choi_hermiticity_defect] for d in diagnostics])


@pytest.mark.parametrize("n", [1, 2 * _CHOI_CHUNK + 5])
def test_validate_tensors_matches_per_tensor_reference(rng, n):
    """Stacked diagnostics equal, bit for bit, the figures computed one
    tensor at a time from choi_matrix and eigvalsh, for physical,
    non-Hermitian and non-CP tensors."""
    swap = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            swap[a, b, b, a] = 1.0
    tensors = []
    for k in range(n):
        tensor = random_lindblad_tensor(rng, waiting_time=rng.uniform(0.1, 3))
        elements, ground = tensor.elements.copy(), tensor.ground_row.copy()
        if k % 3 == 1:      # not Hermitian
            elements[0, 1, 0, 0] += rng.normal() * 1e-3
        elif k % 3 == 2:    # Hermitian and trace closed, not CP
            elements = 0.5 * elements + 0.5 * swap
            ground = 0.5 * ground
        tensors.append(ProcessTensor(waiting_time=float(k), elements=elements,
                                     ground_row=ground))
    reference = []
    for tensor in tensors:
        el, gr = tensor.elements, tensor.ground_row
        c = choi_matrix(tensor)
        reference.append([
            np.max(np.abs(el - np.conj(el.transpose(1, 0, 3, 2)))),
            np.max(np.abs(gr + el[0, 0] + el[1, 1] - np.eye(2))),
            np.min(np.linalg.eigvalsh(0.5 * (c + c.conj().T))),
            np.max(np.abs(c - c.conj().T))])
    stacked = validate_tensors(np.array([t.elements for t in tensors]),
                               np.array([t.ground_row for t in tensors]))
    assert len(stacked) == n
    assert np.array_equal(_diagnostic_table(stacked), np.array(reference))
    assert np.array_equal(_diagnostic_table(stacked),
                          _diagnostic_table(map(validate_tensor, tensors)))
    if n > 1:
        flags = [d.passed() for d in stacked]
        assert flags[0::3] == [True] * len(flags[0::3])
        assert not any(flags[1::3]) and not any(flags[2::3])

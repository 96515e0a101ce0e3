import numpy as np
import pytest
from scipy.linalg import expm

from dimerqpt.bath import (ProcessTensor, build_redfield_generator,
                           propagate_process_tensor)
from dimerqpt.isoaverage import build_m_blocks
from dimerqpt.model import build_exciton_basis
from dimerqpt.pulses import build_c_matrix
from dimerqpt.reconstruct import (invert_signals, reconstruct,
                                  reconstruct_rows, reconstruct_single,
                                  tensor_distance, validate_tensor,
                                  validate_tensors)
from dimerqpt.response import SignalTable, iso_pathway_vector


def choi_matrix(tensor: ProcessTensor):
    """9x9 Choi matrix of the map on span{g, e, ep}.

    Entry [(nu, n), (mu, m)] is the amplitude taking the input element
    |nu><mu| to the output element |n><m|.  The ground population is a fixed
    point; blocks fed by optical coherences are zero (full optical
    dephasing).  So the matrix is 1 + 0_2 + G + X on rows {0}, {1, 2},
    {3, 6} and {4, 5, 7, 8}: G the ground row, X[(nu, n), (mu, m)] the
    element [n, m, nu, mu].
    """
    chi = np.zeros((3, 3, 3, 3), dtype=complex)
    chi[0, 0, 0, 0] = 1.0
    chi[0, 0, 1:, 1:] = tensor.ground_row
    chi[1:, 1:, 1:, 1:] = tensor.elements
    # rows (input ket, output ket), columns (input bra, output bra)
    return chi.transpose(2, 0, 3, 1).reshape(9, 9)


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
    assert report.diagnostics.passed().all()
    assert report.c_condition == pytest.approx(cmat.condition_number)
    assert set(report.m_conditions) == {"ee", "epep", "eep"}
    assert len(report.tensors) == 3


def test_validate_tensor_diagnostics(gen):
    truth = propagate_process_tensor(gen, 500.0)
    diag = validate_tensor(truth)
    assert {type(figure) for figure in vars(diag).values()} == {float}
    assert diag.passed() is True
    # breaking hermiticity is caught
    broken = truth.elements.copy()
    broken[0, 1, 0, 0] += 1e-3
    bad = ProcessTensor(waiting_time=500.0, elements=broken)
    assert not validate_tensor(bad).passed()


_FIGURES = ("hermiticity_defect", "trace_defect", "min_choi_eig")
# principal submatrices of the Choi matrix that are not fixed: the ground-row
# block G and the single-exciton block X
_CHOI_BLOCKS = [np.ix_(rows, rows) for rows in ([3, 6], [4, 5, 7, 8])]


def _diagnostic_table(diag):
    """(n, 3) figures of one stacked TensorDiagnostics."""
    return np.column_stack([getattr(diag, name) for name in _FIGURES])


def _per_tensor_table(tensors):
    """(n, 3) figures of validate_tensor, one tensor at a time."""
    return np.array([[getattr(validate_tensor(t), name) for name in _FIGURES]
                     for t in tensors])


def _mixed_tensors(rng, n):
    """n tensors cycling physical, non-Hermitian and Hermitian non-CP."""
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
    return tensors


def _stack(tensors):
    return validate_tensors(np.array([t.elements for t in tensors]),
                            np.array([t.ground_row for t in tensors]))


@pytest.mark.parametrize("n", [1, 133])
def test_validate_tensors_matches_per_tensor_reference(rng, n):
    """Stacked diagnostics equal, bit for bit, the figures computed one
    tensor at a time, for physical, non-Hermitian and non-CP tensors: the
    defects from the elements and ground row, the minimum eigenvalue from
    the two blocks G and X of choi_matrix, whose direct sum with 1 and 0_2
    the matrix is."""
    tensors = _mixed_tensors(rng, n)
    reference = []
    for tensor in tensors:
        el, gr = tensor.elements, tensor.ground_row
        c = choi_matrix(tensor)
        fixed = np.zeros((9, 9), dtype=complex)
        fixed[0, 0] = 1.0
        for block in _CHOI_BLOCKS:
            fixed[block] = c[block]
        assert np.array_equal(c, fixed)
        block_min = min(0.0, *(
            np.min(np.linalg.eigvalsh(0.5 * b + 0.5 * b.conj().T))
            for b in (c[block] for block in _CHOI_BLOCKS)))
        full_min = np.min(np.linalg.eigvalsh(0.5 * (c + c.conj().T)))
        assert abs(block_min - full_min) <= 1e-14 * max(1.0,
                                                        np.linalg.norm(c))
        reference.append([
            np.max(np.abs(el - np.conj(el.transpose(1, 0, 3, 2)))),
            np.max(np.abs(gr + el[0, 0] + el[1, 1] - np.eye(2))),
            block_min])
    stacked = _stack(tensors)
    assert np.array_equal(_diagnostic_table(stacked), np.array(reference))
    assert np.array_equal(_diagnostic_table(stacked),
                          _per_tensor_table(tensors))
    assert np.all(stacked.min_choi_eig <= 0.0)
    flags = stacked.passed()
    assert flags.shape == (n,)
    assert flags[0::3].all()
    assert not flags[1::3].any() and not flags[2::3].any()


def test_validate_tensors_non_finite(rng):
    """A tensor holding inf and one holding NaN get min_choi_eig NaN and
    fail; every figure of the other tensors in the stack is its
    single-tensor value, bit for bit.  A finite 1e308 keeps a finite
    min_choi_eig: the Hermitian part is formed from halves, which cannot
    overflow."""
    tensors = _mixed_tensors(rng, 9)
    huge = tensors[3].elements.copy()
    huge[0, 0, 0, 0] = 1e308
    tensors[3] = ProcessTensor(waiting_time=3.0, elements=huge,
                               ground_row=tensors[3].ground_row)
    bad_elements = tensors[2].elements.copy()
    bad_elements[1, 0, 1, 1] = np.inf
    bad_ground = tensors[6].ground_row.copy()
    bad_ground[0, 1] = complex(0.0, np.nan)
    tensors[2] = ProcessTensor(waiting_time=2.0, elements=bad_elements,
                               ground_row=tensors[2].ground_row)
    tensors[6] = ProcessTensor(waiting_time=6.0,
                               elements=tensors[6].elements,
                               ground_row=bad_ground)
    stacked = _stack(tensors)
    bad = np.zeros(9, dtype=bool)
    bad[[2, 6]] = True
    assert np.isnan(stacked.min_choi_eig[bad]).all()
    assert not stacked.passed()[bad].any()
    for k in (2, 6):
        single = validate_tensor(tensors[k])
        assert np.isnan(single.min_choi_eig) and not single.passed()
    assert np.array_equal(_diagnostic_table(stacked)[~bad],
                          _per_tensor_table(tensors)[~bad])
    assert np.isfinite(stacked.min_choi_eig[3])
    # of tensors 0, 1, 3, 4, 5, 7, 8 only 0 passes: 3 holds 1e308, and the
    # others are not Hermitian or not CP
    assert stacked.passed()[~bad].tolist() == [True, False, False, False,
                                               False, False, False]

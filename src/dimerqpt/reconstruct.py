"""Tensor reconstruction from measured signals and physicality checks.

Reconstruction is a two-stage linear inversion: the pulse-coefficient
matrix takes the sixteen signals back to the sixteen pathway amplitudes,
and the three dipole-geometry blocks take those back to the real tensor
parameters.  Physicality of the result is judged on the three-level system
(ground plus the two single excitons) through hermiticity, trace closure
and the spectrum of the Choi matrix; optical-coherence blocks of the Choi
matrix are set to zero, which corresponds to composing the map with
complete optical dephasing and cannot spoil complete positivity.
"""

from dataclasses import dataclass, field

import numpy as np

from .bath import ProcessTensor
from .isoaverage import MBlocks, solve_tensors
from .model import E, EP
from .pulses import CMatrix, kron_solve

# waiting times per stacked eigvalsh call: on 1000 tensors, 64 was as fast
# as any size from 16 to 1000, and it keeps the temporaries small
_CHOI_CHUNK = 64


def _choi_stack(elements, grounds):
    """(n, 9, 9) Choi matrices of elements (n, 2, 2, 2, 2), grounds (n, 2, 2).

    Entry [(nu, n), (mu, m)] is the amplitude taking the input element
    |nu><mu| to the output element |n><m|.  The ground population is a fixed
    point; blocks fed by optical coherences are zero (full optical
    dephasing).
    """
    chi = np.zeros((len(elements), 3, 3, 3, 3), dtype=complex)
    chi[:, 0, 0, 0, 0] = 1.0
    chi[:, 0, 0, 1:, 1:] = grounds
    chi[:, 1:, 1:, 1:, 1:] = elements
    # rows indexed by (input ket, output ket), columns by (input bra, output bra)
    return chi.transpose(0, 3, 1, 4, 2).reshape(-1, 9, 9)


def choi_matrix(tensor: ProcessTensor):
    """9x9 Choi matrix of the map on span{g, e, ep} (see ``_choi_stack``)."""
    return _choi_stack(tensor.elements[None], tensor.ground_row[None])[0]


@dataclass(frozen=True)
class TensorDiagnostics:
    """Physicality figures of merit for one reconstructed tensor."""

    hermiticity_defect: float
    trace_defect: float
    min_choi_eig: float
    choi_hermiticity_defect: float

    def passed(self, herm_tol=1e-10, trace_tol=1e-10, choi_tol=1e-8):
        return (self.hermiticity_defect <= herm_tol
                and self.trace_defect <= trace_tol
                and self.min_choi_eig >= -choi_tol)


@np.errstate(over="ignore", invalid="ignore")
def validate_tensors(elements, grounds):
    """Diagnostics of n tensors: elements (n, 2, 2, 2, 2), grounds (n, 2, 2).

    Returns a list of n ``TensorDiagnostics``.  The Choi matrices are built
    and diagonalized ``_CHOI_CHUNK`` waiting times at a time, one stacked
    ``eigvalsh`` call per chunk.  A defect too large for a double is inf,
    and a tensor that is not finite gets ``min_choi_eig`` NaN: both fail.
    """
    elements = np.asarray(elements)
    grounds = np.asarray(grounds)
    n = len(elements)
    herm = np.abs(elements - np.conj(elements.transpose(0, 2, 1, 4, 3)))
    trace = np.abs(grounds + elements[:, E, E] + elements[:, EP, EP]
                   - np.eye(2))
    choi_herm = np.empty(n)
    min_eig = np.full(n, np.nan)
    for start in range(0, n, _CHOI_CHUNK):
        part = slice(start, start + _CHOI_CHUNK)
        c = _choi_stack(elements[part], grounds[part])
        c_h = c.conj().transpose(0, 2, 1)
        choi_herm[part] = np.max(np.abs(c - c_h), axis=(1, 2))
        # halves first: the sum of two finite halves cannot overflow
        finite = np.isfinite(c).all(axis=(1, 2))
        eig = np.linalg.eigvalsh(0.5 * c[finite] + 0.5 * c_h[finite])
        min_eig[start + np.flatnonzero(finite)] = eig.min(axis=1)
    return [TensorDiagnostics(hermiticity_defect=h, trace_defect=tr,
                              min_choi_eig=eig, choi_hermiticity_defect=ch)
            for h, tr, eig, ch in zip(
                herm.reshape(n, -1).max(axis=1).tolist(),
                trace.reshape(n, -1).max(axis=1).tolist(),
                min_eig.tolist(), choi_herm.tolist())]


def validate_tensor(tensor: ProcessTensor) -> TensorDiagnostics:
    """Diagnostics of one tensor: the one-row case of ``validate_tensors``."""
    return validate_tensors(tensor.elements[None], tensor.ground_row[None])[0]


def invert_signals(signals, cmatrix: CMatrix):
    """Signals -> pathway amplitudes, one 16-vector or (16, n) columns: the
    exact solve ``kron_solve``."""
    return kron_solve(cmatrix.base_2x2, np.asarray(signals, dtype=complex))


def reconstruct_rows(signals, cmatrix: CMatrix, mblocks: MBlocks):
    """Two-stage inversion of every waiting time at once.

    ``signals`` is (n, 16) complex, one row per waiting time with columns
    in OMEGA_LABELS order.  ``invert_signals`` with (16, n) right-hand sides
    gives the pathway vectors, ``solve_tensors`` the (16, n) real parameters
    and the tensors: the two stages the ensemble engine inverts with.
    Returns elements (n, 2, 2, 2, 2), ground rows (n, 2, 2) and pathway
    residuals (n,): the mismatch between the recovered pathway vector and
    the geometry blocks applied to the real parameters actually kept,
    nonzero when the input is inconsistent with a Hermitian tensor.
    """
    pathways = invert_signals(np.asarray(signals).T, cmatrix)
    params, elements, grounds = solve_tensors(pathways, mblocks)
    residuals = np.max(np.abs(mblocks.apply(params.T) - pathways.T), axis=1)
    return elements, grounds, residuals


def reconstruct_single(signal_row, cmatrix: CMatrix, mblocks: MBlocks,
                       waiting_time):
    """One waiting time: signals (16,) -> (tensor, pathway residual)."""
    elements, grounds, residuals = reconstruct_rows(
        np.asarray(signal_row)[None, :], cmatrix, mblocks)
    return (ProcessTensor(waiting_time=waiting_time, elements=elements[0],
                          ground_row=grounds[0]),
            float(residuals[0]))


@dataclass
class ReconstructionReport:
    """Reconstructed tensors over a waiting-time grid with diagnostics."""

    waiting_times: np.ndarray
    tensors: list
    pathway_residuals: np.ndarray
    diagnostics: list = field(default_factory=list)
    reference_errors: np.ndarray = None
    c_condition: float = None
    m_conditions: dict = None

    def max_reference_error(self):
        if self.reference_errors is None:
            return None
        return float(np.max(self.reference_errors))

    def all_physical(self, herm_tol=1e-10, trace_tol=1e-10, choi_tol=1e-8):
        return all(d.passed(herm_tol, trace_tol, choi_tol)
                   for d in self.diagnostics)


def tensor_distance(a: ProcessTensor, b: ProcessTensor):
    """Max absolute elementwise difference, ground row included."""
    return float(max(np.max(np.abs(a.elements - b.elements)),
                     np.max(np.abs(a.ground_row - b.ground_row))))


def reconstruct(signal_table, cmatrix: CMatrix, mblocks: MBlocks,
                reference=None) -> ReconstructionReport:
    """Invert a full signal table, one tensor per waiting time.

    ``reference``, if given, is a list of ground-truth tensors used to fill
    the per-time reconstruction errors.
    """
    elements, grounds, residuals = reconstruct_rows(
        signal_table.values, cmatrix, mblocks)
    tensors = [ProcessTensor(waiting_time=t, elements=el, ground_row=gr)
               for t, el, gr in zip(signal_table.t_grid, elements, grounds)]
    diagnostics = validate_tensors(elements, grounds)
    errors = None
    if reference is not None:
        errors = np.array([tensor_distance(t, r)
                           for t, r in zip(tensors, reference)])
    return ReconstructionReport(
        waiting_times=np.asarray(signal_table.t_grid, dtype=float),
        tensors=tensors,
        pathway_residuals=residuals,
        diagnostics=diagnostics,
        reference_errors=errors,
        c_condition=cmatrix.condition_number,
        m_conditions=mblocks.condition_numbers,
    )

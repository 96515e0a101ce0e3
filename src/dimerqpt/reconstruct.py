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

from .bath import ProcessTensor, closure_ground_row
from .isoaverage import MBlocks, params_to_elements, solve_chi_blocks
from .pulses import CMatrix

_CHOI_STATES = ("g", "e", "ep")


def choi_matrix(tensor: ProcessTensor):
    """9x9 Choi matrix of the map on span{g, e, ep}.

    Entry [(nu, n), (mu, m)] is the amplitude taking the input element
    |nu><mu| to the output element |n><m|.  The ground population is a fixed
    point; blocks fed by optical coherences are zero (full optical
    dephasing).
    """
    chi = np.zeros((3, 3, 3, 3), dtype=complex)
    chi[0, 0, 0, 0] = 1.0
    chi[0, 0, 1:, 1:] = tensor.ground_row
    chi[1:, 1:, 1:, 1:] = tensor.elements
    # rows indexed by (input ket, output ket), columns by (input bra, output bra)
    return chi.transpose(2, 0, 3, 1).reshape(9, 9)


def min_choi_eigenvalue(tensor: ProcessTensor):
    c = choi_matrix(tensor)
    herm = float(np.max(np.abs(c - c.conj().T)))
    return float(np.min(np.linalg.eigvalsh(0.5 * (c + c.conj().T)))), herm


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


def validate_tensor(tensor: ProcessTensor) -> TensorDiagnostics:
    min_eig, choi_herm = min_choi_eigenvalue(tensor)
    return TensorDiagnostics(
        hermiticity_defect=tensor.hermiticity_defect(),
        trace_defect=tensor.trace_defect(),
        min_choi_eig=min_eig,
        choi_hermiticity_defect=choi_herm,
    )


def invert_signals(signals, cmatrix: CMatrix, ridge=0.0):
    """Signals -> pathway amplitudes, one 16-vector or (16, n) columns.

    With zero ridge this is the exact solve; a positive ridge switches to
    Tikhonov-regularized least squares for noisy input.
    """
    b = np.asarray(signals, dtype=complex)
    if ridge == 0.0:
        return cmatrix.solve(b)
    a = cmatrix.entries
    lhs = a.conj().T @ a + ridge * np.eye(a.shape[1])
    return np.linalg.solve(lhs, a.conj().T @ b)


def reconstruct_rows(signals, cmatrix: CMatrix, mblocks: MBlocks, ridge=0.0):
    """Two-stage inversion of every waiting time at once.

    ``signals`` is (n, 16) complex, one row per waiting time with columns
    in OMEGA_LABELS order.  One C solve with (16, n) right-hand sides gives
    the pathway vectors, one solve per geometry block the (16, n) real
    parameters.  Returns elements (n, 2, 2, 2, 2), ground rows (n, 2, 2)
    and pathway residuals (n,): the mismatch between the recovered pathway
    vector and the geometry blocks applied to the real parameters actually
    kept, nonzero when the input is inconsistent with a Hermitian tensor.
    """
    pathways = invert_signals(np.asarray(signals).T, cmatrix, ridge=ridge)
    params = solve_chi_blocks(pathways, mblocks)
    residuals = np.max(np.abs(mblocks.apply(params.T) - pathways.T), axis=1)
    elements = params_to_elements(params.T)
    return elements, closure_ground_row(elements), residuals


def reconstruct_single(signal_row, cmatrix: CMatrix, mblocks: MBlocks,
                       waiting_time, ridge=0.0):
    """One waiting time: signals (16,) -> (tensor, pathway residual)."""
    elements, grounds, residuals = reconstruct_rows(
        np.asarray(signal_row)[None, :], cmatrix, mblocks, ridge=ridge)
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
                ridge=0.0, reference=None) -> ReconstructionReport:
    """Invert a full signal table, one tensor per waiting time.

    ``reference``, if given, is a list of ground-truth tensors used to fill
    the per-time reconstruction errors.
    """
    elements, grounds, residuals = reconstruct_rows(
        signal_table.values, cmatrix, mblocks, ridge=ridge)
    tensors = [ProcessTensor(waiting_time=t, elements=el, ground_row=gr)
               for t, el, gr in zip(signal_table.t_grid, elements, grounds)]
    diagnostics = [validate_tensor(t) for t in tensors]
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

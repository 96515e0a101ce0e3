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

from dataclasses import dataclass

import numpy as np

from .bath import ProcessTensor
from .isoaverage import MBlocks, solve_tensors
from .model import E, EP
from .pulses import CMatrix, kron_solve


@dataclass(frozen=True)
class TensorDiagnostics:
    """Physicality figures: floats for one tensor, (n,) arrays for n."""

    hermiticity_defect: float
    trace_defect: float
    min_choi_eig: float
    choi_hermiticity_defect: float

    def passed(self, herm_tol=1e-10, trace_tol=1e-10, choi_tol=1e-8):
        return ((self.hermiticity_defect <= herm_tol)
                & (self.trace_defect <= trace_tol)
                & (self.min_choi_eig >= -choi_tol))


@np.errstate(over="ignore", invalid="ignore")
def validate_tensors(elements, grounds) -> TensorDiagnostics:
    """Diagnostics of n tensors: elements (n, 2, 2, 2, 2), grounds (n, 2, 2).

    Returns one ``TensorDiagnostics`` of (n,) arrays.  The Choi matrix is
    1 + 0_2 + G + X on {g, e, ep}, so ``min_choi_eig`` is <= 0, the
    least of 0 and the Hermitian parts' eigenvalues (one stacked ``eigvalsh``
    per block).  A defect too large for a double is inf, and a tensor that
    is not finite gets ``min_choi_eig`` NaN: both fail.
    """
    elements = np.asarray(elements)
    grounds = np.asarray(grounds)
    n = len(elements)
    herm = np.abs(elements - np.conj(elements.transpose(0, 2, 1, 4, 3)))
    trace = np.abs(grounds + elements[:, E, E] + elements[:, EP, EP]
                   - np.eye(2))
    finite = (np.isfinite(elements).reshape(n, -1).all(axis=1)
              & np.isfinite(grounds).reshape(n, -1).all(axis=1))
    choi_herm = np.zeros(n)
    min_eig = np.zeros(n)
    for block in (grounds, elements.transpose(0, 3, 1, 4, 2).reshape(n, 4, 4)):
        block_h = block.conj().transpose(0, 2, 1)
        choi_herm = np.maximum(choi_herm,
                               np.max(np.abs(block - block_h), axis=(1, 2)))
        # halves first: the sum of two finite halves cannot overflow
        eig = np.linalg.eigvalsh(0.5 * block[finite] + 0.5 * block_h[finite])
        min_eig[finite] = np.minimum(min_eig[finite], eig.min(axis=1))
    min_eig[~finite] = np.nan
    return TensorDiagnostics(
        hermiticity_defect=herm.reshape(n, -1).max(axis=1),
        trace_defect=trace.reshape(n, -1).max(axis=1),
        min_choi_eig=min_eig, choi_hermiticity_defect=choi_herm)


def validate_tensor(tensor: ProcessTensor) -> TensorDiagnostics:
    """Diagnostics of one tensor, as floats: ``validate_tensors`` of one."""
    stacked = validate_tensors(tensor.elements[None], tensor.ground_row[None])
    return TensorDiagnostics(*(float(a[0]) for a in vars(stacked).values()))


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
    diagnostics: TensorDiagnostics
    reference_errors: np.ndarray = None
    c_condition: float = None
    m_conditions: dict = None

    def max_reference_error(self):
        if self.reference_errors is None:
            return None
        return float(np.max(self.reference_errors))


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

"""Isotropic orientational averaging and the dipole-geometry blocks.

The average of a product of four lab-frame projections over molecular
orientations contracts the molecular-frame dipoles with the fourth-rank
rotational invariant.  Feeding unit vectors of the real tensor
parametrization through the averaged pathway expressions yields the three
geometry blocks (4x4, 4x4 and 8x8) whose inverses take the averaged
pathway amplitudes back to the tensor components.  The blocks are derived
programmatically from the same pathway structure used for signal synthesis,
and cross-checked against independent closed-form dot-product algebra.  For
arrays of members, the same probe read with one-hot dipole-factor tables
gives the fixed structure of the map in the 32 isotropic dipole factors.
"""

from dataclasses import dataclass
import functools

import numpy as np

from .bath import ProcessTensor, closure_ground_row
from .errors import SingularGeometryError
from .model import E, EP, ExcitonBasis

#: largest condition number a geometry block may have and still be inverted
COND_THRESHOLD = 1e12

_WEIGHTS = np.array([[4.0, -1.0, -1.0],
                     [-1.0, 4.0, -1.0],
                     [-1.0, -1.0, 4.0]]) / 30.0

# all four lab fields along z: each lab pair pattern is (z.z)(z.z) = 1
_ZZZZ_WEIGHTS = np.ones(3) @ _WEIGHTS


def _pair_patterns(v1, v2, v3, v4):
    return np.array([
        np.dot(v1, v2) * np.dot(v3, v4),
        np.dot(v1, v3) * np.dot(v2, v4),
        np.dot(v1, v4) * np.dot(v2, v3),
    ])


def iso_average_four(a, b, c, d):
    """Orientational average of (a.z)(b.z)(c.z)(d.z).

    a..d are molecular-frame dipole vectors, z the collinear lab
    polarization; the average is
    [(a.b)(c.d) + (a.c)(b.d) + (a.d)(b.c)] / 15.
    """
    return float(_ZZZZ_WEIGHTS @ _pair_patterns(a, b, c, d))


# ---------------------------------------------------------------------------
# Real parametrization of the process tensor
#
# The 16 complex elements carry 16 real degrees of freedom once hermiticity
# is imposed.  Ordering (grouped by the last index pair, Re before Im):
#   block ee  : [ x_eeee, x_epepee, Re x_eepee, Im x_eepee ]
#   block epep: [ x_eeepep, x_epepepep, Re x_eepepep, Im x_eepepep ]
#   block eep : [ Re x_eeeep, Re x_epepeep, Re x_eepeep, Re x_epeeep,
#                 Im x_eeeep, Im x_epepeep, Im x_eepeep, Im x_epeeep ]
# ---------------------------------------------------------------------------

N_PARAMS = 16


def params_to_elements(params):
    """Hermitian-consistent elements from real parameters.

    ``params`` is (..., 16); the elements are (..., 2, 2, 2, 2), so a stack
    of parameter vectors gives a stack of tensors.
    """
    x = np.asarray(params, dtype=float)
    el = np.zeros(x.shape[:-1] + (2, 2, 2, 2), dtype=complex)
    el[..., E, E, E, E] = x[..., 0]
    el[..., EP, EP, E, E] = x[..., 1]
    el[..., E, EP, E, E] = x[..., 2] + 1j * x[..., 3]
    el[..., E, E, EP, EP] = x[..., 4]
    el[..., EP, EP, EP, EP] = x[..., 5]
    el[..., E, EP, EP, EP] = x[..., 6] + 1j * x[..., 7]
    el[..., E, E, E, EP] = x[..., 8] + 1j * x[..., 12]
    el[..., EP, EP, E, EP] = x[..., 9] + 1j * x[..., 13]
    el[..., E, EP, E, EP] = x[..., 10] + 1j * x[..., 14]
    el[..., EP, E, E, EP] = x[..., 11] + 1j * x[..., 15]
    # hermiticity fills the remaining elements
    el[..., EP, E, E, E] = np.conj(el[..., E, EP, E, E])
    el[..., EP, E, EP, EP] = np.conj(el[..., E, EP, EP, EP])
    for n in (E, EP):
        for m in (E, EP):
            el[..., n, m, EP, E] = np.conj(el[..., m, n, E, EP])
    return el


def params_to_tensor(params, waiting_time=0.0) -> ProcessTensor:
    """Build a Hermitian-consistent tensor from the 16 real parameters."""
    x = np.asarray(params, dtype=float)
    if x.shape != (N_PARAMS,):
        raise ValueError(f"expected {N_PARAMS} parameters, got shape {x.shape}")
    el = params_to_elements(x)
    return ProcessTensor(waiting_time=waiting_time, elements=el,
                         ground_row=closure_ground_row(el))


def tensor_to_params(tensor: ProcessTensor):
    """Project a tensor onto the 16 real parameters (inverse of params_to_tensor)."""
    el = tensor.elements
    return np.array([
        el[E, E, E, E].real,
        el[EP, EP, E, E].real,
        el[E, EP, E, E].real, el[E, EP, E, E].imag,
        el[E, E, EP, EP].real,
        el[EP, EP, EP, EP].real,
        el[E, EP, EP, EP].real, el[E, EP, EP, EP].imag,
        el[E, E, E, EP].real,
        el[EP, EP, E, EP].real,
        el[E, EP, E, EP].real,
        el[EP, E, E, EP].real,
        el[E, E, E, EP].imag,
        el[EP, EP, E, EP].imag,
        el[E, EP, E, EP].imag,
        el[EP, E, E, EP].imag,
    ])


# The zero-parameter tensor and the 16 unit-parameter tensors, stacked along
# a trailing axis: one pass over the pathways evaluates all 17 at once.
_PROBE_ELEMENTS = params_to_elements(
    np.vstack([np.zeros(N_PARAMS), np.eye(N_PARAMS)]))
_PROBE_TENSOR = ProcessTensor(
    waiting_time=0.0,
    elements=np.moveaxis(_PROBE_ELEMENTS, 0, -1),
    ground_row=np.moveaxis(closure_ground_row(_PROBE_ELEMENTS), 0, -1))


# canonical position of (p, q, r, s) in the 16-component pathway vector
def pathway_index(p, q, r, s):
    return ((p * 2 + q) * 2 + r) * 2 + s


# rows of each geometry block within the canonical pathway vector; the mixed
# block lists the (p,q) = (ep,e) experiments before the (e,ep) ones
_ROWS_EE = [pathway_index(E, E, r, s) for r in (E, EP) for s in (E, EP)]
_ROWS_EPEP = [pathway_index(EP, EP, r, s) for r in (E, EP) for s in (E, EP)]
_ROWS_EEP = ([pathway_index(EP, E, r, s) for r in (E, EP) for s in (E, EP)]
             + [pathway_index(E, EP, r, s) for r in (E, EP) for s in (E, EP)])

_COLS_EE = [0, 1, 2, 3]
_COLS_EPEP = [4, 5, 6, 7]
_COLS_EEP = [8, 9, 10, 11, 12, 13, 14, 15]

_BLOCKS = (("ee", _ROWS_EE, _COLS_EE), ("epep", _ROWS_EPEP, _COLS_EPEP),
           ("eep", _ROWS_EEP, _COLS_EEP))
_BLOCK_MASK = np.zeros((16, 16), dtype=bool)
for _name, _rows, _cols in _BLOCKS:
    _BLOCK_MASK[np.ix_(_rows, _cols)] = True


@dataclass(frozen=True)
class MBlocks:
    """Geometry blocks mapping tensor parameters to averaged pathway amplitudes.

    The arrays may carry a leading member axis, as ``geometry_blocks``
    returns for a stack of maps; ``solve_chi_blocks`` takes such a stack,
    the methods take one member's blocks.
    """

    m_ee: np.ndarray
    m_epep: np.ndarray
    m_eep: np.ndarray
    gamma: float
    # tensor-independent part of the pathway vector; zero for the default
    # term structure, nonzero in the alternative published reading
    offset: np.ndarray = None

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", np.zeros(16, dtype=complex))

    @property
    def condition_numbers(self):
        return {
            "ee": float(np.linalg.cond(self.m_ee)),
            "epep": float(np.linalg.cond(self.m_epep)),
            "eep": float(np.linalg.cond(self.m_eep)),
        }

    def full_matrix(self):
        """16x16 map from parameters to the canonical pathway vector."""
        full = np.zeros((16, 16), dtype=complex)
        for (_, rows, cols), block in zip(_BLOCKS, (self.m_ee, self.m_epep,
                                                    self.m_eep)):
            full[np.ix_(rows, cols)] = block
        return full

    def apply(self, params):
        """Forward map: parameters (..., 16) -> pathway vectors (..., 16)."""
        return (np.asarray(params, dtype=float) @ self.full_matrix().T
                + self.offset)


def geometry_blocks(offset, full, gamma, first_member=None) -> MBlocks:
    """Checked geometry blocks of maps ``full`` (..., 16 pathways, 16 params)
    with ``offset`` (..., 16).

    Entries that the block structure predicts to vanish must be numerically
    zero (RuntimeError otherwise), and no block may have a condition number
    above COND_THRESHOLD (SingularGeometryError).  With a stack and
    ``first_member``, the error names the first failing member, counted
    from ``first_member``.
    """
    scale = np.max(np.abs(full), axis=(-2, -1))
    scale = np.where(scale == 0.0, 1.0, scale)
    failures = [(np.max(np.abs(full[..., ~_BLOCK_MASK]), axis=-1)
                 > 1e-12 * scale, RuntimeError,
                 "pathway map is not block diagonal as expected")]
    blocks = [full[..., rows, :][..., cols] for _, rows, cols in _BLOCKS]
    for (name, _, _), block in zip(_BLOCKS, blocks):
        failures.append((np.linalg.cond(block) > COND_THRESHOLD,
                         SingularGeometryError,
                         f"geometry block {name} is singular for this "
                         "dipole geometry"))
    bad = np.stack([np.ravel(mask) for mask, _, _ in failures])
    members = np.flatnonzero(bad.any(axis=0))
    if members.size:
        member = int(members[0])
        _, error, message = failures[int(np.argmax(bad[:, member]))]
        if first_member is not None:
            message = f"member {first_member + member}: {message}"
        raise error(message)
    return MBlocks(m_ee=blocks[0], m_epep=blocks[1], m_eep=blocks[2],
                   gamma=gamma, offset=offset)


def build_m_blocks(basis: ExcitonBasis, gamma: float,
                   verbatim: bool = False) -> MBlocks:
    """Derive the geometry blocks from the averaged pathway expressions.

    Each column is the averaged pathway vector generated by one unit vector
    of the real tensor parametrization at zero coherence and echo times;
    all of them come out of one pass over the pathways on the stacked probe
    tensor.  The blocks are checked by ``geometry_blocks``.
    """
    from .response import iso_pathway_vector

    vectors = iso_pathway_vector(basis, gamma, _PROBE_TENSOR,
                                 verbatim=verbatim)  # (16, 17)
    # The hole term and the ground-row closure constant cancel, so the
    # averaged pathway vector is strictly linear in the parameters; the
    # offset at zero parameters is subtracted anyway as a guard.
    return geometry_blocks(vectors[:, 0].copy(),
                           vectors[:, 1:] - vectors[:, :1], gamma)


@functools.cache
def pathway_structure(verbatim: bool):
    """Structure of the probed pathway vectors in the dipole factors.

    The averaged pathway vectors of the stacked probe tensor are linear in
    the 32 isotropic dipole factors of ``DIPOLE_TUPLES`` and affine in
    Gamma: vectors = table @ (S0 + Gamma dS).  S0 and dS (each 32 x 16
    pathways x 17 probes) are read off ``iso_pathway_vector`` with one-hot
    tables at Gamma = 0 and 1, so the pathway expressions stay the one
    source of truth.  Returned as one read-only real (64, 544) matrix, S0
    over dS, each row the real view of a (16, 17) complex block.
    """
    from .response import DIPOLE_TUPLES, iso_pathway_vector

    at = [np.array([iso_pathway_vector(
        None, gamma, _PROBE_TENSOR, verbatim=verbatim,
        table={labels: float(labels == one) for labels in DIPOLE_TUPLES})
        for one in DIPOLE_TUPLES]) for gamma in (0.0, 1.0)]
    # entries are sums of +-1, +-1j and 0: the difference is exact
    structure = np.concatenate([at[0], at[1] - at[0]])
    structure = structure.view(float).reshape(len(structure), -1)
    structure.setflags(write=False)
    return structure


def solve_chi_blocks(pathways, blocks: MBlocks):
    """Invert the geometry blocks for a stack of pathway vectors.

    ``pathways`` is (..., 16, n) complex, one canonical averaged pathway
    vector (zero coherence and echo times) per column, with leading axes
    matching those of the blocks; returns the (..., 16, n) real
    parameters.  The solves are exact (square, noiseless); consistency of
    the overdetermined real/imaginary structure is the caller's concern
    (see ReconstructionReport residuals).
    """
    p = np.asarray(pathways, dtype=complex) - blocks.offset[..., None]
    params = np.zeros(p.shape[:-2] + (N_PARAMS, p.shape[-1]))
    for (_, rows, cols), block in zip(_BLOCKS, (blocks.m_ee, blocks.m_epep,
                                                blocks.m_eep)):
        params[..., cols, :] = np.linalg.solve(block, p[..., rows, :]).real
    return params


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

    def avg(a, b, c, d):
        return (np.dot(a, b) * np.dot(c, d) + np.dot(a, c) * np.dot(b, d)
                + np.dot(a, d) * np.dot(b, c)) / 15.0

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

"""Isotropic orientational averaging and the dipole-geometry blocks.

The average of a product of four lab-frame projections over molecular
orientations contracts the molecular-frame dipoles with the fourth-rank
rotational invariant.  Feeding unit vectors of the real tensor
parametrization through the averaged pathway expressions yields the three
geometry blocks (4x4, 4x4 and 8x8) whose inverses take the averaged
pathway amplitudes back to the tensor components.  The blocks are derived
programmatically from the same pathway structure used for signal synthesis,
and cross-checked against independent closed-form dot-product algebra.
"""

from dataclasses import dataclass

import numpy as np

from .bath import ProcessTensor, closure_ground_row
from .errors import SingularGeometryError
from .model import E, EP, ExcitonBasis

Z_LAB = np.array([0.0, 0.0, 1.0])

#: largest condition number a geometry block may have and still be inverted
COND_THRESHOLD = 1e12

_WEIGHTS = np.array([[4.0, -1.0, -1.0],
                     [-1.0, 4.0, -1.0],
                     [-1.0, -1.0, 4.0]]) / 30.0


def _pair_patterns(v1, v2, v3, v4):
    return np.array([
        np.dot(v1, v2) * np.dot(v3, v4),
        np.dot(v1, v3) * np.dot(v2, v4),
        np.dot(v1, v4) * np.dot(v2, v3),
    ])


def iso_average_four(a, b, c, d, e1=Z_LAB, e2=Z_LAB, e3=Z_LAB, e4=Z_LAB):
    """Orientational average of (a.e1)(b.e2)(c.e3)(d.e4).

    a..d are molecular-frame dipole vectors, e1..e4 lab polarizations.  For
    collinear zzzz polarizations this reduces to
    [(a.b)(c.d) + (a.c)(b.d) + (a.d)(b.c)] / 15.
    """
    lab = _pair_patterns(e1, e2, e3, e4)
    mol = _pair_patterns(a, b, c, d)
    return float(lab @ _WEIGHTS @ mol)


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


def params_to_tensor(params, waiting_time=0.0) -> ProcessTensor:
    """Build a Hermitian-consistent tensor from the 16 real parameters."""
    x = np.asarray(params, dtype=float)
    if x.shape != (N_PARAMS,):
        raise ValueError(f"expected {N_PARAMS} parameters, got shape {x.shape}")
    el = np.zeros((2, 2, 2, 2), dtype=complex)
    el[E, E, E, E] = x[0]
    el[EP, EP, E, E] = x[1]
    el[E, EP, E, E] = x[2] + 1j * x[3]
    el[E, E, EP, EP] = x[4]
    el[EP, EP, EP, EP] = x[5]
    el[E, EP, EP, EP] = x[6] + 1j * x[7]
    el[E, E, E, EP] = x[8] + 1j * x[12]
    el[EP, EP, E, EP] = x[9] + 1j * x[13]
    el[E, EP, E, EP] = x[10] + 1j * x[14]
    el[EP, E, E, EP] = x[11] + 1j * x[15]
    # hermiticity fills the remaining elements
    el[EP, E, E, E] = np.conj(el[E, EP, E, E])
    el[EP, E, EP, EP] = np.conj(el[E, EP, EP, EP])
    for n in (E, EP):
        for m in (E, EP):
            el[n, m, EP, E] = np.conj(el[m, n, E, EP])
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


@dataclass(frozen=True)
class MBlocks:
    """Geometry blocks mapping tensor parameters to averaged pathway amplitudes."""

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
        for rows, cols, block in [(_ROWS_EE, _COLS_EE, self.m_ee),
                                  (_ROWS_EPEP, _COLS_EPEP, self.m_epep),
                                  (_ROWS_EEP, _COLS_EEP, self.m_eep)]:
            full[np.ix_(rows, cols)] = block
        return full

    def apply(self, params):
        """Forward map: parameters -> canonical averaged pathway vector."""
        return self.full_matrix() @ np.asarray(params, dtype=float) \
            + self.offset


def build_m_blocks(basis: ExcitonBasis, gamma: float,
                   verbatim: bool = False) -> MBlocks:
    """Derive the geometry blocks from the averaged pathway expressions.

    Each column is the averaged pathway vector generated by one unit vector
    of the real tensor parametrization at zero coherence and echo times.
    Entries that the block structure predicts to vanish are checked to be
    numerically zero.
    """
    from .response import iso_pathway_vector, projection_table

    # the dipole factors depend on the geometry only, not on the tensor
    table = projection_table(basis, iso=True, verbatim=verbatim)
    # The hole term and the ground-row closure constant cancel, so the
    # averaged pathway vector is strictly linear in the parameters; the
    # offset at zero parameters is subtracted anyway as a guard.
    offset = iso_pathway_vector(basis, gamma, params_to_tensor(np.zeros(N_PARAMS)),
                                verbatim=verbatim, table=table)
    columns = []
    for k in range(N_PARAMS):
        unit = np.zeros(N_PARAMS)
        unit[k] = 1.0
        tensor = params_to_tensor(unit)
        columns.append(iso_pathway_vector(basis, gamma, tensor,
                                          verbatim=verbatim, table=table)
                       - offset)
    full = np.array(columns).T  # (16 pathways, 16 params)

    mask = np.zeros((16, 16), dtype=bool)
    for rows, cols in [(_ROWS_EE, _COLS_EE), (_ROWS_EPEP, _COLS_EPEP),
                       (_ROWS_EEP, _COLS_EEP)]:
        mask[np.ix_(rows, cols)] = True
    scale = np.max(np.abs(full)) or 1.0
    leakage = np.max(np.abs(full[~mask]))
    if leakage > 1e-12 * scale:
        raise RuntimeError("pathway map is not block diagonal as expected")

    blocks = {}
    for name, rows, cols in [("ee", _ROWS_EE, _COLS_EE),
                             ("epep", _ROWS_EPEP, _COLS_EPEP),
                             ("eep", _ROWS_EEP, _COLS_EEP)]:
        block = full[np.ix_(rows, cols)]
        if np.linalg.cond(block) > COND_THRESHOLD:
            raise SingularGeometryError(
                f"geometry block {name} is singular for this dipole geometry")
        blocks[name] = block
    return MBlocks(m_ee=blocks["ee"], m_epep=blocks["epep"],
                   m_eep=blocks["eep"], gamma=gamma, offset=offset)


def solve_chi_blocks(pathway_vector, blocks: MBlocks,
                     waiting_time=0.0) -> ProcessTensor:
    """Invert the geometry blocks and reassemble the complex tensor.

    ``pathway_vector`` is the canonical 16-component averaged pathway
    vector at zero coherence and echo times.  The solve is exact (square,
    noiseless); consistency of the overdetermined real/imaginary structure
    is the caller's concern (see ReconstructionReport residuals).
    """
    p = np.asarray(pathway_vector, dtype=complex) - blocks.offset
    params = np.zeros(N_PARAMS)
    for rows, cols, block in [(_ROWS_EE, _COLS_EE, blocks.m_ee),
                              (_ROWS_EPEP, _COLS_EPEP, blocks.m_epep),
                              (_ROWS_EEP, _COLS_EEP, blocks.m_eep)]:
        sol = np.linalg.solve(block, p[rows])
        params[cols] = sol.real
    return params_to_tensor(params, waiting_time=waiting_time)


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

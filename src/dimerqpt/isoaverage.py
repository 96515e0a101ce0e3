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
from .errors import SingularGeometryError, raise_first_failure
from .model import E, EP, ExcitonBasis

#: largest condition number a geometry block may have and still be inverted
COND_THRESHOLD = 1e12


def iso_average_four(a, b, c, d):
    """Orientational average of (a.z)(b.z)(c.z)(d.z).

    a..d are molecular-frame dipole vectors, z the collinear lab
    polarization; the average is
    [(a.b)(c.d) + (a.c)(b.d) + (a.d)(b.c)] / 15.
    """
    return float(np.dot(a, b) * np.dot(c, d) + np.dot(a, c) * np.dot(b, d)
                 + np.dot(a, d) * np.dot(b, c)) / 15.0


# ---------------------------------------------------------------------------
# Real parametrization of the process tensor
#
# The 16 complex elements carry 16 real degrees of freedom once hermiticity
# is imposed.  _PARAMS is their one ordering: parameter k is the real (0) or
# imaginary (1) part of element (n, m, nu, mu), grouped by the last index
# pair into the three geometry blocks, Re before Im.  Everything else about
# the parameters is read off it.
# ---------------------------------------------------------------------------

_EEP = ((E, E, E, EP), (EP, EP, E, EP), (E, EP, E, EP), (EP, E, E, EP))
_PARAMS = (
    # block ee
    ((E, E, E, E), 0), ((EP, EP, E, E), 0), ((E, EP, E, E), 0),
    ((E, EP, E, E), 1),
    # block epep
    ((E, E, EP, EP), 0), ((EP, EP, EP, EP), 0), ((E, EP, EP, EP), 0),
    ((E, EP, EP, EP), 1),
    # block eep: the real parts of its four elements, then the imaginary
    *((element, 0) for element in _EEP), *((element, 1) for element in _EEP))

N_PARAMS = len(_PARAMS)

# {element: [slot of its real part, of its imaginary part or None]}
_SLOTS = {}
for _k, (_element, _part) in enumerate(_PARAMS):
    _SLOTS.setdefault(_element, [None, None])[_part] = _k

#: slots of the real parameters a secular propagator can make nonzero: those
#: of the populations' elements (n, n, nu, nu) and the e-ep coherence
SECULAR_SLOTS = [k for k, ((n, m, nu, mu), _) in enumerate(_PARAMS)
                 if (n == m and nu == mu) or (n, m, nu, mu) == (E, EP, E, EP)]


def params_to_elements(params):
    """Hermitian-consistent elements from real parameters.

    ``params`` is (..., 16); the elements are (..., 2, 2, 2, 2), so a stack
    of parameter vectors gives a stack of tensors.
    """
    x = np.asarray(params, dtype=float)
    el = np.zeros(x.shape[:-1] + (2, 2, 2, 2), dtype=complex)
    for (n, m, nu, mu), (re, im) in _SLOTS.items():
        value = x[..., re] if im is None else x[..., re] + 1j * x[..., im]
        el[..., n, m, nu, mu] = value
        # hermiticity: a real element is its own conjugate partner
        el[..., m, n, mu, nu] = np.conj(value)
    return el


def secular_params(pop, phase):
    """The real parameters at SECULAR_SLOTS, (..., 6, T), of secular
    propagators with population maps ``pop`` (..., T, 2, 2), entry [n, nu]
    the element (n, n, nu, nu), and e-ep coherence phases ``phase``
    (..., T), the element (e, ep, e, ep)."""
    coherence = (phase.real, phase.imag)
    params = [_PARAMS[k] for k in SECULAR_SLOTS]
    return np.stack([pop[..., n, nu] if n == m else coherence[part]
                     for (n, m, nu, _), part in params], axis=-2)


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
    return np.array([el[element].imag if part else el[element].real
                     for element, part in _PARAMS])


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

# each block: its name, rows and columns, the parameters of the elements
# whose last index pair is (nu, mu)
_BLOCKS = tuple(
    (name, rows, [k for k, (element, _) in enumerate(_PARAMS)
                  if element[2:] == last])
    for name, rows, last in (("ee", _ROWS_EE, (E, E)),
                             ("epep", _ROWS_EPEP, (EP, EP)),
                             ("eep", _ROWS_EEP, (E, EP))))
_BLOCK_MASK = np.zeros((16, 16), dtype=bool)
for _name, _rows, _cols in _BLOCKS:
    _BLOCK_MASK[np.ix_(_rows, _cols)] = True


def _check_block_pattern(full):
    """Raise RuntimeError unless the maps ``full`` (..., 16 pathways, 16
    params) vanish outside the blocks, to 1e-12 of their largest entry."""
    if np.any(np.abs(full[..., ~_BLOCK_MASK]).max(axis=-1)
              > 1e-12 * np.abs(full).max(axis=(-2, -1))):
        raise RuntimeError("pathway map is not block diagonal as expected")


@dataclass(frozen=True)
class MBlocks:
    """Geometry blocks mapping tensor parameters to averaged pathway amplitudes.

    The arrays may carry a leading member axis, as ``geometry_blocks``
    returns for a stack of maps.  ``solve_chi_blocks`` and
    ``condition_numbers`` take a stack, ``full_matrix`` and ``apply`` one.
    """

    m_ee: np.ndarray
    m_epep: np.ndarray
    m_eep: np.ndarray
    # tensor-independent part of the pathway vector; zero for the default
    # term structure, nonzero in the alternative published reading
    offset: np.ndarray
    conditions: dict    # {block name: cond (...)}, from the check

    @property
    def condition_numbers(self):
        """{block name: largest condition number over the stack}."""
        return {name: float(np.max(cond))
                for name, cond in self.conditions.items()}

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


def geometry_blocks(offset, full, first_member=None) -> MBlocks:
    """Checked geometry blocks of maps ``full`` (..., 16 pathways, 16 params)
    with ``offset`` (..., 16).

    No block may have a condition number above COND_THRESHOLD
    (SingularGeometryError); the block pattern is ``pathway_structure``'s to
    check.  With a stack and ``first_member``, the error names the first
    failing member, counted from ``first_member``.
    """
    blocks = [full[..., rows, :][..., cols] for _, rows, cols in _BLOCKS]
    conditions = {name: np.linalg.cond(block)
                  for (name, _, _), block in zip(_BLOCKS, blocks)}
    raise_first_failure(first_member, *(
        (cond > COND_THRESHOLD, SingularGeometryError,
         f"geometry block {name} is singular for this dipole geometry")
        for name, cond in conditions.items()))
    return MBlocks(m_ee=blocks[0], m_epep=blocks[1], m_eep=blocks[2],
                   offset=offset, conditions=conditions)


def build_m_blocks(basis: ExcitonBasis, gamma: float,
                   verbatim: bool = False) -> MBlocks:
    """Derive the geometry blocks from the averaged pathway expressions.

    Each column is the averaged pathway vector generated by one unit vector
    of the real tensor parametrization at zero coherence and echo times;
    all of them come out of one pass over the pathways on the stacked probe
    tensor.  The map must vanish outside the blocks (RuntimeError), and
    ``geometry_blocks`` checks the blocks.  The commands use the ensemble
    engine's map ``table @ (S0 + Gamma dS)`` instead; this probe pass is
    the independent oracle the tests hold it to.
    """
    from .response import iso_pathway_vector

    vectors = iso_pathway_vector(basis, gamma, _PROBE_TENSOR,
                                 verbatim=verbatim)  # (16, 17)
    # The hole term and the ground-row closure constant cancel, so the
    # averaged pathway vector is strictly linear in the parameters; the
    # offset at zero parameters is subtracted anyway as a guard.
    full = vectors[:, 1:] - vectors[:, :1]
    _check_block_pattern(full)
    return geometry_blocks(vectors[:, 0].copy(), full)


@functools.cache
def pathway_structure(verbatim: bool):
    """Structure of the probed pathway vectors in the dipole factors.

    The averaged pathway vectors of the stacked probe tensor are linear in
    the 32 isotropic dipole factors of ``DIPOLE_TUPLES`` and affine in
    Gamma: vectors = table @ (S0 + Gamma dS).  S0 and dS (each 32 x 16
    pathways x 17 probes) are read off ``iso_pathway_vector`` with one-hot
    tables at Gamma = 0 and 1, so the pathway expressions stay the one
    source of truth.  Returned as one read-only real (64, 544) matrix, S0
    over dS, each row the real view of a (16, 17) complex block.  The block
    pattern is checked here, once for every dipole geometry: the map of each
    row must vanish outside the blocks (RuntimeError).
    """
    from .response import DIPOLE_TUPLES, iso_pathway_vector

    at = [np.array([iso_pathway_vector(
        None, gamma, _PROBE_TENSOR, verbatim=verbatim,
        table={labels: float(labels == one) for labels in DIPOLE_TUPLES})
        for one in DIPOLE_TUPLES]) for gamma in (0.0, 1.0)]
    # entries are sums of +-1, +-1j and 0: the difference is exact
    structure = np.concatenate([at[0], at[1] - at[0]])
    _check_block_pattern(structure[..., 1:] - structure[..., :1])
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


def solve_tensors(pathways, blocks: MBlocks):
    """The second stage of the inversion, for pathway columns (..., 16, n).

    Returns the real parameters (..., 16, n) of ``solve_chi_blocks``, the
    Hermitian elements they give (..., n, 2, 2, 2, 2) and their trace-closing
    ground rows (..., n, 2, 2).
    """
    params = solve_chi_blocks(pathways, blocks)
    elements = params_to_elements(np.swapaxes(params, -1, -2))
    return params, elements, closure_ground_row(elements)


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
    avg = iso_average_four
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

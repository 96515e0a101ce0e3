"""Fourth-order fluorescence-detected response of the dimer.

The rephasing-channel signal factorizes into per-experiment pulse
coefficients times sixteen pathway amplitudes indexed by which exciton
transition each pulse addresses.  The protocol takes them at zero coherence
and echo delays and averaged over isotropic orientations.  Every amplitude
is then a short sum of terms, each carrying four transition-dipole labels,
a process-tensor element for the waiting time, and a detection weight (1
for bleach and stimulated-emission routes, 1 - Gamma for routes passing
through the doubly excited state).  Dipole factors stay symbolic until
evaluation, so a table of them can be swapped in (see
``isoaverage.pathway_structure``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath import ProcessTensor
from .model import DIPOLE_LABELS, E, EP, EXCITON_LABELS, ExcitonBasis

_GL = ("eg", "epg")            # ground -> exciton dipole label per index
_FC = ("fep", "fe")            # f-manifold dipole appearing in channel r


#: canonical ordering of the sixteen pathway amplitudes
PATHWAY_ORDER = [(p, q, r, s)
                 for p in (E, EP) for q in (E, EP)
                 for r in (E, EP) for s in (E, EP)]


def pathway_index(p, q, r, s):
    """Position of (p, q, r, s) in PATHWAY_ORDER."""
    return ((p * 2 + q) * 2 + r) * 2 + s


PATHWAY_LABELS = ["{}.{}.{}.{}".format(*(EXCITON_LABELS[i] for i in pqrs))
                  for pqrs in PATHWAY_ORDER]


class PathwayTerm(NamedTuple):
    kind: str            # 'gsb', 'se' or 'esa'
    dipoles: tuple       # four dipole labels, one per pulse
    chi: object          # 'gg', (n, m) index pair, or None (constant 1)
    sign: float


def pathway_terms(p, q, r, s, verbatim=False):
    """Term decomposition of one pathway amplitude.

    ``verbatim`` selects the alternative published reading of the
    off-diagonal doubly-excited route: a constant instead of a
    tensor-weighted term.
    """
    d12 = (_GL[p], _GL[q])
    if r == s:
        return (
            PathwayTerm("gsb", d12 + (_GL[r], _GL[r]), "gg", 1.0),
            PathwayTerm("se", d12 + (_GL[r], _GL[r]), (r, r), -1.0),
            PathwayTerm("esa", d12 + (_FC[r], _FC[r]), (1 - r, 1 - r), -1.0),
        )
    return (
        PathwayTerm("se", d12 + (_GL[r], _GL[s]), (s, r), -1.0),
        PathwayTerm("esa", d12 + (_FC[r], _FC[s]),
                    None if verbatim else (s, r), -1.0),
    )


#: dipole labels of every pathway term (the same in either reading), in a
#: fixed order: the keys of an isotropic dipole-factor table
DIPOLE_TUPLES = sorted({term.dipoles for pqrs in PATHWAY_ORDER
                        for term in pathway_terms(*pqrs)})

# dipole indices (a, b, c, d) of each isotropic factor, DIPOLE_TUPLES order
_FACTOR_INDEX = np.array([[DIPOLE_LABELS.index(label) for label in labels]
                          for labels in DIPOLE_TUPLES]).T


def detection_weight(kind, gamma):
    """Fluorescence weight of a pathway family in the detection operator."""
    if kind == "esa":
        return 1.0 - gamma
    if kind in ("gsb", "se"):
        return 1.0
    raise ValueError(f"unknown pathway kind: {kind!r}")


def _chi_value(term: PathwayTerm, p, q, tensor: ProcessTensor):
    if term.chi is None:
        return 1.0 + 0.0j
    if term.chi == "gg":
        hole = 1.0 if p == q else 0.0
        return tensor.ground_row[q, p] - hole
    n, m = term.chi
    return tensor.elements[n, m, q, p]


def iso_dipole_factors(mu):
    """The isotropic dipole factors (..., 32), in DIPOLE_TUPLES order, of
    dipoles ``mu`` (..., 4, 3) in DIPOLE_LABELS order.

    Each is the collinear average <(a.z)(b.z)(c.z)(d.z)> =
    [(a.b)(c.d) + (a.c)(b.d) + (a.d)(b.c)] / 15, read off the Gram matrix
    of the four dipoles.
    """
    gram = (mu[..., :, None, :] * mu[..., None, :, :]).sum(axis=-1)
    a, b, c, d = _FACTOR_INDEX
    return (gram[..., a, b] * gram[..., c, d]
            + gram[..., a, c] * gram[..., b, d]
            + gram[..., a, d] * gram[..., b, c]) / 15.0


def projection_table(basis: ExcitonBasis, iso=True):
    """Isotropic average of the dipole factor of every pathway term, keyed
    by its four dipole labels (``iso_dipole_factors``).  Only the isotropic
    average is supported: any other ``iso`` raises ValueError."""
    if iso is not True:
        raise ValueError("only the isotropic dipole average is supported")
    mu = np.array([basis.dipole(label) for label in DIPOLE_LABELS])
    return dict(zip(DIPOLE_TUPLES, iso_dipole_factors(mu).tolist()))


def iso_pathway_vector(basis: ExcitonBasis, gamma, tensor: ProcessTensor,
                       verbatim=False, table=None):
    """All sixteen averaged amplitudes in canonical order, (16, ...) for a
    tensor stacked along trailing axes of its elements and ground row.

    ``table`` can carry precomputed dipole factors (``projection_table``).
    """
    if table is None:
        table = projection_table(basis)
    out = np.zeros((16,) + tensor.elements.shape[4:], dtype=complex)
    for k, (p, q, r, s) in enumerate(PATHWAY_ORDER):
        out[k] = sum(
            detection_weight(term.kind, gamma)
            * (term.sign * table[term.dipoles] * _chi_value(term, p, q, tensor))
            for term in pathway_terms(p, q, r, s, verbatim))
    return out


OMEGA_TUPLES = [(a, b, c, d)
                for a in "+-" for b in "+-" for c in "+-" for d in "+-"]
OMEGA_LABELS = ["".join(t) for t in OMEGA_TUPLES]


@dataclass(frozen=True)
class SignalTable:
    """Measured (or synthesized) signals: one row per waiting time."""

    t_grid: np.ndarray            # (n,) fs
    values: np.ndarray            # (n, 16) complex, columns in OMEGA_LABELS order

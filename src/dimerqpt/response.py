"""Fourth-order fluorescence-detected response of the dimer.

The rephasing-channel signal factorizes into per-experiment pulse
coefficients times sixteen pathway amplitudes indexed by which exciton
transition each pulse addresses.  Every amplitude is a short sum of terms,
each carrying four transition-dipole labels, one coherence propagator for
the delay between the first two pulses, one for the delay between the last
two, a process-tensor element for the waiting time, and a detection weight
(1 for bleach and stimulated-emission routes, 1 - Gamma for routes passing
through the doubly excited state).  Dipole projections stay symbolic until
evaluation so the same structure serves fixed-orientation signals and
isotropic averaging.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath import (ProcessTensor, RedfieldGenerator,
                   optical_coherence_propagator)
from .isoaverage import Z_LAB, iso_average_four, pathway_index
from .model import E, EP, ExcitonBasis

_GL = ("eg", "epg")            # ground -> exciton dipole label per index
_FC = ("fep", "fe")            # f-manifold dipole appearing in channel r
_STATE = ("e", "ep")


#: canonical ordering of the sixteen pathway amplitudes
PATHWAY_ORDER = [(p, q, r, s)
                 for p in (E, EP) for q in (E, EP)
                 for r in (E, EP) for s in (E, EP)]

PATHWAY_LABELS = ["{}.{}.{}.{}".format(*(_STATE[i] for i in pqrs))
                  for pqrs in PATHWAY_ORDER]


class PathwayTerm(NamedTuple):
    kind: str            # 'gsb', 'se' or 'esa'
    dipoles: tuple       # four dipole labels, one per pulse
    chi: object          # 'gg', (n, m) index pair, or None (constant 1)
    echo_pair: tuple     # coherence propagated between pulses 3 and 4
    sign: float


def pathway_terms(p, q, r, s, verbatim=False):
    """Term decomposition of one pathway amplitude.

    ``verbatim`` switches the two doubly-excited-route details that admit an
    alternative published reading: the echo-time coherence used for the
    diagonal-channel route and a constant (instead of tensor-weighted)
    off-diagonal route.
    """
    d12 = (_GL[p], _GL[q])
    if r == s:
        echo_opt = (_STATE[r], "g")
        echo_esa = echo_opt if verbatim else ("f", _STATE[1 - r])
        return (
            PathwayTerm("gsb", d12 + (_GL[r], _GL[r]), "gg", echo_opt, 1.0),
            PathwayTerm("se", d12 + (_GL[r], _GL[r]), (r, r), echo_opt, -1.0),
            PathwayTerm("esa", d12 + (_FC[r], _FC[r]), (1 - r, 1 - r),
                        echo_esa, -1.0),
        )
    return (
        PathwayTerm("se", d12 + (_GL[r], _GL[s]), (s, r),
                    (_STATE[s], "g"), -1.0),
        PathwayTerm("esa", d12 + (_FC[r], _FC[s]),
                    None if verbatim else (s, r), ("f", _STATE[r]), -1.0),
    )


def detection_weight(kind, gamma):
    """Fluorescence weight of a pathway family in the detection operator."""
    if kind == "esa":
        return 1.0 - gamma
    if kind in ("gsb", "se"):
        return 1.0
    raise ValueError(f"unknown pathway kind: {kind!r}")


def detect_observable(final_state_terms, gamma):
    """Contract tagged final-state amplitudes with the detection operator.

    ``final_state_terms`` is an iterable of (kind, complex amplitude); the
    doubly-excited routes are weighted by 1 - Gamma, everything else by 1.
    """
    return sum(detection_weight(kind, gamma) * value
               for kind, value in final_state_terms)


def _echo_factor(pair, t, gen):
    if t == 0:
        return 1.0 + 0.0j
    return optical_coherence_propagator(pair[0], pair[1], t, gen)


def _chi_value(term: PathwayTerm, p, q, tensor: ProcessTensor):
    if term.chi is None:
        return 1.0 + 0.0j
    if term.chi == "gg":
        hole = 1.0 if p == q else 0.0
        return tensor.ground_row[q, p] - hole
    n, m = term.chi
    return tensor.elements[n, m, q, p]


def projection_table(basis: ExcitonBasis, polarizations=None, iso=True,
                     verbatim=False):
    """Evaluate the dipole factor of every term appearing in any pathway.

    With ``iso`` the factor is the orientational average; otherwise the
    plain product of projections onto the given lab polarizations
    (defaulting to collinear z).
    """
    if polarizations is None:
        polarizations = (Z_LAB,) * 4
    tuples = set()
    for (p, q, r, s) in PATHWAY_ORDER:
        for term in pathway_terms(p, q, r, s, verbatim):
            tuples.add(term.dipoles)
    table = {}
    for labels in tuples:
        vecs = [basis.dipole(lab) for lab in labels]
        if iso:
            table[labels] = iso_average_four(*vecs, *polarizations)
        else:
            table[labels] = float(np.prod(
                [np.dot(v, e) for v, e in zip(vecs, polarizations)]))
    return table


def pathway_amplitude(p, q, r, s, tau, t, gamma, basis: ExcitonBasis,
                      tensor: ProcessTensor, gen: RedfieldGenerator = None,
                      polarizations=None, iso=False, verbatim=False,
                      table=None):
    """One pathway amplitude at delays (tau, tensor.waiting_time, t).

    Negative tau or t gives zero by causality.  ``gen`` is only needed for
    nonzero tau or t; ``table`` can carry precomputed dipole factors.
    """
    if tau < 0 or t < 0:
        return 0.0 + 0.0j
    if (tau > 0 or t > 0) and gen is None:
        raise ValueError("a generator is required for nonzero tau or t")
    if table is None:
        table = projection_table(basis, polarizations, iso=iso,
                                 verbatim=verbatim)
    g_tau = 1.0 if tau == 0 else optical_coherence_propagator(
        "g", _STATE[p], tau, gen)
    contributions = []
    for term in pathway_terms(p, q, r, s, verbatim):
        value = (term.sign * table[term.dipoles] * g_tau
                 * _echo_factor(term.echo_pair, t, gen)
                 * _chi_value(term, p, q, tensor))
        contributions.append((term.kind, value))
    return detect_observable(contributions, gamma)


def iso_pathway_vector(basis: ExcitonBasis, gamma, tensor: ProcessTensor,
                       tau=0.0, t=0.0, gen=None, verbatim=False, table=None):
    """All sixteen isotropically averaged amplitudes in canonical order."""
    if table is None:
        table = projection_table(basis, iso=True, verbatim=verbatim)
    out = np.zeros(16, dtype=complex)
    for (p, q, r, s) in PATHWAY_ORDER:
        out[pathway_index(p, q, r, s)] = pathway_amplitude(
            p, q, r, s, tau, t, gamma, basis, tensor, gen=gen,
            iso=True, verbatim=verbatim, table=table)
    return out


OMEGA_TUPLES = [(a, b, c, d)
                for a in "+-" for b in "+-" for c in "+-" for d in "+-"]
OMEGA_LABELS = ["".join(t) for t in OMEGA_TUPLES]


@dataclass(frozen=True)
class SignalTable:
    """Measured (or synthesized) signals: one row per waiting time."""

    t_grid: np.ndarray            # (n,) fs
    values: np.ndarray            # (n, 16) complex, columns in OMEGA_LABELS order
    omega_labels: tuple = tuple(OMEGA_LABELS)

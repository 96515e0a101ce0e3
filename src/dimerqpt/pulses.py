"""Gaussian pulse toolbox and the experiment-probability matrix.

Each weak pulse contributes an excitation coefficient equal to the Fourier
transform of its Gaussian envelope at the detuning from the transition it
drives: i * lambda * sqrt(2 pi sigma^2) * exp(-sigma^2 (w_transition - w)^2 / 2),
purely imaginary with positive imaginary part.  The 16x16 matrix of
four-pulse products is the fourfold Kronecker power of the 2x2 matrix of
single-pulse coefficients, which keeps its conditioning analysis trivial.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import SingularToolboxError, raise_first_failure
from .model import ExcitonBasis
from .units import to_angular

#: cond(C) at which C is numerically singular: a solve with it keeps no digit
C_COND_LIMIT = 1.0 / np.finfo(float).eps
# smallest singular value of C accepted: at or above it, the entries of C
# that flush to zero perturb it by less than a rounding error
_C_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class PulseToolbox:
    """Two-waveform toolbox: carrier frequencies in cm^-1, width in fs."""

    freq_plus: float
    freq_minus: float
    pulse_width_sigma: float
    field_strength_lambda: float = 1.0

    def __post_init__(self):
        if self.freq_plus == self.freq_minus:
            raise SingularToolboxError("toolbox frequencies must differ")
        if self.pulse_width_sigma <= 0:
            raise ValueError("pulse_width_sigma must be > 0")

    @property
    def carriers(self):
        return (self.freq_plus, self.freq_minus)


def pulse_coefficient(transition_freq, omega, toolbox: PulseToolbox):
    """Excitation coefficient for a transition at ``transition_freq`` (cm^-1).

    Exact Gaussian Fourier transform evaluated at the detuning; labels never
    enter, so f-manifold transitions resolve through their frequency (which
    coincides with one of the single-exciton transition frequencies here).
    Frequencies may be arrays that broadcast together.
    """
    sigma = toolbox.pulse_width_sigma
    detuning = to_angular(np.subtract(transition_freq, omega))  # rad/fs
    with np.errstate(over="ignore"):    # far off resonance: coefficient 0
        envelope = np.exp(-0.5 * (sigma * detuning) ** 2)
    return (1j * toolbox.field_strength_lambda
            * math.sqrt(2.0 * math.pi) * sigma * envelope)


def base_coefficient_matrix(energies, toolbox: PulseToolbox):
    """Matrices c[w, p] (..., 2, 2) of single-pulse coefficients of exciton
    energies (..., 2) in cm^-1, ordered (e, ep).

    Rows are the carriers (plus, minus), columns the exciton labels (e, ep).
    """
    return pulse_coefficient(np.asarray(energies, dtype=float)[..., None, :],
                             np.array(toolbox.carriers, dtype=float)[:, None],
                             toolbox)


def check_generators(base, toolbox: PulseToolbox, first_member=None):
    """Reject 2x2 generators (..., 2, 2) whose C cannot be inverted, and
    return their condition numbers cond(base) (...).

    C is the fourfold Kronecker power of its generator, so cond(C) is
    cond(base)^4 and the smallest singular value of C is the generator's to
    the fourth power.  A generator is rejected when cond(C) reaches
    C_COND_LIMIT (the toolbox cannot discriminate the two exciton
    transitions) or that singular value falls below the underflow-safe
    floor.  With a stack and ``first_member``, the error names the first
    such member, counted from ``first_member``.
    """
    sv = np.linalg.svd(base, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = sv[..., 0] / sv[..., 1]
        bad = ~(cond ** 4 < C_COND_LIMIT)
        bad |= ~(sv[..., 1] ** 4 >= _C_FLOOR)
    raise_first_failure(first_member, (
        bad, SingularToolboxError,
        f"toolbox frequencies ({toolbox.freq_plus}, {toolbox.freq_minus}) "
        "cm^-1 cannot discriminate the exciton transitions"))
    return cond


def kron_power4(base):
    """Fourfold Kronecker power (..., 16, 16) of matrices (..., 2, 2).

    Entries are the products np.kron forms, in its order, so one 2x2 matrix
    gives np.kron(np.kron(np.kron(b, b), b), b) exactly.
    """
    out = base
    for _ in range(3):
        size = 2 * out.shape[-1]
        out = (out[..., :, None, :, None] * base[..., None, :, None, :]
               ).reshape(base.shape[:-2] + (size, size))
    return out


def kron_solve(base, signals):
    """Solve C x = signals for C = base^(x)4: x = (base^-1)^(x)4 signals.

    ``base`` is (..., 2, 2) and ``signals`` one 16-vector or columns
    (..., 16, n); a stack of generators solves a stack of columns.
    """
    return kron_power4(np.linalg.inv(base)) @ signals


@dataclass(frozen=True)
class CMatrix:
    """Four-pulse probability matrix with its 2x2 generator.

    Rows are indexed by carrier tuples (w1, w2, w3, w4) in {+,-}^4, columns
    by exciton tuples (p, q, r, s) in {e, ep}^4, both lexicographic with the
    first pulse most significant.
    """

    entries: np.ndarray
    base_2x2: np.ndarray
    # cond(base_2x2) from check_generators; cond(C) is its fourth power
    base_condition_number: float

    @property
    def condition_number(self):
        """cond(C) from an SVD of the full 16x16 matrix."""
        return float(np.linalg.cond(self.entries))


def build_c_matrix(basis: ExcitonBasis, toolbox: PulseToolbox) -> CMatrix:
    """Kronecker-assemble the 16x16 matrix and reject unusable toolboxes."""
    base = base_coefficient_matrix([basis.energy_e, basis.energy_ep],
                                   toolbox)
    cond = check_generators(base, toolbox)
    return CMatrix(entries=kron_power4(base), base_2x2=base,
                   base_condition_number=float(cond))

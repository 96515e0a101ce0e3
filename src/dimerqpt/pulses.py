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

from .errors import SingularToolboxError
from .model import ExcitonBasis
from .units import to_angular

#: smallest |det| of the 2x2 generator, relative to its norm scale, that
#: still counts as able to discriminate the two exciton transitions
DET_THRESHOLD = 1e-12


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
    """
    sigma = toolbox.pulse_width_sigma
    detuning = to_angular(transition_freq - omega)  # rad/fs
    return (1j * toolbox.field_strength_lambda
            * math.sqrt(2.0 * math.pi) * sigma
            * math.exp(-0.5 * (sigma * detuning) ** 2))


def base_coefficient_matrix(basis: ExcitonBasis, toolbox: PulseToolbox):
    """2x2 matrix c[w, p] of single-pulse coefficients.

    Rows are the carriers (plus, minus), columns the exciton labels (e, ep).
    """
    freqs = (basis.energy_e, basis.energy_ep)
    return np.array([[pulse_coefficient(f, w, toolbox) for f in freqs]
                     for w in toolbox.carriers])


@dataclass(frozen=True)
class CMatrix:
    """Four-pulse probability matrix with its 2x2 generator.

    Rows are indexed by carrier tuples (w1, w2, w3, w4) in {+,-}^4, columns
    by exciton tuples (p, q, r, s) in {e, ep}^4, both lexicographic with the
    first pulse most significant.
    """

    entries: np.ndarray
    base_2x2: np.ndarray

    @property
    def condition_number(self):
        return float(np.linalg.cond(self.entries))

    @property
    def base_condition_number(self):
        return float(np.linalg.cond(self.base_2x2))

    def solve(self, signals):
        """Recover the 16 pathway amplitudes from the 16 measured signals."""
        return np.linalg.solve(self.entries, signals)


def build_c_matrix(basis: ExcitonBasis, toolbox: PulseToolbox) -> CMatrix:
    """Kronecker-assemble the 16x16 matrix and reject unusable toolboxes."""
    base = base_coefficient_matrix(basis, toolbox)
    scale = np.linalg.norm(base, ord="fro") ** 2 / 2.0
    if abs(np.linalg.det(base)) <= DET_THRESHOLD * scale:
        raise SingularToolboxError(
            "toolbox frequencies "
            f"({toolbox.freq_plus}, {toolbox.freq_minus}) cm^-1 cannot "
            "discriminate the exciton transitions")
    entries = base
    for _ in range(3):
        entries = np.kron(entries, base)
    return CMatrix(entries=entries, base_2x2=base)

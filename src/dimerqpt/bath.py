"""Ground-truth open-system dynamics.

An Ohmic-exponential bath couples independently and identically to each
site.  Within the secular approximation the single-exciton Liouville space
splits into a 2x2 population-transfer block and two decoupled coherence
channels, so the propagator over the waiting time is evaluated exactly
(closed-form eigendecomposition, no series truncation).  Optical coherences
(ground <-> exciton, exciton <-> doubly-excited) decay exponentially with
rates assembled from lifetime and pure-dephasing contributions; those rates
can be overridden when constructing the generator.
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .model import E, EP, ExcitonBasis
from .units import thermal_energy, to_angular


@dataclass(frozen=True)
class BathParams:
    """Ohmic-exponential environment, identical for both sites.

    reorganization_energy and cutoff_freq in cm^-1, temperature in kelvin.
    Temperature 0 is allowed and handled as an empty thermal occupation.
    """

    reorganization_energy: float
    cutoff_freq: float
    temperature: float

    def __post_init__(self):
        if self.reorganization_energy < 0:
            raise ValueError("reorganization_energy must be >= 0")
        if self.cutoff_freq <= 0:
            raise ValueError("cutoff_freq must be > 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


def spectral_density(omega, bath: BathParams):
    """Ohmic spectral density with exponential cutoff, cm^-1 in, cm^-1 out."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("spectral_density is defined for omega >= 0")
    val = (bath.reorganization_energy / bath.cutoff_freq) * omega \
        * np.exp(-omega / bath.cutoff_freq)
    return val if val.ndim else float(val)


def bose_occupation(omega, bath: BathParams):
    """Mean thermal occupation of a mode at omega (cm^-1)."""
    if bath.temperature == 0:
        return 0.0
    x = omega / thermal_energy(bath.temperature)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class RedfieldGenerator:
    """Secular generator for the dimer coupled to its vibrational baths.

    population_rates is the 2x2 rate matrix on [p_e, p_ep] (fs^-1, columns
    sum to zero).  dephasing_rates / coherence_freqs map ordered state pairs
    (i, j) of the coherence |i><j| to Gamma_ij (fs^-1) and the transition
    angular frequency (rad/fs).
    """

    population_rates: np.ndarray
    dephasing_rates: dict
    coherence_freqs: dict

    @property
    def rate_e_to_ep(self):
        return self.population_rates[1, 0]

    @property
    def rate_ep_to_e(self):
        return self.population_rates[0, 1]

_OPTICAL_PAIRS = [("e", "g"), ("ep", "g"), ("f", "e"), ("f", "ep")]


def build_redfield_generator(basis: ExcitonBasis, bath: BathParams,
                             dephasing_overrides: dict | None = None
                             ) -> RedfieldGenerator:
    """Assemble secular rates from the spectral density and mixing angle.

    Downhill transfer e -> ep goes as sin^2(2 theta)/2 times the one-sided
    bath correlation rate at the exciton splitting (both site baths
    contribute); the uphill rate follows from detailed balance.  Pure
    dephasing uses the finite omega -> 0 limit of the Ohmic density times
    the thermal occupation, projected with the appropriate powers of the
    mixing angle.  ``dephasing_overrides`` replaces individual Gamma_ij.
    """
    theta = basis.mixing_angle_theta
    gap = basis.splitting()  # cm^-1, > 0

    jn = spectral_density(gap, bath)
    nbar = bose_occupation(gap, bath)
    # one-sided correlation rate, converted to fs^-1
    gamma_down = 2.0 * math.pi * to_angular(jn) * (nbar + 1.0)
    gamma_up = 2.0 * math.pi * to_angular(jn) * nbar
    s2 = math.sin(2.0 * theta) ** 2
    k_down = 0.5 * s2 * gamma_down  # e -> ep
    k_up = 0.5 * s2 * gamma_up      # ep -> e

    if k_down < 0 or k_up < 0:
        raise RuntimeError("negative population rate: inconsistent bath input")

    rates = np.array([[-k_down, k_up],
                      [k_down, -k_up]])

    # omega -> 0 limit of 2 pi J(w) nbar(w): 2 pi * lambda kT / omega_c
    gamma0 = 2.0 * math.pi * to_angular(
        bath.reorganization_energy * thermal_energy(bath.temperature)
        / bath.cutoff_freq)

    c2, s2sq = math.cos(theta) ** 2, math.sin(theta) ** 2
    # diagonal-coupling differences per site bath, squared and summed over baths
    pd_exciton = gamma0 * math.cos(2.0 * theta) ** 2
    pd_optical = 0.5 * gamma0 * (c2 ** 2 + s2sq ** 2)

    dephasing = {
        ("e", "ep"): 0.5 * (k_down + k_up) + pd_exciton,
        ("e", "g"): 0.5 * k_down + pd_optical,
        ("ep", "g"): 0.5 * k_up + pd_optical,
        # f couples to both baths with full weight, so the same projection
        # differences appear for the f <-> exciton coherences
        ("f", "e"): 0.5 * k_down + pd_optical,
        ("f", "ep"): 0.5 * k_up + pd_optical,
    }
    if dephasing_overrides:
        dephasing.update(dephasing_overrides)
    for pair, rate in dephasing.items():
        if rate < 0:
            raise RuntimeError(f"negative dephasing rate for {pair}")

    freqs = {("e", "ep"): to_angular(gap)}
    for pair in _OPTICAL_PAIRS:
        freqs[pair] = to_angular(basis.transition_freq(pair))

    # mirrored pairs: Gamma symmetric, frequency antisymmetric
    for (i, j) in list(dephasing.keys()):
        dephasing[(j, i)] = dephasing[(i, j)]
        freqs[(j, i)] = -freqs[(i, j)]

    return RedfieldGenerator(population_rates=rates,
                             dephasing_rates=dephasing,
                             coherence_freqs=freqs)


@dataclass(frozen=True)
class ProcessTensor:
    """Linear map on the single-exciton manifold over one waiting time.

    ``elements[n, m, nu, mu]`` propagates <nu|rho|mu> into <n|rho|m> with
    n, m, nu, mu in {e=0, ep=1}.  ``ground_row[nu, mu]`` is the amplitude
    transferred into the ground-state population, fixed by trace closure.
    """

    waiting_time: float
    elements: np.ndarray
    ground_row: np.ndarray = None

    def __post_init__(self):
        if self.ground_row is None:
            object.__setattr__(self, "ground_row", closure_ground_row(self.elements))

    @classmethod
    def identity(cls, waiting_time=0.0):
        elems = np.zeros((2, 2, 2, 2), dtype=complex)
        for n in (E, EP):
            for m in (E, EP):
                elems[n, m, n, m] = 1.0
        return cls(waiting_time=waiting_time, elements=elems)

    def apply(self, rho):
        """Propagate a 2x2 single-exciton density-matrix block."""
        return np.einsum("nmvu,vu->nm", self.elements, rho)

    def compose(self, earlier: "ProcessTensor") -> "ProcessTensor":
        """Tensor for the concatenated evolution self o earlier."""
        elems = np.einsum("nmab,abvu->nmvu", self.elements, earlier.elements)
        # amplitude parked in g stays there; add what self drains from the
        # exciton-manifold output of earlier
        ground = earlier.ground_row + np.einsum(
            "ab,abvu->vu", self.ground_row, earlier.elements)
        return ProcessTensor(self.waiting_time + earlier.waiting_time,
                             elems, ground)

    def hermiticity_defect(self):
        return float(np.max(np.abs(
            self.elements - np.conj(self.elements.transpose(1, 0, 3, 2)))))

    def trace_defect(self):
        tr = self.ground_row + self.elements[E, E] + self.elements[EP, EP]
        return float(np.max(np.abs(tr - np.eye(2))))


def closure_ground_row(elements):
    """chi_gg,nu mu from probability conservation over {g, e, ep}."""
    return np.eye(2, dtype=complex) - elements[E, E] - elements[EP, EP]


def propagate_process_tensor(gen: RedfieldGenerator, waiting_time: float
                             ) -> ProcessTensor:
    """Exact secular propagator over the waiting time.

    Populations evolve under the 2x2 rate matrix (closed-form exponential
    through its eigenstructure), coherences as damped phases; cross blocks
    vanish in the secular approximation.
    """
    if waiting_time < 0:
        raise ValueError("waiting_time must be >= 0")
    t = waiting_time
    k_down = gen.rate_e_to_ep
    k_up = gen.rate_ep_to_e
    ktot = k_down + k_up

    elems = np.zeros((2, 2, 2, 2), dtype=complex)
    if ktot == 0.0:
        pop = np.eye(2)
    else:
        p_inf = np.array([[k_up, k_up], [k_down, k_down]]) / ktot
        pop = p_inf + math.exp(-ktot * t) * (np.eye(2) - p_inf)
    for n in (E, EP):
        for nu in (E, EP):
            elems[n, n, nu, nu] = pop[n, nu]

    phase = np.exp((-1j * gen.coherence_freqs[("e", "ep")]
                    - gen.dephasing_rates[("e", "ep")]) * t)
    elems[E, EP, E, EP] = phase
    elems[EP, E, EP, E] = np.conj(phase)

    return ProcessTensor(waiting_time=t, elements=elems)


def optical_coherence_propagator(i, j, duration, gen: RedfieldGenerator):
    """Damped-phase propagator of the optical coherence |i><j|.

    Zero for negative duration (causality); unit magnitude at zero
    dephasing.  Only ground <-> exciton and exciton <-> f pairs are valid.
    """
    pair = (i, j)
    allowed = set(_OPTICAL_PAIRS) | {(b, a) for a, b in _OPTICAL_PAIRS}
    if pair not in allowed:
        raise ValueError(f"not an optical coherence pair: {pair}")
    if duration < 0:
        return 0.0 + 0.0j
    return complex(np.exp((-1j * gen.coherence_freqs[pair]
                           - gen.dephasing_rates[pair]) * duration))

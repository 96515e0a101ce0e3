"""Ground-truth open-system dynamics.

An Ohmic-exponential bath couples independently and identically to each
site.  Within the secular approximation the single-exciton Liouville space
splits into a 2x2 population-transfer block and two decoupled coherence
channels, so the propagator over the waiting time is evaluated exactly
(closed-form eigendecomposition, no series truncation).  Optical
coherences play no part: the protocol reads its signals at zero coherence
and echo delays.
"""

from dataclasses import dataclass
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
    """Mean thermal occupation of a mode at omega (cm^-1), scalar or array."""
    if bath.temperature == 0:
        return 0.0
    with np.errstate(over="ignore"):    # a mode far above kT: occupation 0
        return 1.0 / np.expm1(np.asarray(omega)
                              / thermal_energy(bath.temperature))


def _pure_dephasing(bath: BathParams):
    """Pure-dephasing rate (fs^-1): the omega -> 0 limit of
    2 pi J(w) nbar(w), which is 2 pi * lambda kT / omega_c."""
    return 2.0 * math.pi * to_angular(
        bath.reorganization_energy * thermal_energy(bath.temperature)
        / bath.cutoff_freq)


def secular_rates(theta, gap, bath: BathParams):
    """(k_down, k_up, Gamma_e,ep) in fs^-1 for mixing angles ``theta`` and
    exciton splittings ``gap`` (cm^-1): one dimer's scalars or arrays.

    Downhill transfer e -> ep goes as sin^2(2 theta)/2 times the one-sided
    bath correlation rate at the exciton splitting (both site baths
    contribute); the uphill rate follows from detailed balance.  The e-ep
    coherence decays at half the total transfer rate plus pure dephasing
    projected with cos^2(2 theta).
    """
    jn = spectral_density(gap, bath)
    nbar = bose_occupation(gap, bath)
    # one-sided correlation rate, converted to fs^-1
    gamma_down = 2.0 * math.pi * to_angular(jn) * (nbar + 1.0)
    gamma_up = 2.0 * math.pi * to_angular(jn) * nbar
    s2 = np.sin(2.0 * theta) ** 2
    k_down = 0.5 * s2 * gamma_down  # e -> ep
    k_up = 0.5 * s2 * gamma_up      # ep -> e
    # diagonal-coupling differences per site bath, squared and summed over baths
    pd_exciton = _pure_dephasing(bath) * np.cos(2.0 * theta) ** 2
    return k_down, k_up, 0.5 * (k_down + k_up) + pd_exciton


@dataclass(frozen=True)
class RedfieldGenerator:
    """Secular generator for the dimer coupled to its vibrational baths.

    population_rates is the 2x2 rate matrix on [p_e, p_ep] (fs^-1, columns
    sum to zero); coherence_freq (rad/fs) and dephasing_rate (fs^-1) are
    the transition angular frequency and decay rate of the e-ep coherence
    |e><ep|.
    """

    population_rates: np.ndarray
    coherence_freq: float
    dephasing_rate: float

    @property
    def rate_e_to_ep(self):
        return self.population_rates[1, 0]

    @property
    def rate_ep_to_e(self):
        return self.population_rates[0, 1]


def build_redfield_generator(basis: ExcitonBasis, bath: BathParams
                             ) -> RedfieldGenerator:
    """Assemble the secular rates (``secular_rates``) from the spectral
    density and mixing angle."""
    theta = basis.mixing_angle_theta
    gap = basis.splitting()  # cm^-1, > 0

    k_down, k_up, dephasing_eep = secular_rates(theta, gap, bath)
    rates = np.array([[-k_down, k_up],
                      [k_down, -k_up]])
    return RedfieldGenerator(population_rates=rates,
                             coherence_freq=to_angular(gap),
                             dephasing_rate=dephasing_eep)


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


def closure_ground_row(elements):
    """chi_gg,nu mu from probability conservation over {g, e, ep}."""
    return (np.eye(2, dtype=complex) - elements[..., E, E, :, :]
            - elements[..., EP, EP, :, :])


def secular_dynamics(k_down, k_up, freq, rate, waiting_times):
    """Exact secular propagation over the waiting times (n,).

    ``k_down``, ``k_up`` (fs^-1) are the transfer rates e -> ep and
    ep -> e, ``freq`` (rad/fs) and ``rate`` (fs^-1) the frequency and
    dephasing rate of the e-ep coherence: one dimer's scalars or arrays of
    shape (...).  Populations evolve under the 2x2 rate matrix (closed-form
    exponential through its eigenstructure), the coherence as a damped
    phase; cross blocks vanish in the secular approximation.  Returns the
    population map (..., n, 2, 2), entry [n, nu] taking p_nu to p_n, and
    the coherence phase (..., n).
    """
    t = np.asarray(waiting_times, dtype=float)
    if np.any(t < 0):
        raise ValueError("waiting_time must be >= 0")
    k_down, k_up, freq, rate = (np.asarray(a, dtype=float)[..., None]
                                for a in (k_down, k_up, freq, rate))
    ktot = k_down + k_up
    # without transfer p_inf is zero and the decay factor one: populations
    # stay where they are
    p_inf = (np.stack([np.stack([k_up, k_up], axis=-1),
                       np.stack([k_down, k_down], axis=-1)], axis=-2)
             / np.where(ktot == 0.0, 1.0, ktot)[..., None, None])
    decay = np.exp(-ktot * t)[..., None, None]
    pop = p_inf + decay * (np.eye(2) - p_inf)
    phase = np.exp((-1j * freq - rate) * t)
    return pop, phase


def propagator_elements(gen: RedfieldGenerator, waiting_times):
    """Elements (n, 2, 2, 2, 2) of the exact secular propagator at the
    waiting times (n,); see ``secular_dynamics``."""
    pop, phase = secular_dynamics(
        gen.rate_e_to_ep, gen.rate_ep_to_e, gen.coherence_freq,
        gen.dephasing_rate, waiting_times)
    elems = np.zeros(phase.shape + (2, 2, 2, 2), dtype=complex)
    for n in (E, EP):
        for nu in (E, EP):
            elems[..., n, n, nu, nu] = pop[..., n, nu]
    elems[..., E, EP, E, EP] = phase
    elems[..., EP, E, EP, E] = np.conj(phase)
    return elems


def propagate_process_tensor(gen: RedfieldGenerator, waiting_time: float
                             ) -> ProcessTensor:
    """Exact secular propagator over one waiting time."""
    return ProcessTensor(waiting_time=waiting_time,
                         elements=propagator_elements(gen, [waiting_time])[0])


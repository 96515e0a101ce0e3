"""Excitonic dimer model: parameters, exciton basis and transition dipoles.

The dimer is two coupled two-level chromophores.  Diagonalizing the
one-excitation block of the Hamiltonian gives two single-exciton states
(labelled ``e`` and ``ep``, with ``e`` the higher-energy one) and a doubly
excited state ``f`` whose energy is the sum of the two exciton energies.
All four allowed transition dipoles lie in the xz plane of the molecular
frame; the reference axis is chosen so that mu_eg points along z.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDimerError, raise_first_failure

# exciton index convention used across the package
E, EP = 0, 1
EXCITON_LABELS = ("e", "ep")

# transition-dipole labels (the four optically allowed transitions)
DIPOLE_LABELS = ("eg", "epg", "fe", "fep")


@dataclass(frozen=True)
class DimerParams:
    """Site-basis parameters of the dimer.

    Energies and coupling are in cm^-1, the inter-dipole angle ``dipole_angle_phi``
    in radians.  ``quantum_yield_gamma`` is the fluorescence weight of the doubly
    excited state in the detection operator (2 for an ideal two-photon cascade).
    """

    site_energy_1: float
    site_energy_2: float
    coupling_j: float
    dipole_d1: float = 1.0
    dipole_ratio_d2_over_d1: float = 2.0
    dipole_angle_phi: float = 0.3
    quantum_yield_gamma: float = 2.0

    def __post_init__(self):
        if self.site_energy_1 == self.site_energy_2 and self.coupling_j == 0.0:
            raise DegenerateDimerError(
                "degenerate sites with zero coupling: exciton basis undefined"
            )
        if not 0.0 <= self.quantum_yield_gamma <= 2.0:
            raise ValueError(
                f"quantum_yield_gamma must lie in [0, 2], got {self.quantum_yield_gamma}"
            )

    @property
    def dipole_d2(self):
        return self.dipole_d1 * self.dipole_ratio_d2_over_d1


@dataclass(frozen=True)
class ExcitonBasis:
    """Closed-form exciton basis of the dimer.

    Dipole vectors are 3-vectors in the molecular frame (y component zero).
    """

    mixing_angle_theta: float
    energy_e: float
    energy_ep: float
    energy_f: float
    mu_eg: np.ndarray
    mu_epg: np.ndarray
    mu_fe: np.ndarray
    mu_fep: np.ndarray

    def dipole(self, label):
        return {"eg": self.mu_eg, "epg": self.mu_epg,
                "fe": self.mu_fe, "fep": self.mu_fep}[label]

    def splitting(self):
        """Energy gap between the two single-exciton states, cm^-1."""
        return self.energy_e - self.energy_ep


def diagonalize(site_energy_1, site_energy_2, coupling_j):
    """(average, half-difference, mixing angle, half-splitting) in cm^-1
    and radians, for one dimer's scalars or arrays of several dimers.

    The mixing angle is theta = arctan2(J, Delta) / 2, which keeps
    energy_e >= energy_ep for either sign of the site-energy difference;
    the half-splitting hypot(Delta, J) = Delta sec(2 theta) is sign-safe.
    """
    avg = 0.5 * (site_energy_1 + site_energy_2)
    delta = 0.5 * (site_energy_1 - site_energy_2)
    return (avg, delta, 0.5 * np.arctan2(coupling_j, delta),
            np.hypot(delta, coupling_j))


def dipole_vectors(theta, dipole_d1, dipole_d2, phi):
    """The four transition dipoles (..., 4, 3), in DIPOLE_LABELS order.

    Arguments are one dimer's scalars or arrays of several dimers.  Site
    dipoles are d1 along z and d2 rotated by phi in the xz plane; the
    exciton dipoles follow from the orthogonal rotation by the mixing angle.
    """
    theta, d1, d2, phi = np.broadcast_arrays(theta, dipole_d1, dipole_d2, phi)
    zero = np.zeros(theta.shape)
    vec_d1 = np.stack([zero, zero, d1], axis=-1)
    vec_d2 = np.stack([d2 * np.sin(phi), zero, d2 * np.cos(phi)], axis=-1)
    ct, st = np.cos(theta)[..., None], np.sin(theta)[..., None]
    return np.stack([ct * vec_d1 + st * vec_d2,      # eg
                     -st * vec_d1 + ct * vec_d2,     # epg
                     st * vec_d1 + ct * vec_d2,      # fe
                     ct * vec_d1 - st * vec_d2],     # fep
                    axis=-2)


def basis_checks(delta, coupling_j, mu_eg):
    """The two checks that reject an undefined exciton basis, a degenerate
    dimer and a vanishing mu_eg (the angle reference), as the (bad, error,
    message) triples of ``errors.raise_first_failure``.  Arguments are one
    dimer's half-difference, coupling and mu_eg (3,), or arrays of several
    dimers'."""
    return (((delta == 0.0) & (coupling_j == 0.0), DegenerateDimerError,
             "degenerate dimer: cannot build exciton basis"),
            (np.linalg.norm(mu_eg, axis=-1) == 0.0, DegenerateDimerError,
             "mu_eg vanishes: angle reference undefined"))


def build_exciton_basis(dimer: DimerParams) -> ExcitonBasis:
    """Diagonalize the one-exciton block and attach transition dipoles."""
    avg, delta, theta, split = diagonalize(
        dimer.site_energy_1, dimer.site_energy_2, dimer.coupling_j)
    mu_eg, mu_epg, mu_fe, mu_fep = dipole_vectors(
        theta, dimer.dipole_d1, dimer.dipole_d2, dimer.dipole_angle_phi)
    raise_first_failure(None, *basis_checks(delta, dimer.coupling_j, mu_eg))
    return ExcitonBasis(
        mixing_angle_theta=theta,
        energy_e=avg + split,
        energy_ep=avg - split,
        energy_f=dimer.site_energy_1 + dimer.site_energy_2,
        mu_eg=mu_eg,
        mu_epg=mu_epg,
        mu_fe=mu_fe,
        mu_fep=mu_fep,
    )

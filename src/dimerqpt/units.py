"""Unit conventions.

Frequencies and energies are stored in wavenumbers (cm^-1) throughout the
model layer; time is in femtoseconds.  Propagators convert to angular
frequency (rad/fs) at the point of use, with hbar = 1.
"""

import math

# speed of light in cm/fs
_C_CM_PER_FS = 2.99792458e-5

#: rad/fs per cm^-1
WAVENUMBER_TO_RAD_PER_FS = 2.0 * math.pi * _C_CM_PER_FS

#: Boltzmann constant in cm^-1 per kelvin
KB_WAVENUMBER_PER_K = 0.6950348004


def to_angular(freq_wavenumber):
    """cm^-1 -> rad/fs."""
    return freq_wavenumber * WAVENUMBER_TO_RAD_PER_FS


def thermal_energy(temperature_K):
    """k_B * T in cm^-1."""
    return KB_WAVENUMBER_PER_K * temperature_K

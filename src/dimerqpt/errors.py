"""Exception types shared across the package, and the member-naming raise."""

import numpy as np


class DimerQptError(Exception):
    """Base class for package-specific failures."""


class DegenerateDimerError(DimerQptError):
    """Both site energies equal and no coupling: the exciton basis is ill posed."""


class SingularToolboxError(DimerQptError):
    """The pulse-frequency probability matrix cannot be inverted."""


class SingularGeometryError(DimerQptError):
    """A dipole-geometry block is numerically singular."""


class ConfigError(DimerQptError):
    """An experiment configuration failed validation; names the field."""


class InputFileError(DimerQptError, ValueError):
    """An input file (CSV or run manifest) is malformed; names the file."""


def raise_first_failure(first_member, *checks):
    """Raise for the first member flagged by ``checks``, (bad, error,
    message) triples with ``bad`` one bool per member (a scalar for one
    unnumbered object): ``error(message)`` of its first failing check, the
    message led by ``member N: `` (N counted from ``first_member``) unless
    ``first_member`` is None."""
    bad = np.stack([np.ravel(mask) for mask, _, _ in checks])
    if bad.any():
        member = int(np.argmax(bad.any(axis=0)))
        _, error, message = checks[int(np.argmax(bad[:, member]))]
        if first_member is not None:
            message = f"member {first_member + member}: {message}"
        raise error(message)

"""Inhomogeneous ensemble: sampling and the array engine.

Static diagonal disorder scatters the two site energies independently with
a common Gaussian width; coupling, dipoles and quantum yield are shared.
Each member has its own exciton basis, rates, pulse-coefficient matrix and
geometry blocks (the mixing angle shifts with the disorder).

``evaluate_ensemble`` computes all of them as arrays over members, one chunk
at a time.  Once per chunk: the closed-form basis, the 32 isotropic
dipole factors (``response.iso_dipole_factors``), the secular propagator
over the waiting-time grid, the 2x2 pulse generator and C.  Per Gamma: the
geometry map ``table @ (S0 + Gamma dS)`` (with the fixed structure of
``isoaverage.pathway_structure``) and the forward map through
C = base^(x)4.  The forward pass inverts nothing, so it checks only that
its arrays are finite.  Tensors take ``invert``, the two-stage inverse that
a homogeneous ``reconstruct`` runs on each signal file:
``pulses.kron_solve`` (C^-1 = (base^-1)^(x)4), then
``isoaverage.solve_tensors``.  So for tensors each chunk's generators are
checked once (``pulses.check_generators``) and its geometry blocks at each
Gamma (``isoaverage.geometry_blocks``).  Every step acts on each member
alone (elementwise, or one BLAS/LAPACK call per member), so a member's
arrays do not depend on the members evaluated with it, and the means sum
members in order: runs are bit-identical for a given member list.
Ensemble reconstruction averages member-wise reconstructed tensors, a convex
mixture of physical maps.
"""

from collections.abc import Sequence
from dataclasses import dataclass, replace
import sys

import numpy as np

from .bath import (BathParams, ProcessTensor, closure_ground_row,
                   secular_dynamics, secular_rates)
from .errors import raise_first_failure
from .isoaverage import (N_PARAMS, SECULAR_SLOTS, geometry_blocks,
                         params_to_elements, pathway_structure,
                         secular_params, solve_tensors)
from .model import DimerParams, basis_checks, diagonalize, dipole_vectors
from .pulses import (PulseToolbox, base_coefficient_matrix, check_generators,
                     kron_power4, kron_solve)
from .response import SignalTable, iso_dipole_factors
from .units import to_angular

# members x (waiting times + 32) per chunk: the 32 stands for a member's
# arrays that do not depend on T (18-20 KB, against 0.6-1.5 KB per T)
_CHUNK_MEMBER_TIMES = 1 << 15


@dataclass(frozen=True)
class EnsembleSpec:
    """Gaussian diagonal-disorder ensemble: size, width (cm^-1) and seed."""

    n_members: int = 10000
    sigma_inh: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_members <= sys.maxsize:
            raise ValueError(f"n_members must lie in [1, {sys.maxsize}], "
                             f"got {self.n_members}")
        if self.sigma_inh < 0:
            raise ValueError("sigma_inh must be >= 0")


class Members(Sequence):
    """The disordered members of ``spec`` around ``base``, each drawn when
    it is read; a slice is a list of members.

    Member i draws its two site energies from a generator spawned at a
    member-indexed key of the seed, so a member does not depend on which
    members are read, or in what order.
    """

    def __init__(self, base: DimerParams, spec: EnsembleSpec):
        self.base, self.spec = base, spec

    def __len__(self):
        return self.spec.n_members

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        rng = np.random.default_rng(np.random.SeedSequence(
            self.spec.seed, spawn_key=(range(len(self))[index],)))
        w1 = rng.normal(self.base.site_energy_1, self.spec.sigma_inh)
        w2 = rng.normal(self.base.site_energy_2, self.spec.sigma_inh)
        return replace(self.base, site_energy_1=w1, site_energy_2=w2)


def sample_members(base: DimerParams, spec: EnsembleSpec):
    """Every member of ``Members(base, spec)``, as a list."""
    return list(Members(base, spec))


@dataclass(frozen=True)
class Prepared:
    """Gamma-independent arrays of the members start .. start + n - 1."""

    start: int
    table: np.ndarray       # (n, 32) isotropic dipole factors
    base: np.ndarray        # (n, 2, 2) single-pulse coefficients c[w, p]
    c: np.ndarray           # (n, 16, 16) C = base^(x)4
    params: np.ndarray      # (n, 6, T) propagator at SECULAR_SLOTS


@np.errstate(all="ignore")
def prepare(members, start, bath, toolbox, waiting_times) -> Prepared:
    """The Gamma-independent arrays of members numbered from ``start``.

    Finite but extreme parameters can overflow, so the arrays are made with
    floating-point warnings off and then checked.  A member that is
    degenerate, or whose dipole factors, pulse generator, C or propagator
    are not finite, raises, naming it.  Whether C can be inverted is left
    to the callers that invert it (``pulses.check_generators``).
    """
    e1, e2, j, d1, d2, phi = np.array(
        [(m.site_energy_1, m.site_energy_2, m.coupling_j, m.dipole_d1,
          m.dipole_d2, m.dipole_angle_phi) for m in members], dtype=float).T
    avg, delta, theta, split = diagonalize(e1, e2, j)
    energies = np.stack([avg + split, avg - split], axis=-1)   # e, ep
    mu = dipole_vectors(theta, d1, d2, phi)                    # (n, 4, 3)
    table = iso_dipole_factors(mu)
    base = base_coefficient_matrix(energies, toolbox)
    c = kron_power4(base)
    gap = energies[:, 0] - energies[:, 1]
    k_down, k_up, rate = secular_rates(theta, gap, bath)
    pop, phase = secular_dynamics(k_down, k_up, to_angular(gap), rate,
                                  waiting_times)
    params = secular_params(pop, phase)

    def not_finite(array):
        return ~np.isfinite(array).reshape(len(members), -1).all(axis=1)

    raise_first_failure(
        start, *basis_checks(delta, j, mu[:, 0]),
        (not_finite(table), ValueError,
         "isotropic dipole factors are not finite"),
        (not_finite(base), ValueError, "pulse generator is not finite"),
        (not_finite(c), ValueError, "C = base^(x)4 is not finite"),
        (not_finite(params), ValueError, "propagator is not finite"))
    return Prepared(start=start, table=table, base=base, c=c, params=params)


def _geometry_map(chunk, gamma, structure):
    """The unchecked geometry maps of a chunk's members at Gamma (n,):
    offsets (n, 16) and maps (n, 16 pathways, 16 params), as
    ``isoaverage.geometry_blocks`` takes them."""
    n = len(chunk.table)
    weights = np.concatenate([chunk.table, gamma[:, None] * chunk.table],
                             axis=1)
    # a stack of vector @ matrix products, one BLAS call per member: one
    # (n, 64) @ (64, 544) product lets BLAS choose its kernel by n, which
    # can round a member's row differently in a different batch
    vectors = np.matmul(weights[:, None, :], structure).view(complex)
    vectors = vectors.reshape(n, 16, 17)
    return vectors[..., 0], vectors[..., 1:] - vectors[..., :1]


def propagators(prepared):
    """The members' secular propagators: elements (n, T, 2, 2, 2, 2) and
    their trace-closing ground rows (n, T, 2, 2)."""
    n, _, count = prepared.params.shape
    params = np.zeros((n, count, N_PARAMS))
    params[..., SECULAR_SLOTS] = prepared.params.transpose(0, 2, 1)
    elements = params_to_elements(params)
    return elements, closure_ground_row(elements)


def invert(prepared, gamma, signals, verbatim=False, blocks=None):
    """Blocks, elements (n, k, 2, 2, 2, 2) and ground rows (n, k, 2, 2) of
    signal columns (n, 16, k): ``kron_solve`` with each member's C, then
    ``solve_tensors`` with its checked M at Gamma (n,), or with ``blocks``.
    The caller checks C first (``pulses.check_generators``)."""
    if blocks is None:
        blocks = geometry_blocks(
            *_geometry_map(prepared, gamma, pathway_structure(verbatim)),
            first_member=prepared.start)
    _, elements, grounds = solve_tensors(kron_solve(prepared.base, signals),
                                         blocks)
    return blocks, elements, grounds


def _evaluate(chunk, gamma, structure, want_tensors):
    """Named per-member arrays of a chunk at Gamma (n,): ``signals`` and
    ``pathways`` (n, 16, T), and with ``want_tensors`` the
    member-reconstructed ``elements`` (n, T, 2, 2, 2, 2) and ``grounds``
    (n, T, 2, 2).

    The finite arrays of ``prepare`` can still overflow here: a member
    whose geometry map or signals are not finite raises, naming it.  Only
    tensors invert M, so only then is a member with a singular geometry
    block rejected (``geometry_blocks``).
    """
    offset, full = _geometry_map(chunk, gamma, structure)
    pathways = full[..., SECULAR_SLOTS] @ chunk.params + offset[..., None]
    signals = chunk.c @ pathways
    raise_first_failure(chunk.start, (
        ~(np.isfinite(full).all(axis=(1, 2))
          & np.isfinite(signals).all(axis=(1, 2))),
        ValueError, "geometry map or signals are not finite"))
    parts = {"signals": signals, "pathways": pathways}
    if want_tensors:
        blocks = geometry_blocks(offset, full, first_member=chunk.start)
        _, parts["elements"], parts["grounds"] = invert(
            chunk, gamma, signals, blocks=blocks)
    return parts


def _add_in_order(sums, parts):
    """Add the members of each named array of ``parts`` (n, ...), one after
    another, into ``sums`` under its name.

    An axis-0 sum adds the rows in order; the running total, added in place
    to the first member, goes first, so the order carries across chunks.
    """
    for name, part in parts.items():
        if name in sums:
            part[0] += sums[name]
        sums[name] = part.sum(axis=0)


@dataclass
class EnsembleResult:
    """Ensemble means at one Gamma: signals and pathway vectors per waiting
    time, and the member-reconstructed tensors' elements and ground rows
    (None when tensors were not asked for)."""

    signal_table: SignalTable
    pathway_means: np.ndarray      # (n, 16) complex, canonical pathway order
    elements: np.ndarray           # (n, 2, 2, 2, 2) complex, or None
    grounds: np.ndarray            # (n, 2, 2) complex, or None
    n_members: int

    @property
    def tensors(self):
        """The mean tensors as ProcessTensors, one per waiting time."""
        if self.elements is None:
            return None
        return [ProcessTensor(waiting_time=t, elements=el, ground_row=gr)
                for t, el, gr in zip(self.signal_table.t_grid.tolist(),
                                     self.elements, self.grounds)]


def evaluate_ensemble(members, bath: BathParams, toolbox: PulseToolbox,
                      t_grid, gammas, verbatim=False, want_tensors=True):
    """Ensemble means at each Gamma of ``gammas``, a list of EnsembleResult.

    An entry of ``gammas`` is one Gamma for every member or a sequence of
    one per member.  Each chunk of members is prepared, evaluated at every
    Gamma, added to that Gamma's running totals in member order and dropped.
    A member that fails a check raises the error with its index in
    ``members``: the first failure in chunk order, then Gamma-independent
    before per-Gamma, then in Gamma order.  Every pass rejects a degenerate
    dimer and arrays that are not finite; only ``want_tensors``, which
    inverts C and M, also rejects a singular pulse generator or geometry
    block.
    """
    if not members:
        raise ValueError("members must be nonempty")
    t_grid = np.asarray(t_grid, dtype=float)
    structure = pathway_structure(verbatim)
    count = len(members)
    gammas = [np.broadcast_to(np.asarray(g, float), (count,)) for g in gammas]
    step = max(1, _CHUNK_MEMBER_TIMES // (len(t_grid) + 32))
    totals = [{} for _ in gammas]
    # overflow is checked for, not warned about: _evaluate rejects a member
    # whose signals are not finite, and a mean that overflows is left to the
    # CSV writer, which refuses numbers that are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, step):
            chunk = prepare(members[start:start + step], start, bath,
                            toolbox, t_grid)
            if want_tensors:
                check_generators(chunk.base, toolbox, first_member=start)
            for gamma, sums in zip(gammas, totals):
                _add_in_order(sums, _evaluate(
                    chunk, gamma[start:start + step], structure, want_tensors))
            # dropped before the next chunk is prepared
            del chunk
        # in place: a second copy of the totals would raise peak memory
        for total in (t for sums in totals for t in sums.values()):
            total /= count
    return [EnsembleResult(SignalTable(t_grid, sums["signals"].T),
                           sums["pathways"].T, sums.get("elements"),
                           sums.get("grounds"), count) for sums in totals]


def run_ensemble(members, bath: BathParams, toolbox: PulseToolbox, t_grid,
                 verbatim=False, want_tensors=True) -> EnsembleResult:
    """Ensemble means with each member at its own quantum_yield_gamma."""
    return evaluate_ensemble(
        members, bath, toolbox, t_grid,
        [[m.quantum_yield_gamma for m in members]], verbatim=verbatim,
        want_tensors=want_tensors)[0]


def synthesize_signal_table(dimer: DimerParams, bath: BathParams,
                            toolbox: PulseToolbox, t_grid,
                            verbatim=False) -> SignalTable:
    """Homogeneous (single-dimer) signal table over the waiting-time grid."""
    return run_ensemble([dimer], bath, toolbox, t_grid, verbatim=verbatim,
                        want_tensors=False).signal_table

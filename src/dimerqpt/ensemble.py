"""Inhomogeneous ensemble: sampling, synthesis, averaging.

Static diagonal disorder scatters the two site energies independently with
a common Gaussian width; coupling, dipoles and quantum yield are shared.
Each member gets its own exciton basis, rates, pulse-coefficient matrix and
geometry blocks (the mixing angle shifts with the disorder).  Members are
evaluated one after another and summed in member order, so results are
bit-identical for a given seed.  Ensemble reconstruction averages
member-wise reconstructed tensors, a convex mixture of physical maps.
"""

from dataclasses import dataclass, replace

import numpy as np

from .bath import (BathParams, ProcessTensor, build_redfield_generator,
                   propagate_process_tensor)
from .isoaverage import build_m_blocks, tensor_to_params
from .model import DimerParams, build_exciton_basis
from .pulses import PulseToolbox, build_c_matrix
from .reconstruct import reconstruct_rows
from .response import SignalTable


@dataclass(frozen=True)
class EnsembleSpec:
    """Gaussian diagonal-disorder ensemble: size, width (cm^-1) and seed."""

    n_members: int = 10000
    sigma_inh: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")
        if self.sigma_inh < 0:
            raise ValueError("sigma_inh must be >= 0")


def sample_members(base: DimerParams, spec: EnsembleSpec):
    """Draw the disordered site energies for every member.

    Member i draws from a generator spawned at a member-indexed key of the
    seed, so the sequence does not depend on evaluation or iteration order.
    """
    members = []
    for i in range(spec.n_members):
        if spec.sigma_inh == 0.0:
            members.append(base)
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(i,)))
        w1 = rng.normal(base.site_energy_1, spec.sigma_inh)
        w2 = rng.normal(base.site_energy_2, spec.sigma_inh)
        members.append(replace(base, site_energy_1=w1, site_energy_2=w2))
    return members


def evaluate_member(member: DimerParams, bath: BathParams,
                    toolbox: PulseToolbox, t_grid, verbatim=False,
                    want_tensors=True):
    """Signals (and member-reconstructed tensors) over the waiting-time grid.

    The forward model is evaluated through the member's geometry blocks,
    which is the exact linear form of the averaged pathway expressions; the
    reconstruction then inverts with the same member-matched matrices.
    Returns (signals (n, 16), pathway vectors (n, 16),
    elements (n, 2, 2, 2, 2) or None, ground rows (n, 2, 2) or None).
    """
    basis = build_exciton_basis(member)
    gen = build_redfield_generator(basis, bath)
    cmat = build_c_matrix(basis, toolbox)
    blocks = build_m_blocks(basis, member.quantum_yield_gamma,
                            verbatim=verbatim)
    mfull = blocks.full_matrix()
    n = len(t_grid)
    signals = np.zeros((n, 16), dtype=complex)
    pathways = np.zeros((n, 16), dtype=complex)
    for k, waiting_time in enumerate(t_grid):
        truth = propagate_process_tensor(gen, waiting_time)
        pathways[k] = mfull @ tensor_to_params(truth) + blocks.offset
        signals[k] = cmat.entries @ pathways[k]
    if not want_tensors:
        return signals, pathways, None, None
    elements, grounds, _ = reconstruct_rows(signals, cmat, blocks)
    return signals, pathways, elements, grounds


def synthesize_signal_table(dimer: DimerParams, bath: BathParams,
                            toolbox: PulseToolbox, t_grid,
                            verbatim=False) -> SignalTable:
    """Homogeneous (single-dimer) signal table over the waiting-time grid."""
    signals, _, _, _ = evaluate_member(dimer, bath, toolbox, tuple(t_grid),
                                       verbatim=verbatim, want_tensors=False)
    return SignalTable(t_grid=np.asarray(t_grid, dtype=float), values=signals)


@dataclass
class EnsembleResult:
    """Ensemble means: signals and pathway vectors per waiting time, tensors."""

    signal_table: SignalTable
    pathway_means: np.ndarray      # (n, 16) complex, canonical pathway order
    tensors: list
    n_members: int


def run_ensemble(members, bath: BathParams, toolbox: PulseToolbox, t_grid,
                 verbatim=False, want_tensors=True) -> EnsembleResult:
    """Evaluate all members and sum their results in member order."""
    if not members:
        raise ValueError("members must be nonempty")
    t_grid = tuple(float(t) for t in t_grid)
    n = len(t_grid)
    sums = [np.zeros((n, 16), dtype=complex),
            np.zeros((n, 16), dtype=complex),
            np.zeros((n, 2, 2, 2, 2), dtype=complex),
            np.zeros((n, 2, 2), dtype=complex)]
    for member in members:
        parts = evaluate_member(member, bath, toolbox, t_grid,
                                verbatim=verbatim, want_tensors=want_tensors)
        for total, part in zip(sums, parts):
            if part is not None:
                total += part

    count = len(members)
    sig, pw, el, gr = (total / count for total in sums)
    tensors = None
    if want_tensors:
        tensors = [ProcessTensor(waiting_time=t_grid[k], elements=el[k],
                                 ground_row=gr[k])
                   for k in range(n)]
    return EnsembleResult(
        signal_table=SignalTable(t_grid=np.asarray(t_grid, dtype=float),
                                 values=sig),
        pathway_means=pw, tensors=tensors, n_members=count)

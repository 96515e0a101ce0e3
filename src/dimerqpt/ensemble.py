"""Inhomogeneous ensemble: sampling, synthesis, averaging.

Static diagonal disorder scatters the two site energies independently with
a common Gaussian width; coupling, dipoles and quantum yield are shared.
Each member gets its own exciton basis, rates, pulse-coefficient matrix and
geometry blocks (the mixing angle shifts with the disorder), and members
are evaluated in parallel with a fixed-order reduction, so results are
bit-identical for a given seed regardless of worker count.  Ensemble
reconstruction averages member-wise reconstructed tensors, a convex
mixture of physical maps.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
import os

import numpy as np

from .bath import (BathParams, ProcessTensor, build_redfield_generator,
                   propagate_process_tensor)
from .isoaverage import build_m_blocks, tensor_to_params
from .model import DimerParams, build_exciton_basis
from .pulses import PulseToolbox, build_c_matrix
from .reconstruct import reconstruct_single
from .response import SignalTable

ENV_THREADS = "DIMERQPT_THREADS"


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


def resolve_worker_count(n_workers=None):
    """Explicit argument, then the thread-count env var, then cpu count."""
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get(ENV_THREADS)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


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
    elements = np.zeros((n, 2, 2, 2, 2), dtype=complex) if want_tensors else None
    grounds = np.zeros((n, 2, 2), dtype=complex) if want_tensors else None
    for k, waiting_time in enumerate(t_grid):
        truth = propagate_process_tensor(gen, waiting_time)
        pathways[k] = mfull @ tensor_to_params(truth) + blocks.offset
        signals[k] = cmat.entries @ pathways[k]
        if want_tensors:
            rec, _ = reconstruct_single(signals[k], cmat, blocks, waiting_time)
            elements[k] = rec.elements
            grounds[k] = rec.ground_row
    return signals, pathways, elements, grounds


def synthesize_signal_table(dimer: DimerParams, bath: BathParams,
                            toolbox: PulseToolbox, t_grid,
                            verbatim=False) -> SignalTable:
    """Homogeneous (single-dimer) signal table over the waiting-time grid."""
    signals, _, _, _ = evaluate_member(dimer, bath, toolbox, tuple(t_grid),
                                       verbatim=verbatim, want_tensors=False)
    return SignalTable(t_grid=np.asarray(t_grid, dtype=float), values=signals)


def _member_task(args):
    member, bath, toolbox, t_grid, verbatim, want_tensors = args
    return evaluate_member(member, bath, toolbox, t_grid,
                           verbatim=verbatim, want_tensors=want_tensors)


@dataclass
class EnsembleResult:
    """Ensemble means: signals and pathway vectors per waiting time, tensors."""

    signal_table: SignalTable
    pathway_means: np.ndarray      # (n, 16) complex, canonical pathway order
    tensors: list
    n_members: int


def run_ensemble(members, bath: BathParams, toolbox: PulseToolbox, t_grid,
                 n_workers=None, verbatim=False,
                 want_tensors=True) -> EnsembleResult:
    """Evaluate all members and reduce in member order.

    The reduction accumulates results sequentially in member index order,
    so the output does not depend on how the work was distributed.
    """
    if not members:
        raise ValueError("members must be nonempty")
    t_grid = tuple(float(t) for t in t_grid)
    workers = resolve_worker_count(n_workers)
    n = len(t_grid)
    sums = {
        "sig": np.zeros((n, 16), dtype=complex),
        "pw": np.zeros((n, 16), dtype=complex),
        "el": np.zeros((n, 2, 2, 2, 2), dtype=complex),
        "gr": np.zeros((n, 2, 2), dtype=complex),
    }

    tasks = ((m, bath, toolbox, t_grid, verbatim, want_tensors)
             for m in members)
    if workers == 1 or len(members) == 1:
        _reduce(map(_member_task, tasks), sums, want_tensors)
    else:
        chunk = max(1, len(members) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_member_task, tasks, chunksize=chunk)
            _reduce(results, sums, want_tensors)

    count = len(members)
    table = SignalTable(t_grid=np.asarray(t_grid, dtype=float),
                        values=sums["sig"] / count)
    tensors = None
    if want_tensors:
        tensors = [ProcessTensor(waiting_time=t_grid[k],
                                 elements=sums["el"][k] / count,
                                 ground_row=sums["gr"][k] / count)
                   for k in range(n)]
    return EnsembleResult(signal_table=table,
                          pathway_means=sums["pw"] / count,
                          tensors=tensors, n_members=count)


def _reduce(results, sums, want_tensors):
    for signals, pathways, elements, grounds in results:
        sums["sig"] += signals
        sums["pw"] += pathways
        if want_tensors:
            sums["el"] += elements
            sums["gr"] += grounds

"""Benchmark workloads: inputs made from a seed, one timed pass, checks.

Every pass of a workload does the same work, so every pass attempts the
same operations: one operation per reconstructed tensor.  An operation
fails when the program does not produce its tensor, and is incorrect when
the tensor disagrees with an oracle computed apart from the signal ->
inverse pipeline (exact secular propagators, compositions made here) or
breaks a property the method must have.

Package functions are always called through their module, never bound
here by name, so that the tracer's wrappers see the calls.
"""

import contextlib
import csv
from dataclasses import replace
from importlib import import_module
import itertools
import os
import shutil
from time import perf_counter

import numpy as np

bath, cli, config, ensemble, model = (
    import_module(f"dimerqpt.{name}")
    for name in ("bath", "cli", "config", "ensemble", "model"))

CHECK_TOL = 1e-8          # tensors against oracles
# Gamma must show in what the CLI writes, or the tensors' agreement across
# Gamma would prove nothing: |X(Gamma=0) - X(Gamma=2)| / |X(Gamma=2)| over a
# whole file.  Ensemble-mean signals are dominated by the few members whose
# excitons sit nearest the carriers, so for a small ensemble their contrast
# falls below 10% on about one seed in five (0.7% at worst over 150 seeds);
# the mean pathway amplitudes stay above 70%.
MIN_SIGNAL_CONTRAST = 1e-3
MIN_PATHWAY_CONTRAST = 0.1

_STATE = {"e": 0, "ep": 1}
_OMEGA = {"".join(t): k
          for k, t in enumerate(itertools.product("+-", repeat=4))}
_PATHWAY = {".".join(t): k
            for k, t in enumerate(itertools.product(("e", "ep"), repeat=4))}


def _distance(el_a, gr_a, el_b, gr_b):
    """Per-tensor max absolute difference over elements and ground rows."""
    n = len(el_a)
    return np.maximum(np.abs(el_a - el_b).reshape(n, -1).max(axis=1),
                      np.abs(gr_a - gr_b).reshape(n, -1).max(axis=1))


def _read_tensor_csv(path, grid):
    """Tensor CSV -> elements (n, 2, 2, 2, 2), ground rows (n, 2, 2).

    Entries the file does not hold stay NaN.
    """
    pos = {t: k for k, t in enumerate(grid)}
    elements = np.full((len(grid), 2, 2, 2, 2), np.nan, dtype=complex)
    grounds = np.full((len(grid), 2, 2), np.nan, dtype=complex)
    if not os.path.exists(path):
        return elements, grounds
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, n, m, nu, mu, re, im in reader:
            k = pos.get(float(t))
            if k is None:
                continue
            value = complex(float(re), float(im))
            if n == "g":
                grounds[k, _STATE[nu], _STATE[mu]] = value
            else:
                elements[k, _STATE[n], _STATE[m], _STATE[nu],
                         _STATE[mu]] = value
    return elements, grounds


def _read_table_csv(path, grid, columns):
    """Signal or pathway CSV -> (n, 16) complex, columns by label."""
    pos = {t: k for k, t in enumerate(grid)}
    values = np.full((len(grid), 16), np.nan, dtype=complex)
    if not os.path.exists(path):
        return values
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, label, re, im in reader:
            k = pos.get(float(t))
            if k is not None:
                values[k, columns[label]] = complex(float(re), float(im))
    return values


def _mean_propagators(dimers, bath_params, grid):
    """Mean exact secular propagator over dimers: (elements, ground rows)."""
    elements = np.zeros((len(grid), 2, 2, 2, 2), dtype=complex)
    grounds = np.zeros((len(grid), 2, 2), dtype=complex)
    for dimer in dimers:
        gen = bath.build_redfield_generator(
            model.build_exciton_basis(dimer), bath_params)
        for k, t in enumerate(grid):
            chi = bath.propagate_process_tensor(gen, t)
            elements[k] += chi.elements
            grounds[k] += chi.ground_row
    return elements / len(dimers), grounds / len(dimers)


class _CliWorkload:
    """load_config -> cmd_simulate -> cmd_reconstruct -> cmd_validate."""

    def __init__(self, seed, workdir):
        self.config_path = os.path.join(workdir, "config.json")
        self.config = self.make_config(np.random.default_rng(seed),
                                       os.path.join(workdir, "out"))
        config.save_config(self.config, self.config_path)
        self.grid = self.config.t_grid
        self.ops_per_pass = len(self.grid) * len(self.config.gamma_list)
        self.reference = _mean_propagators(self.oracle_dimers(),
                                           self.config.bath, self.grid)

    def output(self, stem, gamma):
        return os.path.join(self.config.output_dir,
                            f"{stem}_gamma{gamma:g}.csv")

    def run_pass(self):
        """One pass from an empty output directory; returns (times, codes)."""
        shutil.rmtree(self.config.output_dir, ignore_errors=True)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = perf_counter()
            cfg = config.load_config(self.config_path)
            t1 = perf_counter()
            rc_sim = cli.cmd_simulate(cfg)
            t2 = perf_counter()
            rc_rec = cli.cmd_reconstruct(cfg)
            t3 = perf_counter()
            rc_val = [cli.cmd_validate(self.output("tensors", g))
                      for g in cfg.gamma_list]
            t4 = perf_counter()
        times = {"simulate_s": t2 - t1, "reconstruct_s": t3 - t2,
                 "wall_s": t4 - t0}
        return times, (rc_sim, rc_rec, rc_val)

    def check(self, codes):
        """(failed, incorrect) operations of one pass."""
        rc_sim, rc_rec, rc_val = codes
        gammas = self.config.gamma_list
        tensors = [_read_tensor_csv(self.output("tensors", g), self.grid)
                   for g in gammas]
        contrast = {}
        for stem, columns in (("signals", _OMEGA), ("pathways", _PATHWAY)):
            low, high = (_read_table_csv(self.output(stem, g), self.grid,
                                         columns)
                         for g in (gammas[0], gammas[-1]))
            contrast[stem] = np.linalg.norm(low - high) / np.linalg.norm(high)
        gamma_visible = (contrast["signals"] > MIN_SIGNAL_CONTRAST
                         and contrast["pathways"] > MIN_PATHWAY_CONTRAST)
        failed = incorrect = 0
        for (el, gr), rc in zip(tensors, rc_val):
            produced = ~(np.isnan(el).reshape(len(el), -1).any(axis=1)
                         | np.isnan(gr).reshape(len(gr), -1).any(axis=1))
            ok = ((_distance(el, gr, *self.reference) <= CHECK_TOL)
                  & (_distance(el, gr, *tensors[0]) <= CHECK_TOL)
                  & self.extra_checks(el, gr))
            ok &= gamma_visible and rc_sim == 0 and rc_rec == 0 and rc == 0
            failed += int(np.count_nonzero(~produced))
            incorrect += int(np.count_nonzero(produced & ~ok))
        return failed, incorrect

    def extra_checks(self, elements, grounds):
        return np.ones(len(elements), dtype=bool)


class EnsembleWorkload(_CliWorkload):
    """Reference dimer, 40 cm^-1 disorder, default 30-point grid."""

    members = 12

    def make_config(self, rng, output_dir):
        spec = ensemble.EnsembleSpec(n_members=self.members, sigma_inh=40.0,
                                     seed=int(rng.integers(2**31)))
        return replace(config.default_config(output_dir=output_dir),
                       ensemble=spec)

    def oracle_dimers(self):
        return ensemble.sample_members(self.config.dimer,
                                       self.config.ensemble)


class DenseGridWorkload(_CliWorkload):
    """One homogeneous dimer over a 1000-point, 0.5 fs waiting-time grid.

    The grid starts at an integer multiple of its step, so every sum of
    two grid points at or below the last one is itself a grid point and
    the semigroup law can be checked there.
    """

    T0, STEP, N_T = 120.0, 0.5, 1000

    members = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # one split T_c = T_a + T_b, drawn per seed, for every c >= 2 T0
        rng = np.random.default_rng([seed, 1])
        offset = round(self.T0 / self.STEP)
        c = np.arange(offset, self.N_T)
        a = rng.integers(0, c - offset + 1)
        self.pairs = (c, a, c - offset - a)

    def make_config(self, rng, output_dir):
        dimer = model.DimerParams(
            site_energy_1=12881.0 + rng.uniform(-40.0, 40.0),
            site_energy_2=12719.0 + rng.uniform(-40.0, 40.0),
            coupling_j=120.0 + rng.uniform(-20.0, 20.0))
        grid = tuple(self.T0 + self.STEP * k for k in range(self.N_T))
        return replace(config.default_config(output_dir=output_dir),
                       dimer=dimer, t_grid=grid, homogeneous_only=True)

    def oracle_dimers(self):
        return [self.config.dimer]

    def extra_checks(self, elements, grounds):
        """chi(T_a + T_b) == chi(T_a) o chi(T_b), composed here."""
        c, a, b = self.pairs
        composed = np.einsum("knmij,kijvu->knmvu", elements[a], elements[b])
        ground = grounds[b] + np.einsum("kij,kijvu->kvu", grounds[a],
                                        elements[b])
        ok = np.ones(len(elements), dtype=bool)
        ok[c] = _distance(elements[c], grounds[c], composed,
                          ground) <= CHECK_TOL
        return ok


WORKLOADS = {
    "ensemble": EnsembleWorkload,
    "dense-grid": DenseGridWorkload,
}

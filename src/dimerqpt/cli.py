"""Command-line front end: simulate, reconstruct, validate, report.

All numeric output is CSV with headers at full double precision; the
configuration (JSON) plus seed and library versions are echoed into a run
manifest so a run can be reproduced exactly.  Exit codes: 0 success,
1 validation failure, 2 configuration error, 3 I/O error.
"""

import argparse
import csv
from dataclasses import replace
import json
import math
import os
import sys

import numpy as np

from .bath import (ProcessTensor, build_redfield_generator,
                   propagate_process_tensor)
from .config import (ExperimentConfig, config_to_dict, default_config,
                     load_config)
from .ensemble import run_ensemble, sample_members, resolve_worker_count
from .errors import ConfigError, DimerQptError
from .isoaverage import build_m_blocks
from .model import build_exciton_basis
from .pulses import build_c_matrix
from .reconstruct import reconstruct, validate_tensor
from .response import OMEGA_LABELS, PATHWAY_LABELS, SignalTable

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_STATE_NAMES = ("e", "ep")
_SIGNAL_HEADER = ["T_fs", "omega_tuple", "re_signal", "im_signal"]
_OMEGA_COLUMN = {label: col for col, label in enumerate(OMEGA_LABELS)}


def _fmt(x):
    return f"{x:.17g}"


def _gamma_tag(gamma):
    return f"{gamma:g}"


def _write_manifest(config, outdir):
    import numpy
    import scipy
    try:
        from importlib.metadata import version
        own = version("dimerqpt")
    except Exception:
        own = "unknown"
    manifest = {
        "config": config_to_dict(config),
        "versions": {"dimerqpt": own, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(os.path.join(outdir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _signal_paths(config, gamma):
    tag = _gamma_tag(gamma)
    return (os.path.join(config.output_dir, f"signals_gamma{tag}.csv"),
            os.path.join(config.output_dir, f"pathways_gamma{tag}.csv"))


def _apply_noise(values, noise, seed, index):
    """Relative Gaussian noise on real and imaginary parts, seeded per file."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(999_983, index)))
    scale = np.abs(values)
    re = rng.normal(0.0, 1.0, values.shape)
    im = rng.normal(0.0, 1.0, values.shape)
    return values + noise * scale * (re + 1j * im)


def cmd_simulate(config: ExperimentConfig, n_workers=None):
    os.makedirs(config.output_dir, exist_ok=True)
    if config.homogeneous_only:
        members = [config.dimer]
    else:
        members = sample_members(config.dimer, config.ensemble)
    for gidx, gamma in enumerate(config.gamma_list):
        members_g = [replace(m, quantum_yield_gamma=gamma) for m in members]
        result = run_ensemble(members_g, config.bath, config.toolbox,
                              config.t_grid, n_workers=n_workers,
                              verbatim=config.verbatim_terms,
                              want_tensors=False)
        signals = result.signal_table.values
        if config.noise:
            signals = _apply_noise(signals, config.noise,
                                   config.ensemble.seed, gidx)
        sig_path, path_path = _signal_paths(config, gamma)
        with open(sig_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_SIGNAL_HEADER)
            for k, t in enumerate(config.t_grid):
                for j, label in enumerate(OMEGA_LABELS):
                    writer.writerow([_fmt(t), label,
                                     _fmt(signals[k, j].real),
                                     _fmt(signals[k, j].imag)])
        with open(path_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["T_fs", "pathway", "re_p", "im_p"])
            for k, t in enumerate(config.t_grid):
                for j, label in enumerate(PATHWAY_LABELS):
                    writer.writerow([_fmt(t), label,
                                     _fmt(result.pathway_means[k, j].real),
                                     _fmt(result.pathway_means[k, j].imag)])
    _write_manifest(config, config.output_dir)
    return EXIT_OK


def _read_signal_table(path, config):
    """Signal CSV -> SignalTable; raises ValueError naming ``path:line``.

    Every waiting time of the configuration must carry each of the sixteen
    omega tuples exactly once, with finite numbers.
    """
    by_t = {}   # T -> (signals (16,), line of each omega tuple, 0 if none)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _SIGNAL_HEADER:
            raise ValueError(f"{path}:1: unexpected header {header}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            try:
                if len(row) != len(_SIGNAL_HEADER):
                    raise ValueError(f"expected {len(_SIGNAL_HEADER)} "
                                     f"fields, got {len(row)}")
                t_text, label, re_text, im_text = row
                if label not in _OMEGA_COLUMN:
                    raise ValueError(f"unknown omega_tuple {label!r}")
                t, re, im = float(t_text), float(re_text), float(im_text)
                if not (math.isfinite(t) and math.isfinite(re)
                        and math.isfinite(im)):
                    raise ValueError("non-finite number")
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: malformed row ({exc})")
            col = _OMEGA_COLUMN[label]
            signals, lines = by_t.setdefault(
                t, (np.zeros(16, dtype=complex), [0] * 16))
            if lines[col]:
                raise ValueError(
                    f"{path}:{line}: duplicate row for T_fs={t:g}, "
                    f"omega_tuple={label} (first at line {lines[col]})")
            signals[col] = complex(re, im)
            lines[col] = line
    t_grid = np.array(sorted(by_t))
    expected = np.asarray(config.t_grid, dtype=float)
    if t_grid.shape != expected.shape or not np.allclose(t_grid, expected):
        raise ValueError(
            f"{path}: waiting-time grid does not match the configuration "
            f"({len(t_grid)} rows vs {len(expected)} expected)")
    for t in t_grid:
        lines = by_t[t][1]
        if not all(lines):
            missing = [label for label, n in zip(OMEGA_LABELS, lines) if not n]
            raise ValueError(
                f"{path}:{min(n for n in lines if n)}: T_fs={t:g} has no row "
                f"for omega_tuple {', '.join(missing)}")
    return SignalTable(t_grid=t_grid,
                       values=np.array([by_t[t][0] for t in t_grid]))


def _write_tensor_csv(path, tensors, t_grid):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T_fs", "n", "m", "nu", "mu", "re_chi", "im_chi"])
        for t, tensor in zip(t_grid, tensors):
            for n in (0, 1):
                for m in (0, 1):
                    for nu in (0, 1):
                        for mu in (0, 1):
                            val = tensor.elements[n, m, nu, mu]
                            writer.writerow([
                                _fmt(t), _STATE_NAMES[n], _STATE_NAMES[m],
                                _STATE_NAMES[nu], _STATE_NAMES[mu],
                                _fmt(val.real), _fmt(val.imag)])
            for nu in (0, 1):
                for mu in (0, 1):
                    val = tensor.ground_row[nu, mu]
                    writer.writerow([_fmt(t), "g", "g", _STATE_NAMES[nu],
                                     _STATE_NAMES[mu],
                                     _fmt(val.real), _fmt(val.imag)])


def cmd_reconstruct(config: ExperimentConfig, n_workers=None):
    basis = build_exciton_basis(config.dimer)
    cmat = build_c_matrix(basis, config.toolbox)
    if config.homogeneous_only:
        gen = build_redfield_generator(basis, config.bath)
    else:
        members = sample_members(config.dimer, config.ensemble)
    report_lines = []
    failed = False
    for gamma in config.gamma_list:
        tag = _gamma_tag(gamma)
        if config.homogeneous_only:
            sig_path, _ = _signal_paths(config, gamma)
            try:
                table = _read_signal_table(sig_path, config)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_IO
            blocks = build_m_blocks(basis, gamma,
                                    verbatim=config.verbatim_terms)
            truth = [propagate_process_tensor(gen, t) for t in table.t_grid]
            rep = reconstruct(table, cmat, blocks, reference=truth)
            tensors = rep.tensors
            max_err = rep.max_reference_error()
            report_lines.append(
                f"gamma={tag}: cond(C)={rep.c_condition:.6g} "
                f"cond(M)={rep.m_conditions} max_residual={max_err:.3e}")
            diagnostics = rep.diagnostics
        else:
            members_g = [replace(m, quantum_yield_gamma=gamma)
                         for m in members]
            result = run_ensemble(members_g, config.bath, config.toolbox,
                                  config.t_grid, n_workers=n_workers,
                                  verbatim=config.verbatim_terms,
                                  want_tensors=True)
            tensors = result.tensors
            diagnostics = [validate_tensor(t) for t in tensors]
            report_lines.append(
                f"gamma={tag}: member-wise ensemble average over "
                f"{result.n_members} members, cond(C base)="
                f"{cmat.base_condition_number:.6g}")
        for t, diag in zip(config.t_grid, diagnostics):
            report_lines.append(
                f"gamma={tag} T={t:g}: herm={diag.hermiticity_defect:.3e} "
                f"trace={diag.trace_defect:.3e} "
                f"min_choi_eig={diag.min_choi_eig:.3e}")
            if not diag.passed(herm_tol=1e-8, trace_tol=1e-8, choi_tol=1e-8):
                failed = True
        _write_tensor_csv(
            os.path.join(config.output_dir, f"tensors_gamma{tag}.csv"),
            tensors, config.t_grid)
    with open(os.path.join(config.output_dir, "reconstruction_report.txt"),
              "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
    return EXIT_VALIDATION if failed else EXIT_OK


def _parse_tensor_csv(path):
    """Tensor CSV -> ordered dict T -> ProcessTensor; raises on bad rows."""
    index = {"e": 0, "ep": 1}
    elems = {}
    grounds = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["T_fs", "n", "m", "nu", "mu",
                                 "re_chi", "im_chi"]:
            raise ValueError(f"{path}:1: unexpected header "
                             f"{reader.fieldnames}")
        for row in reader:
            line = reader.line_num
            try:
                t = float(row["T_fs"])
                val = float(row["re_chi"]) + 1j * float(row["im_chi"])
                nu, mu = index[row["nu"]], index[row["mu"]]
                if row["n"] == "g" and row["m"] == "g":
                    grounds.setdefault(
                        t, np.zeros((2, 2), dtype=complex))[nu, mu] = val
                else:
                    n, m = index[row["n"]], index[row["m"]]
                    elems.setdefault(
                        t, np.zeros((2, 2, 2, 2), dtype=complex))[
                            n, m, nu, mu] = val
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: malformed row ({exc})")
    tensors = {}
    for t in sorted(elems):
        tensors[t] = ProcessTensor(waiting_time=t, elements=elems[t],
                                   ground_row=grounds.get(t))
    return tensors


def cmd_validate(tensor_csv, tolerance=1e-8):
    try:
        tensors = _parse_tensor_csv(tensor_csv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not tensors:
        print("error: no waiting times found in tensor file",
              file=sys.stderr)
        return EXIT_CONFIG
    failed = False
    for t, tensor in tensors.items():
        diag = validate_tensor(tensor)
        ok = diag.passed(herm_tol=tolerance, trace_tol=tolerance,
                         choi_tol=tolerance)
        failed = failed or not ok
        status = "pass" if ok else "FAIL"
        print(f"T={t:g}: herm={diag.hermiticity_defect:.3e} "
              f"trace={diag.trace_defect:.3e} "
              f"min_choi_eig={diag.min_choi_eig:.3e} [{status}]")
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_report(output_dir):
    path = os.path.join(output_dir, "run_manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: {path}: invalid JSON ({exc})", file=sys.stderr)
        return EXIT_IO
    cfg = manifest.get("config", {})
    print(f"run manifest: {path}")
    print(f"versions: {manifest.get('versions', {})}")
    grid = cfg.get("t_grid", [])
    print(f"waiting-time grid: {len(grid)} points "
          f"[{grid[0] if grid else '-'} .. {grid[-1] if grid else '-'}] fs")
    print(f"gamma values: {cfg.get('gamma_list')}")
    print(f"ensemble: {cfg.get('ensemble')}")
    print(f"homogeneous_only: {cfg.get('homogeneous_only')}")
    return EXIT_OK


def _load_or_default(args):
    if args.config:
        config = load_config(args.config)
    else:
        config = default_config()
    overrides = {}
    if getattr(args, "output_dir", None):
        overrides["output_dir"] = args.output_dir
    if getattr(args, "homogeneous", False):
        overrides["homogeneous_only"] = True
    if overrides:
        config = replace(config, **overrides)
    return config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dimerqpt",
        description="Simulate dimer fluorescence signals and reconstruct "
                    "the waiting-time process tensor.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "reconstruct"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--output-dir", help="override output directory")
        p.add_argument("--homogeneous", action="store_true",
                       help="single dimer, no disorder ensemble")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: env or cpu count)")

    v = sub.add_parser("validate")
    v.add_argument("tensor_csv")
    v.add_argument("--tolerance", type=float, default=1e-8)

    r = sub.add_parser("report")
    r.add_argument("--output-dir", default="out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = _load_or_default(args)
            return cmd_simulate(config, n_workers=args.workers)
        if args.command == "reconstruct":
            config = _load_or_default(args)
            return cmd_reconstruct(config, n_workers=args.workers)
        if args.command == "validate":
            return cmd_validate(args.tensor_csv, tolerance=args.tolerance)
        if args.command == "report":
            return cmd_report(args.output_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DimerQptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

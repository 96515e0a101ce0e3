"""Command-line front end: simulate, reconstruct, validate, report.

All numeric output is CSV with headers at full double precision; the
configuration (JSON) plus seed and library versions are echoed into a run
manifest so a run can be reproduced exactly.  Exit codes: 0 success,
1 validation failure, 2 configuration error, 3 I/O error.
"""

import argparse
import csv
from dataclasses import replace
from itertools import product
import json
import math
import os
import sys

import numpy as np

from .bath import (ProcessTensor, build_redfield_generator,
                   propagate_process_tensor)
from .config import (ExperimentConfig, config_to_dict, default_config,
                     load_config)
from .ensemble import run_ensemble, sample_members
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
_TENSOR_HEADER = ["T_fs", "n", "m", "nu", "mu", "re_chi", "im_chi"]
# (n, m, nu, mu) of each tensor-file row: the elements in array order, then
# the ground row
_TENSOR_ROWS = (list(product(_STATE_NAMES, repeat=4))
                + [("g", "g") + p for p in product(_STATE_NAMES, repeat=2)])
_TENSOR_SLOT = {",".join(key): slot for slot, key in enumerate(_TENSOR_ROWS)}


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


def cmd_simulate(config: ExperimentConfig):
    os.makedirs(config.output_dir, exist_ok=True)
    if config.homogeneous_only:
        members = [config.dimer]
    else:
        members = sample_members(config.dimer, config.ensemble)
    for gidx, gamma in enumerate(config.gamma_list):
        members_g = [replace(m, quantum_yield_gamma=gamma) for m in members]
        result = run_ensemble(members_g, config.bath, config.toolbox,
                              config.t_grid, verbatim=config.verbatim_terms,
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


def _read_rows(path, header, slots, key_name):
    """CSV of (T_fs, key fields..., re, im) rows -> {T: values} sorted by T.

    Each T must carry every key of ``slots`` (joined with commas) exactly
    once, with finite numbers; ``values`` holds them in slot order.  Raises
    ValueError naming ``path:line``.
    """
    by_t = {}   # T -> (values, line of each slot, 0 if none)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        row = next(reader, None)
        if row != header:
            raise ValueError(f"{path}:1: unexpected header {row}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            key = ",".join(row[1:-2])
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} "
                                     f"fields, got {len(row)}")
                if key not in slots:
                    raise ValueError(f"unknown {key_name} {key!r}")
                t, re, im = float(row[0]), float(row[-2]), float(row[-1])
                if not (math.isfinite(t) and math.isfinite(re)
                        and math.isfinite(im)):
                    raise ValueError("non-finite number")
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: malformed row ({exc})")
            slot = slots[key]
            values, lines = by_t.setdefault(
                t, (np.zeros(len(slots), dtype=complex), [0] * len(slots)))
            if lines[slot]:
                raise ValueError(
                    f"{path}:{line}: duplicate row for T_fs={t:g}, "
                    f"{key_name}={key} (first at line {lines[slot]})")
            values[slot] = complex(re, im)
            lines[slot] = line
    if not by_t:
        raise ValueError(f"{path}: no data rows")
    for t in sorted(by_t):
        lines = by_t[t][1]
        if not all(lines):
            missing = [key for key, slot in slots.items() if not lines[slot]]
            raise ValueError(
                f"{path}:{min(n for n in lines if n)}: T_fs={t:g} has no row "
                f"for {key_name} {'; '.join(missing)}")
    return {t: by_t[t][0] for t in sorted(by_t)}


def _read_signal_table(path, config):
    """Signal CSV -> SignalTable on the configuration's waiting times."""
    by_t = _read_rows(path, _SIGNAL_HEADER, _OMEGA_COLUMN, "omega_tuple")
    t_grid = np.array(list(by_t))
    expected = np.asarray(config.t_grid, dtype=float)
    if t_grid.shape != expected.shape or not np.allclose(t_grid, expected):
        raise ValueError(
            f"{path}: waiting-time grid does not match the configuration "
            f"({len(t_grid)} rows vs {len(expected)} expected)")
    return SignalTable(t_grid=t_grid, values=np.array(list(by_t.values())))


def _write_tensor_csv(path, tensors, t_grid):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TENSOR_HEADER)
        for t, tensor in zip(t_grid, tensors):
            values = np.concatenate([tensor.elements.ravel(),
                                     tensor.ground_row.ravel()])
            for labels, val in zip(_TENSOR_ROWS, values):
                writer.writerow([_fmt(t), *labels,
                                 _fmt(val.real), _fmt(val.imag)])


def cmd_reconstruct(config: ExperimentConfig):
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
                                  config.t_grid,
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
    return {t: ProcessTensor(waiting_time=t,
                             elements=values[:16].reshape(2, 2, 2, 2),
                             ground_row=values[16:].reshape(2, 2))
            for t, values in _read_rows(path, _TENSOR_HEADER, _TENSOR_SLOT,
                                        "n,m,nu,mu").items()}


def cmd_validate(tensor_csv, tolerance=1e-8):
    try:
        tensors = _parse_tensor_csv(tensor_csv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
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
            return cmd_simulate(config)
        if args.command == "reconstruct":
            config = _load_or_default(args)
            return cmd_reconstruct(config)
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

"""Command-line front end: simulate, reconstruct, validate, report.

All numeric output is CSV with headers at full double precision; the
configuration (JSON) plus seed and library versions are echoed into a run
manifest so a run can be reproduced exactly.  Exit codes: 0 success,
1 validation failure, 2 configuration error, 3 I/O error.
"""

import argparse
import csv
from dataclasses import replace
import functools
from itertools import islice, product
import json
import math
import os
import sys

import numpy as np

from .bath import (build_redfield_generator, closure_ground_row,
                   propagator_elements)
from .config import (ExperimentConfig, config_to_dict, default_config,
                     load_config)
from .ensemble import evaluate_ensemble, sample_members
from .errors import ConfigError, DimerQptError
from .isoaverage import build_m_blocks
from .model import build_exciton_basis
from .pulses import build_c_matrix
from .reconstruct import reconstruct_rows, validate_tensors
from .response import OMEGA_LABELS, PATHWAY_LABELS, SignalTable

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_STATE_NAMES = ("e", "ep")
_SIGNAL_HEADER = ["T_fs", "omega_tuple", "re_signal", "im_signal"]
_PATHWAY_HEADER = ["T_fs", "pathway", "re_p", "im_p"]
_OMEGA_COLUMN = {label: col for col, label in enumerate(OMEGA_LABELS)}
_TENSOR_HEADER = ["T_fs", "n", "m", "nu", "mu", "re_chi", "im_chi"]
# (n, m, nu, mu) of each tensor-file row: the elements in array order, then
# the ground row
_TENSOR_ROWS = (list(product(_STATE_NAMES, repeat=4))
                + [("g", "g") + p for p in product(_STATE_NAMES, repeat=2)])
_TENSOR_SLOT = {",".join(key): slot for slot, key in enumerate(_TENSOR_ROWS)}
_READ_CHUNK = 512   # CSV rows tokenized and parsed per step
# a byte that is not valid text becomes a lone surrogate in its field, which
# then fails to parse; messages show it escaped, as repr does
_DECODE_ERRORS = "surrogateescape"


def _gamma_tag(gamma):
    return f"{gamma:g}"


@functools.cache
def _distribution_version(name):
    """Installed version of a distribution, read from its metadata (so
    without importing it), or "unknown"; read once per process, as parsing
    the metadata takes milliseconds."""
    try:
        from importlib.metadata import version
        return version(name)
    except Exception:
        return "unknown"


def _write_manifest(config, outdir):
    manifest = {
        "config": config_to_dict(config),
        "versions": {"dimerqpt": _distribution_version("dimerqpt"),
                     "numpy": np.__version__,
                     "scipy": _distribution_version("scipy")},
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


def _members(config):
    if config.homogeneous_only:
        return [config.dimer]
    return sample_members(config.dimer, config.ensemble)


def cmd_simulate(config: ExperimentConfig):
    os.makedirs(config.output_dir, exist_ok=True)
    results = evaluate_ensemble(_members(config), config.bath,
                                config.toolbox, config.t_grid,
                                config.gamma_list,
                                verbatim=config.verbatim_terms,
                                want_tensors=False)
    for gidx, (gamma, result) in enumerate(zip(config.gamma_list, results)):
        signals = result.signal_table.values
        if config.noise:
            signals = _apply_noise(signals, config.noise,
                                   config.ensemble.seed, gidx)
        sig_path, path_path = _signal_paths(config, gamma)
        _write_rows(sig_path, _SIGNAL_HEADER, config.t_grid, OMEGA_LABELS,
                    signals)
        _write_rows(path_path, _PATHWAY_HEADER, config.t_grid,
                    PATHWAY_LABELS, result.pathway_means)
    _write_manifest(config, config.output_dir)
    return EXIT_OK


def _write_rows(path, header, t_grid, labels, values):
    """Write a T-major CSV: for each of the n waiting times in ``t_grid``,
    one row ``T_fs,label,re,im`` per label.

    ``labels`` holds k row keys (a key of several fields comes joined with
    commas) and ``values`` is (n, k) complex.  Numbers are written with
    ``%.17g``, which round-trips every double, and lines end in CRLF: the
    bytes the ``csv`` module's writer gives for ``f"{x:.17g}"`` fields.
    The k rows of one waiting time are one block: its T text joins the
    per-file row templates, and one ``%`` over the T's (re, im) pairs fills
    them; one ``write`` per waiting time.
    """
    # the rows of a block without their leading T field
    rows = [",%s,%%.17g,%%.17g\r\n" % label.replace("%", "%%")
            for label in labels]
    # a complex row viewed as floats is re, im pairs in row order
    pairs = np.ascontiguousarray(values, dtype=complex).view(float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, numbers in zip(t_grid, pairs):
            t = "%.17g" % t
            fh.write((t + t.join(rows)) % tuple(numbers.tolist()))


def _floats(texts):
    """(floats of ``texts``, None), or, when ``float`` rejects a text,
    (floats of the texts before it, (its index, the error message))."""
    try:
        return list(map(float, texts)), None
    except ValueError:
        for index, text in enumerate(texts):
            try:
                float(text)
            except ValueError as exc:
                return list(map(float, texts[:index])), (index, str(exc))


def _parse_chunk(rows, width, slots, key_name):
    """Parse the leading well-formed rows of a chunk of non-blank rows.

    Returns (T, slot, re, im) arrays of the rows before the first malformed
    one, and what is wrong with that row, or None when every row is well
    formed.  A row is checked for its field count, its key, its
    three numbers in column order and their finiteness, in that order.
    """
    fault = None
    n = len(rows)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=n)
    bad = np.flatnonzero(lengths != width)
    if bad.size:
        n = int(bad[0])
        fault = f"expected {width} fields, got {lengths[n]}"
    columns = list(zip(*rows[:n])) or [()] * width
    keys = list(map(",".join, zip(*columns[1:-2])))
    slot = list(map(slots.get, keys))
    if None in slot:
        n = slot.index(None)
        fault = f"unknown {key_name} {keys[n]!r}"
    numbers = []
    first_bad = n
    for column in (columns[0], columns[-2], columns[-1]):
        values, bad = _floats(column[:n])
        if bad is not None and bad[0] < first_bad:
            first_bad, fault = bad
        numbers.append(values)
    n = first_bad
    t, re, im = (np.array(values[:n], dtype=float) for values in numbers)
    finite = np.isfinite(t) & np.isfinite(re) & np.isfinite(im)
    if not finite.all():
        n = int(np.argmin(finite))
        fault = "non-finite number"
    return (t[:n], np.array(slot[:n], dtype=np.intp), re[:n], im[:n]), fault


def _data_row_lines(path, indices):
    """{index: line number} of data rows of a CSV file (header and blank
    rows not counted), as ``csv.reader.line_num`` gives them."""
    wanted = set(indices)
    lines = {}
    with open(path, newline="", errors=_DECODE_ERRORS) as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for index, _ in enumerate(filter(None, reader)):
            if index in wanted:
                lines[index] = reader.line_num
                if len(lines) == len(wanted):
                    break
    return lines


def _tokenized(reader, unreadable):
    """The rows of ``reader`` up to the first one the csv module cannot
    tokenize, such as a field over ``csv.field_size_limit``; that row ends
    the iteration, and its line and the error go to ``unreadable``."""
    try:
        yield from reader
    except csv.Error as exc:
        unreadable.append((reader.line_num, str(exc)))


def _read_rows(path, header, slots, key_name):
    """CSV of (T_fs, key fields..., re, im) rows -> (T, values) sorted by T.

    Each T must carry every key of ``slots`` (joined with commas) exactly
    once, with finite numbers; rows may come in any order and blank rows are
    skipped.  ``T`` is (n_T,) float and ``values`` (n_T, k) complex, k =
    len(slots), with columns in slot order.  The file is read
    ``_READ_CHUNK`` rows at a time and checked with array operations; a
    fault raises ValueError naming ``path:line``, for the fault first in
    file order (a missing key: the first T in order that lacks one).  Bytes
    that are not valid text make their row malformed.
    """
    # per chunk: (T, slot, re, im) of well-formed rows
    parts = [(np.empty(0), np.empty(0, dtype=np.intp), np.empty(0),
              np.empty(0))]
    fault = None    # what is wrong with the first malformed row
    unreadable = []     # (line, error) of a row the csv module rejects
    with open(path, newline="", errors=_DECODE_ERRORS) as fh:
        reader = csv.reader(fh)
        rows = _tokenized(reader, unreadable)
        row = next(rows, None)
        if row != header:
            raise ValueError(f"{path}:1: unexpected header {row}")
        while fault is None:
            block = list(islice(rows, _READ_CHUNK))
            if not block:
                break
            part, fault = _parse_chunk(list(filter(None, block)),
                                       len(header), slots, key_name)
            parts.append(part)
    t, slot, re, im = (np.concatenate(arrays) for arrays in zip(*parts))
    k = len(slots)
    times, first, t_index = np.unique(t, return_index=True,
                                      return_inverse=True)
    code = t_index * k + slot
    counts = np.bincount(code, minlength=len(times) * k)
    if len(counts) and counts.max() > 1:
        # the first row whose (T, key) came before it
        codes, first_of_code = np.unique(code, return_index=True)
        repeated = np.ones(len(code), dtype=bool)
        repeated[first_of_code] = False
        dup = int(np.argmax(repeated))
        earlier = int(first_of_code[np.searchsorted(codes, code[dup])])
        lines = _data_row_lines(path, (dup, earlier))
        key = {s: key for key, s in slots.items()}[slot[dup]]
        raise ValueError(
            f"{path}:{lines[dup]}: duplicate row for T_fs={float(t[dup]):g}, "
            f"{key_name}={key} (first at line {lines[earlier]})")
    if fault is not None:
        # every data row before the malformed one is well formed
        lines = _data_row_lines(path, (len(t),))
        raise ValueError(f"{path}:{lines[len(t)]}: malformed row ({fault})")
    if unreadable:
        line, error = unreadable[0]
        raise ValueError(f"{path}:{line}: malformed row ({error})")
    if not len(t):
        raise ValueError(f"{path}: no data rows")
    present = counts.reshape(len(times), k) > 0
    incomplete = np.flatnonzero(~present.all(axis=1))
    if incomplete.size:
        i = int(incomplete[0])
        missing = [key for key, s in slots.items() if not present[i, s]]
        row = int(first[i])
        lines = _data_row_lines(path, (row,))
        raise ValueError(
            f"{path}:{lines[row]}: T_fs={float(times[i]):g} has no row "
            f"for {key_name} {'; '.join(missing)}")
    values = np.empty((len(times), k), dtype=complex)
    values.real[t_index, slot] = re
    values.imag[t_index, slot] = im
    return times, values


def _read_signal_table(path, config):
    """Signal CSV -> SignalTable on the configuration's waiting times."""
    t_grid, values = _read_rows(path, _SIGNAL_HEADER, _OMEGA_COLUMN,
                                "omega_tuple")
    expected = np.asarray(config.t_grid, dtype=float)
    if t_grid.shape != expected.shape or not np.allclose(t_grid, expected):
        raise ValueError(
            f"{path}: waiting-time grid does not match the configuration "
            f"({len(t_grid)} rows vs {len(expected)} expected)")
    return SignalTable(t_grid=t_grid, values=values)


def _write_tensor_csv(path, elements, grounds, t_grid):
    n = len(elements)
    _write_rows(path, _TENSOR_HEADER, t_grid, list(_TENSOR_SLOT),
                np.concatenate([elements.reshape(n, 16),
                                grounds.reshape(n, 4)], axis=1))


def cmd_reconstruct(config: ExperimentConfig):
    basis = build_exciton_basis(config.dimer)
    cmat = build_c_matrix(basis, config.toolbox)
    if config.homogeneous_only:
        gen = build_redfield_generator(basis, config.bath)
        truth = propagator_elements(gen, config.t_grid)
        truth_grounds = closure_ground_row(truth)
    else:
        # member-wise: every member inverted with its own C and M
        results = evaluate_ensemble(_members(config), config.bath,
                                    config.toolbox, config.t_grid,
                                    config.gamma_list,
                                    verbatim=config.verbatim_terms,
                                    want_tensors=True)
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
            elements, grounds, _ = reconstruct_rows(table.values, cmat,
                                                    blocks)
            max_err = max(np.max(np.abs(elements - truth)),
                          np.max(np.abs(grounds - truth_grounds)))
            report_lines.append(
                f"gamma={tag}: cond(C)={cmat.condition_number:.6g} "
                f"cond(M)={blocks.condition_numbers} "
                f"max_residual={max_err:.3e}")
        else:
            result = next(results)
            elements, grounds = result.elements, result.grounds
            report_lines.append(
                f"gamma={tag}: member-wise ensemble average over "
                f"{result.n_members} members, cond(C base)="
                f"{cmat.base_condition_number:.6g}")
        diagnostics = validate_tensors(elements, grounds)
        for t, diag in zip(config.t_grid, diagnostics):
            report_lines.append(
                f"gamma={tag} T={t:g}: herm={diag.hermiticity_defect:.3e} "
                f"trace={diag.trace_defect:.3e} "
                f"min_choi_eig={diag.min_choi_eig:.3e}")
            if not diag.passed(herm_tol=1e-8, trace_tol=1e-8, choi_tol=1e-8):
                failed = True
        _write_tensor_csv(
            os.path.join(config.output_dir, f"tensors_gamma{tag}.csv"),
            elements, grounds, config.t_grid)
    with open(os.path.join(config.output_dir, "reconstruction_report.txt"),
              "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
    return EXIT_VALIDATION if failed else EXIT_OK


def _parse_tensor_csv(path):
    """Tensor CSV -> T (n,), elements (n, 2, 2, 2, 2), ground rows (n, 2, 2),
    the last two views of the rows read; raises ValueError on bad rows."""
    times, values = _read_rows(path, _TENSOR_HEADER, _TENSOR_SLOT,
                               "n,m,nu,mu")
    n = len(times)
    return (times, values[:, :16].reshape(n, 2, 2, 2, 2),
            values[:, 16:].reshape(n, 2, 2))


def cmd_validate(tensor_csv, tolerance=1e-8):
    try:
        times, elements, grounds = _parse_tensor_csv(tensor_csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    failed = False
    diagnostics = validate_tensors(elements, grounds)
    for t, diag in zip(times.tolist(), diagnostics):
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
    cfg = manifest.get("config", {}) if isinstance(manifest, dict) else None
    grid = cfg.get("t_grid", []) if isinstance(cfg, dict) else None
    if not isinstance(grid, list):
        print(f"error: {path}: not a run manifest (expected an object whose "
              f"'config' object holds a 't_grid' list)", file=sys.stderr)
        return EXIT_IO
    print(f"run manifest: {path}")
    print(f"versions: {manifest.get('versions', {})}")
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


def _tolerance(text):
    """argparse type of ``--tolerance``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return value


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
    v.add_argument("--tolerance", type=_tolerance, default=1e-8)

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

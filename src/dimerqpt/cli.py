"""Command-line front end: simulate, reconstruct, validate, report.

All numeric output is CSV with headers at full double precision; the
configuration (JSON) plus seed and library versions are echoed into a run
manifest so a run can be reproduced exactly.  Exit codes: 0 success,
1 validation failure, 2 configuration error, 3 I/O error.
"""

import argparse
import contextlib
import csv
from dataclasses import replace
import functools
from itertools import chain, islice, product
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .config import (ExperimentConfig, config_to_dict, default_config,
                     gamma_tag, load_config)
from .ensemble import (evaluate_ensemble, invert, prepare, propagators,
                       sample_members)
from .errors import ConfigError, DimerQptError
from .reconstruct import validate_tensors
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
# a byte that is not valid text becomes a lone surrogate in its field, which
# then fails to parse; messages show it escaped, as repr does
_DECODE_ERRORS = "surrogateescape"


def _normalized(name):
    """A distribution name as importlib.metadata matches it: each run of
    ``-``, ``_`` and ``.`` as one ``_``, in lower case."""
    return re.sub(r"[-_.]+", "_", name).lower()


def _metadata_version(path):
    """The ``Version`` header of the distribution metadata at ``path``, or
    "unknown".  As importlib.metadata does, this reads the first nonempty
    of ``path/METADATA``, ``path/PKG-INFO`` and (an .egg-info file) ``path``
    as UTF-8; the headers end at the first empty line."""
    for target in (os.path.join(path, "METADATA"),
                   os.path.join(path, "PKG-INFO"), path):
        try:
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            continue
        except UnicodeDecodeError:
            return "unknown"
        if text:
            break
    else:
        return "unknown"
    for line in text.splitlines():
        if not line:
            break
        header, colon, value = line.partition(":")
        if colon and header.lower() == "version":
            return value.strip()
    return "unknown"


@functools.cache
def _distribution_version(name):
    """Installed version of a distribution, or "unknown": that of the first
    ``<name>-*.dist-info`` or ``<name>*.egg-info`` entry of a ``sys.path``
    directory (in listing order), the one importlib.metadata.version reads.

    Neither the distribution nor importlib.metadata is imported: the latter
    loads the email package, about 1.4 MiB of resident memory kept for the
    life of the process.  Zip archives on ``sys.path`` are not searched.
    Looked up once per process.
    """
    wanted = _normalized(name)
    for entry in sys.path:
        try:
            children = os.listdir(entry or ".")
        except OSError:
            continue
        for child in children:
            low = child.lower()
            if (low.endswith((".dist-info", ".egg-info"))
                    and _normalized(low.rpartition(".")[0].partition("-")[0])
                    == wanted):
                return _metadata_version(os.path.join(entry, child))
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
    tag = gamma_tag(gamma)
    return (os.path.join(config.output_dir, f"signals_gamma{tag}.csv"),
            os.path.join(config.output_dir, f"pathways_gamma{tag}.csv"))


def _apply_noise(values, noise, seed, index):
    """Relative Gaussian noise on real and imaginary parts, seeded per file.
    A huge ``noise`` overflows; ``_write_rows`` refuses what is not finite."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(999_983, index)))
    scale = np.abs(values)
    re = rng.normal(0.0, 1.0, values.shape)
    im = rng.normal(0.0, 1.0, values.shape)
    with np.errstate(over="ignore", invalid="ignore"):
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
    them; one ``write`` per waiting time.  Values that are not all finite
    raise ValueError naming ``path``, and nothing is written.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: not written, as its numbers would not "
                         "all be finite")
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


def _parse_row(fields, width, slots, key_name):
    """(T, key, value) of one non-blank CSV row of (T_fs, key fields...,
    re, im).  A malformed row raises ValueError saying what is wrong, for
    the first fault in the order field count, key, T, re, im, finiteness."""
    if len(fields) != width:
        raise ValueError(f"expected {width} fields, got {len(fields)}")
    key = ",".join(fields[1:-2])
    if key not in slots:
        raise ValueError(f"unknown {key_name} {key!r}")
    t, re, im = float(fields[0]), float(fields[-2]), float(fields[-1])
    if not (math.isfinite(t) and math.isfinite(re) and math.isfinite(im)):
        raise ValueError("non-finite number")
    return t, key, complex(re, im)


def _guarded_lines(fh, keys):
    """The lines of ``fh``, up to one that is longer than
    ``csv.field_size_limit()`` or holds a NUL, which raises ValueError: the
    first may hold a field the csv module rejects, and a NUL ending a key
    would vanish in a numpy bytes field.

    The first ``len(keys)`` lines are read and checked before any is
    yielded: if they are not one block of the writer's layout (key fields
    ``keys`` in order, one T text), ValueError is raised before any line is
    parsed, which sends a shuffled or reversed file on at once.
    """
    block = list(islice(fh, len(keys)))
    fields = [line.split(",") for line in block]
    if any(row[0] != fields[0][0] or ",".join(row[1:-2]) != key
           for row, key in zip(fields, keys)):
        raise ValueError("file left to the row checker")
    limit = csv.field_size_limit()
    for line in chain(block, fh):
        if len(line) > limit or "\0" in line:
            raise ValueError("line left to the row checker")
        yield line


def _read_writer_layout(fh, header, slots):
    """(T, values) of the CSV open in ``fh`` if it is in the writer's
    layout, else None (with ``fh`` read part-way).

    The writer's layout is ``header`` as the writer writes it, then for each
    T in strictly increasing order one block of rows, a row per key in slot
    order, each row carrying the same T and finite numbers.  The first
    block is checked as text (``_guarded_lines``), then one
    ``np.loadtxt`` call parses the rows; it reads numbers with the parser
    ``float`` uses, so a file accepted here is accepted by the row checker
    with the same (T, values) (a T spelled 0 and -0 in one block is that of
    the block's first row in both).  Key fields are bytes one wider than the
    longest valid key field, so a longer key never matches.  Anything else,
    including a ``loadtxt`` warning, returns None.
    """
    if fh.readline() != ",".join(header) + "\r\n":
        return None
    names = sorted(slots, key=slots.get)
    # (k, key fields) bytes: the key fields of a block's rows, in slot order
    keys = np.array([key.split(",") for key in names], dtype=bytes)
    dtype = [("t", "f8"), ("key", f"S{keys.itemsize + 1}", keys.shape[1:]),
             ("re", "f8"), ("im", "f8")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(_guarded_lines(fh, names), dtype=dtype,
                              delimiter=",", quotechar=None, comments=None,
                              ndmin=1)
        except (ValueError, Warning):
            return None
    if len(rows) % len(keys):
        return None
    blocks = rows.reshape(-1, len(keys))
    t = blocks["t"]
    if not ((blocks["key"] == keys).all()
            and (t == t[:, :1]).all()
            and (np.diff(t[:, 0]) > 0).all()
            and all(np.isfinite(blocks[name]).all()
                    for name in ("t", "re", "im"))):
        return None
    values = np.empty(blocks.shape, dtype=complex)
    values.real = blocks["re"]
    values.imag = blocks["im"]
    return t[:, 0].copy(), values


def _read_rows(path, header, slots, key_name):
    """CSV of (T_fs, key fields..., re, im) rows -> (T, values) sorted by T.

    Each T must carry every key of ``slots`` (joined with commas) exactly
    once, with finite numbers; rows may come in any order and blank rows are
    skipped.  ``T`` is (n_T,) float and ``values`` (n_T, k) complex, k =
    len(slots), with columns in slot order.  A file in the writer's layout
    is parsed in one pass (``_read_writer_layout``).  Any other file goes
    to the row checker, which reads it row by row (``_parse_row``) and
    raises ValueError naming ``path:line`` at the first malformed or
    duplicated row; a row spanning several lines is named by its last.
    After the last row, a missing key is named at the first row of the
    smallest T that lacks one.  Bytes that are not valid text make their
    row malformed.
    """
    # {T: {key: (line, value)}}, both levels in file order
    blocks = {}
    with open(path, newline="", errors=_DECODE_ERRORS) as fh:
        result = _read_writer_layout(fh, header, slots)
        if result is not None:
            return result
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            row = next(reader, None)
        except csv.Error:
            row = None
        if row != header:
            raise ValueError(f"{path}:1: unexpected header {row}")
        try:
            for fields in reader:
                if not fields:
                    continue
                line = reader.line_num
                try:
                    t, key, value = _parse_row(fields, len(header), slots,
                                               key_name)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{line}: malformed row ({exc})") from None
                block = blocks.setdefault(t, {})
                if key in block:
                    raise ValueError(
                        f"{path}:{line}: duplicate row for T_fs={t:g}, "
                        f"{key_name}={key} (first at line {block[key][0]})")
                block[key] = line, value
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: malformed row "
                             f"({exc})") from None
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    times = sorted(blocks)
    for t in times:
        block = blocks[t]
        missing = [key for key in slots if key not in block]
        if missing:
            first_line = next(iter(block.values()))[0]
            raise ValueError(
                f"{path}:{first_line}: T_fs={t:g} has no row for "
                f"{key_name} {'; '.join(missing)}")
    columns = sorted(slots, key=slots.get)
    values = [[blocks[t][key][1] for key in columns] for t in times]
    return np.array(times), np.array(values, dtype=complex)


def _read_signal_table(path, config):
    """Signal CSV -> SignalTable on the configuration's exact waiting times."""
    t_grid, values = _read_rows(path, _SIGNAL_HEADER, _OMEGA_COLUMN,
                                "omega_tuple")
    expected = np.asarray(config.t_grid, dtype=float)
    if not np.array_equal(t_grid, expected):
        # both are strictly increasing, so some T is in only one of them
        stray = np.setxor1d(t_grid, expected)[0].item()
        side = "configuration" if stray in expected else "file"
        raise ValueError(
            f"{path}: waiting-time grid does not match the configuration "
            f"(T_fs={stray!r} is only in the {side})")
    return SignalTable(t_grid=t_grid, values=values)


def _write_tensor_csv(path, elements, grounds, t_grid):
    n = len(elements)
    _write_rows(path, _TENSOR_HEADER, t_grid, list(_TENSOR_SLOT),
                np.concatenate([elements.reshape(n, 16),
                                grounds.reshape(n, 4)], axis=1))


def cmd_reconstruct(config: ExperimentConfig):
    # the configured dimer's engine arrays: for a homogeneous run, the C, M
    # and propagator that made the signals, so each file inverts with them
    nominal = prepare([config.dimer], 0, config.bath, config.toolbox,
                      config.t_grid)
    if config.homogeneous_only:
        truth, truth_grounds = (array[0] for array in propagators(nominal))
    else:
        # member-wise: every member inverted with its own C and M
        results = evaluate_ensemble(_members(config), config.bath,
                                    config.toolbox, config.t_grid,
                                    config.gamma_list,
                                    verbatim=config.verbatim_terms,
                                    want_tensors=True)
    tensor_paths = [os.path.join(config.output_dir,
                                 f"tensors_gamma{gamma_tag(gamma)}.csv")
                    for gamma in config.gamma_list]
    report_path = os.path.join(config.output_dir, "reconstruction_report.txt")
    # a run that stops part-way must not leave an earlier run's outputs
    # beside its own
    for path in tensor_paths + [report_path]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    report_lines = []
    failed = False
    for gamma, tensor_path in zip(config.gamma_list, tensor_paths):
        tag = gamma_tag(gamma)
        if config.homogeneous_only:
            sig_path, _ = _signal_paths(config, gamma)
            try:
                table = _read_signal_table(sig_path, config)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_IO
            with np.errstate(over="ignore", invalid="ignore"):
                blocks, (elements,), (grounds,) = invert(
                    nominal, np.array([gamma]), table.values.T[None],
                    config.verbatim_terms)
            if not all(np.isfinite(a).all() for a in (elements, grounds)):
                raise ValueError(
                    f"{sig_path}: the inverse of these signals is not finite")
            max_err = max(np.max(np.abs(elements - truth)),
                          np.max(np.abs(grounds - truth_grounds)))
            report_lines.append(
                f"gamma={tag}: cond(C)={nominal.cond_base[0] ** 4:.6g} "
                f"cond(M)={blocks.condition_numbers} "
                f"max_residual={max_err:.3e}")
        else:
            result = next(results)
            elements, grounds = result.elements, result.grounds
            report_lines.append(
                f"gamma={tag}: member-wise ensemble average over "
                f"{result.n_members} members, cond(C base)="
                f"{nominal.cond_base[0]:.6g}")
        diag = validate_tensors(elements, grounds)
        failed = failed or not diag.passed(herm_tol=1e-8, trace_tol=1e-8,
                                           choi_tol=1e-8).all()
        report_lines += [
            f"gamma={tag} T={t:g}: herm={herm:.3e} trace={trace:.3e} "
            f"min_choi_eig={eig:.3e}"
            for t, herm, trace, eig in zip(
                config.t_grid, diag.hermiticity_defect.tolist(),
                diag.trace_defect.tolist(), diag.min_choi_eig.tolist())]
        _write_tensor_csv(tensor_path, elements, grounds, config.t_grid)
    report = "\n".join(report_lines) + "\n"
    with open(report_path, "w") as fh:
        fh.write(report)
    sys.stdout.write(report)
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
    diag = validate_tensors(elements, grounds)
    ok = diag.passed(herm_tol=tolerance, trace_tol=tolerance,
                     choi_tol=tolerance)
    sys.stdout.write("".join(
        f"T={t:g}: herm={herm:.3e} trace={trace:.3e} "
        f"min_choi_eig={eig:.3e} [{'pass' if passed else 'FAIL'}]\n"
        for t, herm, trace, eig, passed in zip(
            times.tolist(), diag.hermiticity_defect.tolist(),
            diag.trace_defect.tolist(), diag.min_choi_eig.tolist(),
            ok.tolist())))
    return EXIT_OK if ok.all() else EXIT_VALIDATION


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
    sys.stdout.write(
        f"run manifest: {path}\n"
        f"versions: {manifest.get('versions', {})}\n"
        f"waiting-time grid: {len(grid)} points "
        f"[{grid[0] if grid else '-'} .. {grid[-1] if grid else '-'}] fs\n"
        f"gamma values: {cfg.get('gamma_list')}\n"
        f"ensemble: {cfg.get('ensemble')}\n"
        f"homogeneous_only: {cfg.get('homogeneous_only')}\n")
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, DimerQptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

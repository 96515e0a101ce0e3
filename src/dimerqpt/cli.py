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
from itertools import chain, islice, product
import math
import os
import sys
import warnings

import numpy as np

import dimerqpt
from .config import (DEFAULT_OUTPUT_DIR, ExperimentConfig, check_output_dir,
                     config_to_dict, default_config, gamma_tag, load_config,
                     read_json, write_json)
from .ensemble import Members, evaluate_ensemble, invert, prepare, propagators
from .errors import ConfigError, DimerQptError, InputFileError
from .model import EXCITON_LABELS
from .pulses import check_generators
from .reconstruct import validate_tensors
from .response import OMEGA_LABELS, PATHWAY_LABELS, SignalTable

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_MANIFEST = "run_manifest.json"
# default tolerance of the Hermiticity, trace and Choi checks
_TOLERANCE = 1e-8
# each CSV kind is a header and its row keys (``labels``) in column order
_SIGNAL_HEADER = ["T_fs", "omega_tuple", "re_signal", "im_signal"]
_PATHWAY_HEADER = ["T_fs", "pathway", "re_p", "im_p"]
_TENSOR_HEADER = ["T_fs", "n", "m", "nu", "mu", "re_chi", "im_chi"]
# (n, m, nu, mu) of each tensor-file row, joined with commas: the elements
# in array order, then the ground row
_TENSOR_LABELS = [",".join(key) for key in chain(
    product(EXCITON_LABELS, repeat=4),
    (("g", "g") + p for p in product(EXCITON_LABELS, repeat=2)))]
# a byte that is not valid text becomes a lone surrogate in its field, which
# then fails to parse; messages show it escaped, as repr does
_DECODE_ERRORS = "surrogateescape"


def _output(config, stem, gamma):
    """Path of the ``stem`` CSV of ``gamma``: ``<stem>_gamma<tag>.csv`` in
    the output directory."""
    return os.path.join(config.output_dir,
                        f"{stem}_gamma{gamma_tag(gamma)}.csv")


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
    return Members(config.dimer, config.ensemble)


@contextlib.contextmanager
def _outputs(paths):
    """Remove the files ``paths`` on entry and again if the block raises:
    a command that stops part-way leaves none of its outputs, neither its
    own nor an earlier run's.  A path that cannot be removed, such as a
    directory, does not stop the others' removal; the first such error is
    raised after every path has been tried."""
    def remove():
        errors = []
        for path in paths:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
            except OSError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
    remove()
    try:
        yield
    except BaseException:
        remove()
        raise


def cmd_simulate(config: ExperimentConfig):
    os.makedirs(config.output_dir, exist_ok=True)
    results = evaluate_ensemble(_members(config), config.bath,
                                config.toolbox, config.t_grid,
                                config.gamma_list,
                                verbatim=config.verbatim_terms,
                                want_tensors=False)
    manifest = os.path.join(config.output_dir, _MANIFEST)
    with _outputs([_output(config, stem, gamma)
                   for gamma in config.gamma_list
                   for stem in ("signals", "pathways")] + [manifest]):
        for gidx, (gamma, result) in enumerate(zip(config.gamma_list,
                                                   results)):
            signals = result.signal_table.values
            if config.noise:
                signals = _apply_noise(signals, config.noise,
                                       config.ensemble.seed, gidx)
            _write_rows(_output(config, "signals", gamma), _SIGNAL_HEADER,
                        config.t_grid, OMEGA_LABELS, signals)
            _write_rows(_output(config, "pathways", gamma), _PATHWAY_HEADER,
                        config.t_grid, PATHWAY_LABELS, result.pathway_means)
        write_json(manifest, {
            "config": config_to_dict(config),
            "versions": {"dimerqpt": dimerqpt.__version__,
                         "numpy": np.__version__}})
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


def _key(fields):
    """The key of a CSV row, or of its header (how messages name the key):
    the fields between T and (re, im), joined with commas."""
    return ",".join(fields[1:-2])


def _parse_row(fields, header, slots):
    """(T, key, value) of one non-blank CSV row of (T_fs, key fields...,
    re, im) under ``header``, the key one of ``slots``.  A malformed row
    raises ValueError saying what is wrong, for the first fault in the
    order field count, key, T, re, im, finiteness."""
    if len(fields) != len(header):
        raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
    key = _key(fields)
    if key not in slots:
        raise ValueError(f"unknown {_key(header)} {key!r}")
    t, re, im = float(fields[0]), float(fields[-2]), float(fields[-1])
    if not (math.isfinite(t) and math.isfinite(re) and math.isfinite(im)):
        raise ValueError("non-finite number")
    return t, key, complex(re, im)


def _guarded_lines(fh, keys):
    """An iterator over the lines of ``fh``, up to a chunk of them that
    holds a line longer than ``csv.field_size_limit()`` or a NUL, which
    raises ValueError: the first may hold a field the csv module rejects,
    and a NUL ending a key would vanish in a numpy bytes field.  Lines are
    read and guarded about 64 KiB at a time, so no Python frame runs per
    line.

    The first ``len(keys)`` lines are read and checked first: if they are
    not one block of the writer's layout (key fields ``keys`` in order, one
    T text), ValueError is raised before any line is parsed, which sends a
    shuffled or reversed file on at once.
    """
    block = list(islice(fh, len(keys)))
    fields = [line.split(",") for line in block]
    if any(row[0] != fields[0][0] or _key(row) != key
           for row, key in zip(fields, keys)):
        raise ValueError("file left to the row checker")
    limit = csv.field_size_limit()

    def guarded(lines):
        if max(map(len, lines), default=0) > limit or "\0" in "".join(lines):
            raise ValueError("line left to the row checker")
        return lines

    return chain.from_iterable(map(guarded, chain(
        [block], iter(lambda: fh.readlines(1 << 16), []))))


def _read_writer_layout(fh, header, labels):
    """(T, values) of the CSV open in ``fh`` if it is in the writer's
    layout, else None (with ``fh`` read part-way).

    The writer's layout is ``header`` as the writer writes it, then for each
    T in strictly increasing order one block of rows, a row per key of
    ``labels`` in order, each row carrying the same T and finite numbers.
    The first block is checked as text (``_guarded_lines``), then one
    ``np.loadtxt`` call parses the rows; it reads numbers with the parser
    ``float`` uses, so a file accepted here is accepted by the row checker
    with the same (T, values) (a T spelled 0 and -0 in one block is that of
    the block's first row in both).  Key fields are bytes one wider than the
    longest valid key field, so a longer key never matches.  Anything else,
    including a ``loadtxt`` warning, returns None.
    """
    if fh.readline() != ",".join(header) + "\r\n":
        return None
    # (k, key fields) bytes: the key fields of a block's rows, in order
    keys = np.array([label.split(",") for label in labels], dtype=bytes)
    dtype = [("t", "f8"), ("key", f"S{keys.itemsize + 1}", keys.shape[1:]),
             ("re", "f8"), ("im", "f8")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(_guarded_lines(fh, labels), dtype=dtype,
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


def _read_rows(path, header, labels):
    """CSV of (T_fs, key fields..., re, im) rows -> (T, values) sorted by T.

    Each T must carry every key of ``labels`` exactly once, with finite
    numbers; rows may come in any order and blank rows are skipped.  ``T``
    is (n_T,) float and ``values`` (n_T, k) complex, k = len(labels), with
    columns in the order of ``labels``.  A file in the writer's layout
    is parsed in one pass (``_read_writer_layout``).  Any other file goes
    to the row checker, which reads it row by row (``_parse_row``) and
    raises InputFileError naming ``path:line`` at the first malformed or
    duplicated row; a row spanning several lines is named by its last.
    After the last row, a missing key is named at the first row of the
    smallest T that lacks one.  Bytes that are not valid text make their
    row malformed.
    """
    slots = frozenset(labels)
    # {T: {key: (line, value)}}, both levels in file order
    blocks = {}
    with open(path, newline="", errors=_DECODE_ERRORS) as fh:
        result = _read_writer_layout(fh, header, labels)
        if result is not None:
            return result
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            row = next(reader, None)
        except csv.Error:
            row = None
        if row != header:
            raise InputFileError(f"{path}:1: unexpected header {row}")
        try:
            for fields in reader:
                if not fields:
                    continue
                line = reader.line_num
                try:
                    t, key, value = _parse_row(fields, header, slots)
                except ValueError as exc:
                    raise InputFileError(
                        f"{path}:{line}: malformed row ({exc})") from None
                block = blocks.setdefault(t, {})
                if key in block:
                    raise InputFileError(
                        f"{path}:{line}: duplicate row for T_fs={t:g}, "
                        f"{_key(header)}={key} "
                        f"(first at line {block[key][0]})")
                block[key] = line, value
        except csv.Error as exc:
            raise InputFileError(f"{path}:{reader.line_num}: malformed row "
                                 f"({exc})") from None
    if not blocks:
        raise InputFileError(f"{path}: no data rows")
    times = sorted(blocks)
    for t in times:
        block = blocks[t]
        missing = [key for key in labels if key not in block]
        if missing:
            first_line = next(iter(block.values()))[0]
            raise InputFileError(
                f"{path}:{first_line}: T_fs={t:g} has no row for "
                f"{_key(header)} {'; '.join(missing)}")
    values = [[blocks[t][key][1] for key in labels] for t in times]
    return np.array(times), np.array(values, dtype=complex)


def _read_signal_table(path, config):
    """Signal CSV -> SignalTable on the configuration's exact waiting times."""
    t_grid, values = _read_rows(path, _SIGNAL_HEADER, OMEGA_LABELS)
    expected = np.asarray(config.t_grid, dtype=float)
    if not np.array_equal(t_grid, expected):
        # both are strictly increasing, so some T is in only one of them
        stray = np.setxor1d(t_grid, expected)[0].item()
        side = "configuration" if stray in expected else "file"
        raise InputFileError(
            f"{path}: waiting-time grid does not match the configuration "
            f"(T_fs={stray!r} is only in the {side})")
    return SignalTable(t_grid=t_grid, values=values)


def _write_tensor_csv(path, elements, grounds, t_grid):
    n = len(elements)
    _write_rows(path, _TENSOR_HEADER, t_grid, _TENSOR_LABELS,
                np.concatenate([elements.reshape(n, 16),
                                grounds.reshape(n, 4)], axis=1))


def _physicality(elements, grounds, times, tolerance=_TOLERANCE):
    """The physicality of n tensors at waiting times ``times``: a one-pass
    iterator of ``T=...: herm=... trace=... min_choi_eig=...`` lines, one
    per T, made as the caller uses them so that no second list of lines is
    held, and (n,) bools, whether each passes every check at ``tolerance``.
    """
    diag = validate_tensors(elements, grounds)
    lines = (f"T={t:g}: herm={herm:.3e} trace={trace:.3e} "
             f"min_choi_eig={eig:.3e}"
             for t, herm, trace, eig in zip(
                 times, diag.hermiticity_defect.tolist(),
                 diag.trace_defect.tolist(), diag.min_choi_eig.tolist()))
    return lines, diag.passed(herm_tol=tolerance, trace_tol=tolerance,
                              choi_tol=tolerance)


def _homogeneous_inverses(config):
    """(head, elements, grounds) of each Gamma of a homogeneous run: its
    signal file, read when its Gamma is reached, inverted with the C and M
    of the configured dimer, which made it, and compared with that dimer's
    propagators."""
    nominal = prepare([config.dimer], 0, config.bath, config.toolbox,
                      config.t_grid)
    cond_c = check_generators(nominal.base, config.toolbox,
                              first_member=0)[0] ** 4
    truth, truth_grounds = (array[0] for array in propagators(nominal))
    for gamma in config.gamma_list:
        sig_path = _output(config, "signals", gamma)
        table = _read_signal_table(sig_path, config)
        with np.errstate(over="ignore", invalid="ignore"):
            blocks, (elements,), (grounds,) = invert(
                nominal, np.array([gamma]), table.values.T[None],
                config.verbatim_terms)
        if not all(np.isfinite(a).all() for a in (elements, grounds)):
            raise ValueError(
                f"{sig_path}: the inverse of these signals is not finite")
        max_err = max(np.max(np.abs(elements - truth)),
                      np.max(np.abs(grounds - truth_grounds)))
        yield (f"cond(C)={cond_c:.6g} "
               f"cond(M)={blocks.condition_numbers} "
               f"max_residual={max_err:.3e}", elements, grounds)


def cmd_reconstruct(config: ExperimentConfig):
    tensor_paths = [_output(config, "tensors", gamma)
                    for gamma in config.gamma_list]
    report_path = os.path.join(config.output_dir, "reconstruction_report.txt")
    with _outputs(tensor_paths + [report_path]):
        if config.homogeneous_only:
            inverses = _homogeneous_inverses(config)
        else:
            # member-wise: every member inverted with its own C and M
            inverses = ((f"member-wise ensemble average over {r.n_members} "
                         "members", r.elements, r.grounds)
                        for r in evaluate_ensemble(
                            Members(config.dimer, config.ensemble),
                            config.bath, config.toolbox, config.t_grid,
                            config.gamma_list, verbatim=config.verbatim_terms))
        report_lines = []
        failed = False
        for gamma, tensor_path, (head, elements, grounds) in zip(
                config.gamma_list, tensor_paths, inverses):
            tag = gamma_tag(gamma)
            lines, passed = _physicality(elements, grounds, config.t_grid)
            failed = failed or not passed.all()
            report_lines.append(f"gamma={tag}: {head}")
            report_lines += [f"gamma={tag} {line}" for line in lines]
            _write_tensor_csv(tensor_path, elements, grounds, config.t_grid)
        report = "\n".join(report_lines) + "\n"
        with open(report_path, "w") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return EXIT_VALIDATION if failed else EXIT_OK


def _parse_tensor_csv(path):
    """Tensor CSV -> T (n,), elements (n, 2, 2, 2, 2), ground rows (n, 2, 2),
    the last two views of the rows read; raises ValueError on bad rows."""
    times, values = _read_rows(path, _TENSOR_HEADER, _TENSOR_LABELS)
    n = len(times)
    return (times, values[:, :16].reshape(n, 2, 2, 2, 2),
            values[:, 16:].reshape(n, 2, 2))


def cmd_validate(tensor_csv, tolerance=_TOLERANCE):
    times, elements, grounds = _parse_tensor_csv(tensor_csv)
    lines, ok = _physicality(elements, grounds, times.tolist(), tolerance)
    sys.stdout.write("".join(
        f"{line} [{'pass' if passed else 'FAIL'}]\n"
        for line, passed in zip(lines, ok.tolist())))
    return EXIT_OK if ok.all() else EXIT_VALIDATION


def cmd_report(output_dir):
    path = os.path.join(check_output_dir(output_dir), _MANIFEST)
    manifest = read_json(path, InputFileError)
    cfg = manifest.get("config", {}) if isinstance(manifest, dict) else None
    grid = cfg.get("t_grid", []) if isinstance(cfg, dict) else None
    if not isinstance(grid, list):
        raise InputFileError(
            f"{path}: not a run manifest (expected an object whose "
            f"'config' object holds a 't_grid' list)")
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
    if getattr(args, "output_dir", None) is not None:
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
    v.add_argument("--tolerance", type=_tolerance, default=_TOLERANCE)

    r = sub.add_parser("report")
    r.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR)
    return parser


def main(argv=None):
    """Run one command; the only place a failure becomes an exit code and
    a one-line message on standard error."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_load_or_default(args))
        if args.command == "reconstruct":
            return cmd_reconstruct(_load_or_default(args))
        if args.command == "validate":
            return cmd_validate(args.tensor_csv, tolerance=args.tolerance)
        return cmd_report(args.output_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, DimerQptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

import ast
import csv
from dataclasses import fields, replace
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

import dimerqpt
from dimerqpt.bath import (BathParams, build_redfield_generator,
                           propagate_process_tensor)
from dimerqpt import (bath, cli, ensemble, isoaverage, model, pulses,
                      reconstruct, response)
from dimerqpt.cli import _parse_tensor_csv, main
from dimerqpt.config import (DEFAULT_GAMMAS, config_from_dict,
                             config_to_dict, default_config, load_config,
                             save_config)
from dimerqpt.ensemble import EnsembleSpec, sample_members
from dimerqpt.errors import ConfigError, SingularToolboxError
from dimerqpt.isoaverage import build_m_blocks
from dimerqpt.model import DimerParams, build_exciton_basis
from dimerqpt.pulses import PulseToolbox, build_c_matrix
from dimerqpt.reconstruct import reconstruct_rows


@pytest.fixture
def small_config(tmp_path):
    cfg = default_config(output_dir=str(tmp_path / "out"))
    return replace(cfg, homogeneous_only=True,
                   t_grid=(120.0, 200.0, 400.0),
                   gamma_list=(0.0, 2.0))


@pytest.fixture
def config_path(small_config, tmp_path):
    path = tmp_path / "cfg.json"
    save_config(small_config, path)
    return str(path)


def test_default_config_valid():
    cfg = default_config()
    assert len(cfg.t_grid) == 30
    assert cfg.t_grid[0] == 120.0
    assert cfg.t_grid[-1] == 700.0
    assert cfg.ensemble.n_members == 10000


def test_config_round_trip(small_config, tmp_path):
    path = tmp_path / "roundtrip.json"
    save_config(small_config, path)
    loaded = load_config(path)
    assert loaded == small_config


def test_config_validation_messages():
    cfg = default_config()
    data = config_to_dict(cfg)
    data["t_grid"] = [50.0, 100.0]  # below the pulse-overlap floor
    with pytest.raises(ConfigError, match="t_grid"):
        config_from_dict(data)
    data = config_to_dict(cfg)
    data["t_grid"] = [300.0, 200.0]
    with pytest.raises(ConfigError, match="strictly increasing"):
        config_from_dict(data)
    data = config_to_dict(cfg)
    data["bogus_key"] = 1
    with pytest.raises(ConfigError, match="bogus_key"):
        config_from_dict(data)
    data = config_to_dict(cfg)
    data["dimer"]["not_a_field"] = 1
    with pytest.raises(ConfigError, match="dimer.not_a_field"):
        config_from_dict(data)
    data = config_to_dict(cfg)
    data["gamma_list"] = [3.0]
    with pytest.raises(ConfigError, match="gamma_list"):
        config_from_dict(data)


_NUMERIC_FIELDS = [(section, f.name)
                   for section, cls in (("dimer", DimerParams),
                                        ("bath", BathParams),
                                        ("toolbox", PulseToolbox),
                                        ("ensemble", EnsembleSpec))
                   for f in fields(cls)]
_NAN, _INF = float("nan"), float("inf")


# every numeric field of the four sections, with NaN, inf and -inf in turn;
# coupling_j gets NaN and temperature inf, as in the reported failures
@pytest.mark.parametrize("key, value", [
    *((key, (_NAN, _INF, -_INF)[(k + 1) % 3])
      for k, key in enumerate(_NUMERIC_FIELDS)),
    (("t_grid", 1), _NAN), (("t_grid", 0), _INF),
    (("noise",), _NAN), (("noise",), _INF)],
    ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple) else str(x))
def test_non_finite_config_number_rejected(tmp_path, capsys, key, value):
    """A NaN or infinite number anywhere in the configuration exits 2,
    naming its field, before anything is written."""
    data = config_to_dict(default_config(output_dir=str(tmp_path / "out")))
    data["homogeneous_only"] = True
    data["t_grid"] = [120.0, 200.0]
    target = data
    for part in key[:-1]:
        target = target[part]
    target[key[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))   # NaN and Infinity as JSON extensions
    where = ".".join(key) if key[0] != "t_grid" else f"t_grid[{key[1]}]"
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: "):
        config_from_dict(json.loads(path.read_text()))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {where}: must be a finite "
                          "number")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# malformed values that are not numbers: each exits 2 naming its key
@pytest.mark.parametrize("key, value, where", [
    ("t_grid", 5, "t_grid"),
    ("gamma_list", 2, "gamma_list"),
    ("gamma_list", ["x"], "gamma_list[0]"),
    ("output_dir", 5, "output_dir"),
    ("output_dir", "", "output_dir"),
    ("verbatim_terms", "false", "verbatim_terms"),
    ("homogeneous_only", 1, "homogeneous_only"),
    ("ensemble.n_members", 2.5, "ensemble.n_members"),
    ("ensemble.n_members", 2.0, "ensemble.n_members"),
    ("ensemble.seed", 1.5, "ensemble.seed"),
    ("ensemble.seed", -1, "ensemble.seed")],
    ids=lambda x: repr(x) if not isinstance(x, str) else x)
def test_malformed_config_value_rejected(tmp_path, capsys, monkeypatch, key,
                                         value, where):
    """A JSON value of the wrong kind exits 2 with ``configuration error:
    <key>: ...``, no traceback, and writes nothing.  A dotted key names a
    field of a section."""
    data = config_to_dict(default_config(output_dir="out"))
    data["homogeneous_only"] = True
    data["t_grid"] = [120.0, 200.0]
    *sections, field = key.split(".")
    target = data
    for section in sections:
        target = target[section]
    target[field] = value
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {where}: ")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("gammas, shown, tag", [
    ([1.0, 1.0000001], ("0 (1.0)", "1 (1.0000001)"), "gamma1"),
    ([0.5, 2, 2], ("1 (2.0)", "2 (2.0)"), "gamma2"),
    # -0.0 is read as 0.0: its files would be named gamma-0
    ([0.0, -0.0], ("0 (0.0)", "1 (0.0)"), "gamma0")])
@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_gamma_values_sharing_a_file_tag_rejected(tmp_path, capsys,
                                                   monkeypatch, gammas, shown,
                                                   tag, command):
    """Two Gamma values whose file names would be the same exit 2, naming
    both entries and the tag, before anything is written: otherwise one
    Gamma is inverted with the other's signals."""
    data = config_to_dict(default_config(output_dir="out"))
    data["homogeneous_only"] = True
    data["t_grid"] = [120.0, 200.0]
    data["gamma_list"] = gammas
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err == (f"configuration error: gamma_list: entries {shown[0]} and "
                   f"{shown[1]} share the file tag {tag}\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_negative_zero_gamma_is_zero(tmp_path, monkeypatch):
    """A lone Gamma of -0.0 is 0.0: its files are ``*_gamma0.csv`` and the
    manifest records 0.0."""
    data = config_to_dict(default_config(output_dir="out"))
    data["homogeneous_only"] = True
    data["t_grid"] = [120.0, 200.0]
    data["gamma_list"] = [-0.0]
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    (gamma,) = load_config("cfg.json").gamma_list
    assert math.copysign(1.0, gamma) == 1.0
    assert main(["simulate", "--config", "cfg.json"]) == 0
    assert sorted(os.listdir("out")) == [
        "pathways_gamma0.csv", "run_manifest.json", "signals_gamma0.csv"]
    with open(os.path.join("out", "run_manifest.json")) as fh:
        (recorded,) = json.load(fh)["config"]["gamma_list"]
    assert math.copysign(1.0, recorded) == 1.0


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_empty_output_dir_flag_rejected(config_path, small_config, tmp_path,
                                        monkeypatch, capsys, command):
    """``--output-dir ''`` overrides the configuration's directory, as any
    other value does, and exits 2: an empty name is no directory."""
    monkeypatch.chdir(tmp_path)
    assert main([command, "--homogeneous", "--config", config_path,
                 "--output-dir", ""]) == 2
    assert capsys.readouterr().err == (
        "configuration error: output_dir: must name a directory, got ''\n")
    assert not os.path.exists(small_config.output_dir)


def test_report_empty_output_dir_rejected(tmp_path, monkeypatch, capsys):
    """``report --output-dir ''`` exits 2 with the line simulate and
    reconstruct give, even where the working directory holds a manifest."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run_manifest.json").write_text('{"config": {"t_grid": []}}')
    assert main(["report", "--output-dir", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "configuration error: output_dir: must name a directory, got ''\n")


def test_ensemble_size_bounded_by_what_len_holds(tmp_path):
    """n_members above sys.maxsize, which len() cannot return, is refused
    when the configuration is loaded; sys.maxsize itself loads."""
    data = config_to_dict(default_config())
    path = tmp_path / "cfg.json"
    data["ensemble"]["n_members"] = sys.maxsize
    path.write_text(json.dumps(data))
    assert load_config(path).ensemble.n_members == sys.maxsize
    data["ensemble"]["n_members"] = sys.maxsize + 1
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=r"^ensemble: n_members must lie "
                                          rf"in \[1, {sys.maxsize}\]"):
        load_config(path)


def test_manifest_versions_without_importing_scipy(config_path,
                                                   small_config):
    """simulate records the versions of the code that ran: scipy is never
    imported, nor importlib.metadata or the email package it loads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys; from dimerqpt.cli import main; "
             "rc = main(['simulate', '--config', sys.argv[1]]); "
             "print(rc, *(name in sys.modules for name in "
             "('scipy', 'importlib.metadata', 'email')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe, config_path], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "False", "False", "False"]
    with open(os.path.join(small_config.output_dir,
                           "run_manifest.json")) as fh:
        versions = json.load(fh)["versions"]
    assert versions == {"dimerqpt": dimerqpt.__version__,
                        "numpy": np.__version__}


def test_reconstruct_failing_at_a_later_gamma_leaves_no_files(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    """A geometry that is singular at Gamma = 1 only: simulate, which
    inverts nothing, writes finite files, and reconstruct fails at Gamma = 1
    after writing the Gamma = 0 tensors, leaving no tensor file and no
    report."""
    cfg = replace(default_config(output_dir="."), homogeneous_only=True,
                  dimer=replace(default_config().dimer,
                                dipole_ratio_d2_over_d1=1.0,
                                dipole_angle_phi=math.pi / 2),
                  gamma_list=(0.0, 1.0), t_grid=(120.0, 300.0))
    save_config(cfg, tmp_path / "cfg.json")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "cfg.json"]) == 0
    simulated = sorted(os.listdir(tmp_path))
    assert simulated == ["cfg.json", "pathways_gamma0.csv",
                         "pathways_gamma1.csv", "run_manifest.json",
                         "signals_gamma0.csv", "signals_gamma1.csv"]
    assert _csv_numbers_finite(tmp_path)
    capsys.readouterr()
    assert main(["reconstruct", "--config", "cfg.json"]) == 1
    assert capsys.readouterr().err == (
        "error: member 0: geometry block ee is singular for this dipole "
        "geometry\n")
    assert sorted(os.listdir(tmp_path)) == simulated


@pytest.mark.parametrize("blocked", ["signals_gamma2.csv",
                                     "run_manifest.json"])
def test_simulate_failing_to_write_a_later_gamma_leaves_no_files(
        tmp_path, monkeypatch, capsys, blocked):
    """Once the first signal file is written, the Gamma = 2 signal file, or
    the manifest written after every Gamma's files, becomes a directory and
    cannot be written: simulate exits 3 naming it and removes the files it
    wrote."""
    cfg = replace(default_config(output_dir="out"), homogeneous_only=True,
                  gamma_list=(0.0, 2.0), t_grid=(120.0, 300.0))
    save_config(cfg, tmp_path / "cfg.json")
    monkeypatch.chdir(tmp_path)
    first = os.path.join("out", "signals_gamma0.csv")
    write_rows, written = cli._write_rows, []

    def write_then_block(path, *args):
        write_rows(path, *args)
        written.append(path)
        if path == first:
            os.makedirs(os.path.join("out", blocked))

    monkeypatch.setattr(cli, "_write_rows", write_then_block)
    assert main(["simulate", "--config", "cfg.json"]) == 3
    assert written[0] == first
    assert capsys.readouterr().err == (
        f"error: [Errno 21] Is a directory: 'out/{blocked}'\n")
    assert os.listdir("out") == [blocked]


def test_simulate_removes_every_output_it_can(tmp_path, monkeypatch, capsys):
    """After a complete run, one output path becomes a directory: the next
    simulate exits 3 naming it, and removes the earlier run's other outputs
    before it stops, those after the directory in its list as well."""
    cfg = replace(default_config(output_dir="out"), homogeneous_only=True,
                  gamma_list=(0.0, 2.0), t_grid=(120.0, 300.0))
    save_config(cfg, tmp_path / "cfg.json")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "cfg.json"]) == 0
    assert len(os.listdir("out")) == 5
    blocked = os.path.join("out", "pathways_gamma0.csv")
    os.remove(blocked)
    os.makedirs(blocked)
    assert main(["simulate", "--config", "cfg.json"]) == 3
    assert capsys.readouterr().err == (
        f"error: [Errno 21] Is a directory: '{blocked}'\n")
    assert os.listdir("out") == ["pathways_gamma0.csv"]


@pytest.mark.parametrize("homogeneous", [False, True])
def test_simulate_takes_no_inverse(tmp_path, monkeypatch, homogeneous):
    """simulate only multiplies forward, so it never runs the checks that
    guard an inverse: with ``check_generators`` and ``geometry_blocks``
    made to raise, it exits 0 and writes the same bytes."""
    cfg = replace(default_config(output_dir="out"),
                  homogeneous_only=homogeneous,
                  ensemble=EnsembleSpec(n_members=6, sigma_inh=40.0, seed=3),
                  t_grid=(120.0, 300.0, 700.0))
    save_config(cfg, tmp_path / "cfg.json")
    monkeypatch.chdir(tmp_path)

    def written():
        assert main(["simulate", "--config", "cfg.json"]) == 0
        return {name: (tmp_path / "out" / name).read_bytes()
                for name in os.listdir("out")}

    expected = written()

    def inverse_check(*args, **kwargs):
        raise AssertionError("simulate ran an inverse's check")

    for name in ("check_generators", "geometry_blocks"):
        monkeypatch.setattr(ensemble, name, inverse_check)
    assert written() == expected
    assert len(expected) == 11


def test_wide_disorder_simulates_and_fails_only_reconstruct(tmp_path, capsys):
    """150 members at 80 cm^-1 disorder about the default dimer: member 149's
    pulse generator cannot be inverted.  simulate, which inverts nothing,
    exits 0 with finite signals and no numpy warning (a warning fails the
    tests); reconstruct, which inverts each member's C, exits 1 naming
    member 149 and leaves no tensor file and no report."""
    cfg = default_config(output_dir=str(tmp_path / "out"))
    cfg = replace(cfg, t_grid=(120.0, 300.0, 700.0),
                  ensemble=replace(cfg.ensemble, n_members=150,
                                   sigma_inh=80.0))
    path = str(tmp_path / "cfg.json")
    save_config(cfg, path)
    assert main(["simulate", "--config", path]) == 0
    assert capsys.readouterr().err == ""
    simulated = sorted(os.listdir(cfg.output_dir))
    assert len(simulated) == 11
    assert _csv_numbers_finite(cfg.output_dir)
    assert main(["reconstruct", "--config", path]) == 1
    assert capsys.readouterr().err == (
        "error: member 149: toolbox frequencies (13480.0, 12130.0) cm^-1 "
        "cannot discriminate the exciton transitions\n")
    assert sorted(os.listdir(cfg.output_dir)) == simulated


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
@pytest.mark.parametrize("sizes", [
    # one full chunk (204 members x (128 + 32)), then ten times the grid
    ((204, 128), (204, 1280)),
    # one waiting time: 2048 then four times the members, which would each
    # be one chunk if the budget left out the arrays that do not depend on T
    ((2048, 1), (8192, 1)),
])
def test_simulate_memory_does_not_grow_with_the_input(tmp_path, sizes):
    """Chunks are sized by members x (waiting times + 32), so peak RSS at
    the larger (members, waiting times) stays within 12 MiB of the
    smaller's: one chunk-sized temporary (8 MiB) that the allocator keeps
    after a chunk is dropped, and room for the means and outputs, which do
    grow with T.  Without chunks the larger run needs 100 MiB or more above
    the smaller.

    Each run is a fresh interpreter that reports its own VmHWM, the peak
    RSS of its address space since exec.  Its ru_maxrss would not do: it
    keeps the parent's RSS at fork, so under a large test process both
    runs read the parent's peak."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys; from dimerqpt.cli import main; "
             "assert main(['simulate', '--config', sys.argv[1]]) == 0; "
             "print(next(line.split()[1] for line in open('/proc/self/status')"
             " if line.startswith('VmHWM:')))")
    env = dict(os.environ, PYTHONPATH=src)
    peaks = []
    for name, (members, count) in zip(("small", "large"), sizes):
        cfg = replace(default_config(output_dir=str(tmp_path / name)),
                      ensemble=EnsembleSpec(n_members=members,
                                            sigma_inh=40.0),
                      t_grid=tuple(120.0 + 0.5 * k for k in range(count)),
                      gamma_list=(0.0, 2.0))
        path = str(tmp_path / f"{name}.json")
        save_config(cfg, path)
        out = subprocess.run([sys.executable, "-c", probe, path], env=env,
                             capture_output=True, text=True, check=True)
        peaks.append(int(out.stdout) / 1024)
    assert peaks[1] <= peaks[0] + 12, peaks


def test_simulate_reconstruct_validate_flow(config_path, small_config):
    outdir = small_config.output_dir
    assert main(["simulate", "--config", config_path]) == 0
    for tag in ("0", "2"):
        assert os.path.exists(os.path.join(outdir, f"signals_gamma{tag}.csv"))
        assert os.path.exists(os.path.join(outdir,
                                           f"pathways_gamma{tag}.csv"))
    assert os.path.exists(os.path.join(outdir, "run_manifest.json"))

    assert main(["reconstruct", "--config", config_path]) == 0
    tensor_csv = os.path.join(outdir, "tensors_gamma2.csv")
    assert os.path.exists(tensor_csv)
    report = os.path.join(outdir, "reconstruction_report.txt")
    with open(report) as fh:
        text = fh.read()
    assert "cond(C)" in text
    assert "max_residual" in text

    assert main(["validate", tensor_csv]) == 0
    assert main(["report", "--output-dir", outdir]) == 0


# the head line of a Gamma in a homogeneous report
_HEAD = re.compile(r"gamma=(\S+): cond\(C\)=(\S+) cond\(M\)=(\{.*\}) "
                   r"max_residual=(\d\.\d{3}e[+-]\d{2})")


def test_homogeneous_report_head_lines(config_path, small_config, capsys):
    """Each Gamma's head line of a homogeneous report: cond(C) as %.6g of
    cond(base)^4, the three blocks' cond(M) as a dict, then as %.3e the
    largest distance of the written tensors from the dimer's propagators.
    stdout and the report file hold the same text."""
    main(["simulate", "--config", config_path])
    capsys.readouterr()
    assert main(["reconstruct", "--config", config_path]) == 0
    out = capsys.readouterr().out
    outdir = small_config.output_dir
    with open(os.path.join(outdir, "reconstruction_report.txt")) as fh:
        assert fh.read() == out
    prepared = ensemble.prepare([small_config.dimer], 0, small_config.bath,
                                small_config.toolbox, small_config.t_grid)
    truth, truth_grounds = (a[0] for a in ensemble.propagators(prepared))
    zeros = np.zeros((1, 16, len(small_config.t_grid)))
    heads = [line for line in out.splitlines() if _HEAD.fullmatch(line)]
    assert len(heads) == len(small_config.gamma_list)
    cond_base = pulses.check_generators(prepared.base, small_config.toolbox)
    for gamma, line in zip(small_config.gamma_list, heads):
        tag, cond_c, cond_m, residual = _HEAD.fullmatch(line).groups()
        assert tag == f"{gamma:g}"
        assert cond_c == f"{cond_base[0] ** 4:.6g}"
        blocks = ensemble.invert(prepared, np.array([gamma]), zeros,
                                 small_config.verbatim_terms)[0]
        assert cond_m == str(blocks.condition_numbers)
        assert list(ast.literal_eval(cond_m)) == ["ee", "epep", "eep"]
        _, elements, grounds = _parse_tensor_csv(
            os.path.join(outdir, f"tensors_gamma{tag}.csv"))
        assert residual == "%.3e" % max(np.max(np.abs(elements - truth)),
                                        np.max(np.abs(grounds
                                                      - truth_grounds)))
        assert float(residual) < 1e-10


def test_simulate_rerun_byte_identical(config_path, small_config):
    outdir = small_config.output_dir
    main(["simulate", "--config", config_path])
    with open(os.path.join(outdir, "signals_gamma2.csv"), "rb") as fh:
        first = fh.read()
    main(["simulate", "--config", config_path])
    with open(os.path.join(outdir, "signals_gamma2.csv"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_manifest_reingests_identically(config_path, small_config):
    main(["simulate", "--config", config_path])
    with open(os.path.join(small_config.output_dir,
                           "run_manifest.json")) as fh:
        manifest = json.load(fh)
    assert config_from_dict(manifest["config"]) == small_config


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dimer": {}}')
    assert main(["simulate", "--config", str(path)]) == 2
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2


def test_missing_signal_file_exit_code(config_path, small_config, tmp_path):
    # reconstruct before simulate: signal files are absent
    assert main(["reconstruct", "--config", config_path]) == 3


def test_missing_tensor_file_exit_code(tmp_path):
    assert main(["validate", str(tmp_path / "nope.csv")]) == 3


def test_corrupted_tensor_flagged(config_path, small_config):
    main(["simulate", "--config", config_path])
    main(["reconstruct", "--config", config_path])
    tensor_csv = os.path.join(small_config.output_dir, "tensors_gamma2.csv")
    with open(tensor_csv) as fh:
        lines = fh.readlines()
    # corrupt one population element at the first waiting time
    for i, line in enumerate(lines):
        if line.startswith("120,e,e,e,e,"):
            parts = line.strip().split(",")
            parts[5] = str(float(parts[5]) + 0.5)
            lines[i] = ",".join(parts) + "\n"
            break
    with open(tensor_csv, "w") as fh:
        fh.writelines(lines)
    assert main(["validate", tensor_csv]) == 1


def test_malformed_tensor_file(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    path.write_text("T_fs,n,m,nu,mu,re_chi,im_chi\n120,e,e,e,e,abc,0\n")
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert ":2:" in err


@pytest.mark.parametrize("tolerance, code", [
    ("nan", 2), ("-1", 2), ("inf", 2), ("0", 1), ("1e-8", 0)])
def test_validate_tolerance(config_path, small_config, capsys, tolerance,
                            code):
    """A NaN, negative or infinite --tolerance is a usage error; zero and
    the default 1e-8 still validate the file."""
    main(["simulate", "--config", config_path])
    main(["reconstruct", "--config", config_path])
    capsys.readouterr()
    tensor_csv = os.path.join(small_config.output_dir, "tensors_gamma2.csv")
    argv = ["validate", tensor_csv, f"--tolerance={tolerance}"]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --tolerance" in err
    else:
        assert main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(small_config.t_grid)


def test_noise_applied(small_config, tmp_path):
    noisy = replace(small_config, noise=0.01,
                    output_dir=str(tmp_path / "noisy"))
    clean = replace(small_config, output_dir=str(tmp_path / "clean"))
    for cfg, name in ((noisy, "n.json"), (clean, "c.json")):
        path = tmp_path / name
        save_config(cfg, path)
        assert main(["simulate", "--config", str(path)]) == 0
    with open(os.path.join(noisy.output_dir, "signals_gamma2.csv")) as fh:
        a = fh.read()
    with open(os.path.join(clean.output_dir, "signals_gamma2.csv")) as fh:
        b = fh.read()
    assert a != b


def _edit_signal_file(config_path, small_config, edit):
    main(["simulate", "--config", config_path])
    path = os.path.join(small_config.output_dir, "signals_gamma2.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


def _assert_reconstruct_io_error(config_path, capsys):
    capsys.readouterr()
    assert main(["reconstruct", "--config", config_path]) == 3
    err = capsys.readouterr().err
    assert "signals_gamma2.csv:" in err
    assert "Traceback" not in err
    return err


def test_signal_file_dropped_row(config_path, small_config, capsys):
    _edit_signal_file(config_path, small_config,
                      lambda lines: [ln for ln in lines
                                     if not ln.startswith("200,++-+,")])
    err = _assert_reconstruct_io_error(config_path, capsys)
    assert "++-+" in err


def test_signal_file_duplicated_row(config_path, small_config, capsys):
    def duplicate(lines):
        row = next(ln for ln in lines if ln.startswith("200,++-+,"))
        return lines + [row]
    _edit_signal_file(config_path, small_config, duplicate)
    err = _assert_reconstruct_io_error(config_path, capsys)
    assert "duplicate" in err


def test_signal_file_waiting_times_must_match_exactly(config_path,
                                                      small_config, capsys):
    # within np.allclose of the configured 200 fs, but not equal to it
    _edit_signal_file(config_path, small_config,
                      lambda lines: ["200.001" + ln[3:]
                                     if ln.startswith("200,") else ln
                                     for ln in lines])
    err = _assert_reconstruct_io_error(config_path, capsys)
    assert "(T_fs=200.0 is only in the configuration)" in err
    assert not os.path.exists(
        os.path.join(small_config.output_dir, "tensors_gamma2.csv"))


def _set_first_real_part(lines, key, value):
    """``lines`` with the real part of the first row starting ``key``
    replaced by ``value``."""
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key))
    fields = lines[i].split(",")
    fields[-2] = value
    return lines[:i] + [",".join(fields)] + lines[i + 1:]


def test_huge_tensor_value_fails_validation(config_path, small_config,
                                            capsys):
    """A finite 1e308 makes its waiting time fail, without a warning, and
    every waiting time is still reported."""
    main(["simulate", "--config", config_path])
    main(["reconstruct", "--config", config_path])
    path = os.path.join(small_config.output_dir, "tensors_gamma2.csv")
    with open(path) as fh:
        lines = _set_first_real_part(fh.readlines(), "120,e,e,e,e,", "1e308")
    with open(path, "w") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["validate", path]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == len(small_config.t_grid)
    assert lines[0].startswith("T=120: ") and lines[0].endswith("[FAIL]")
    assert all(line.endswith("[pass]") for line in lines[1:])


def test_huge_signal_value_is_not_written(config_path, small_config, capsys):
    """A signal file whose inverse is not finite exits 1 naming the file,
    and no tensor file holds inf or NaN."""
    _edit_signal_file(config_path, small_config,
                      lambda lines: _set_first_real_part(lines, "120,++++,",
                                                         "1e308"))
    capsys.readouterr()
    assert main(["reconstruct", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert "signals_gamma2.csv: the inverse of these signals is not finite" \
        in err
    assert "Traceback" not in err and "Warning" not in err
    out = small_config.output_dir
    assert not os.path.exists(os.path.join(out, "tensors_gamma2.csv"))
    assert not [name for name in os.listdir(out)
                if name.startswith("tensors_")]


def test_failed_reconstruct_leaves_no_earlier_outputs(config_path,
                                                     small_config, capsys):
    """A reconstruct that fails at its last Gamma exits as before and
    leaves none of an earlier run's tensor files or report behind."""
    out = small_config.output_dir
    main(["simulate", "--config", config_path])
    assert main(["reconstruct", "--config", config_path]) == 0
    for name in os.listdir(out):
        if name.startswith("tensors_") or name == "reconstruction_report.txt":
            with open(os.path.join(out, name), "w") as fh:
                fh.write("earlier run\n")
    signal_path = os.path.join(out, "signals_gamma2.csv")
    with open(signal_path) as fh:
        lines = _set_first_real_part(fh.readlines(), "120,++++,", "1e308")
    with open(signal_path, "w") as fh:
        fh.writelines(lines)
    assert main(["reconstruct", "--config", config_path]) == 1
    for name in os.listdir(out):
        with open(os.path.join(out, name)) as fh:
            assert fh.read() != "earlier run\n", name
    tensor_path = os.path.join(out, "tensors_gamma2.csv")
    assert not os.path.exists(tensor_path)
    assert not os.path.exists(os.path.join(out, "reconstruction_report.txt"))
    capsys.readouterr()
    assert main(["validate", tensor_path]) == 3
    assert tensor_path in capsys.readouterr().err


def test_reconstruct_failing_on_a_later_file_leaves_no_outputs(
        small_config, tmp_path, capsys):
    """After a good run, a malformed row in the Gamma = 1.5 signal file:
    reconstruct exits 3 and leaves no tensor file and no report, neither
    the earlier run's nor those of the Gammas before 1.5."""
    cfg = replace(small_config, gamma_list=DEFAULT_GAMMAS)
    path = str(tmp_path / "cfg5.json")
    save_config(cfg, path)
    out = cfg.output_dir
    assert main(["simulate", "--config", path]) == 0
    assert main(["reconstruct", "--config", path]) == 0
    with open(os.path.join(out, "signals_gamma1.5.csv"), "a") as fh:
        fh.write("120,++++,abc,0\r\n")
    capsys.readouterr()
    assert main(["reconstruct", "--config", path]) == 3
    assert "signals_gamma1.5.csv:" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == sorted(
        [f"{stem}_gamma{g:g}.csv" for stem in ("signals", "pathways")
         for g in cfg.gamma_list] + ["run_manifest.json"])


def test_simulate_failing_to_write_leaves_none_of_its_files(config_path,
                                                            small_config,
                                                            capsys):
    """After a complete run, a simulate of another dimer whose noisy
    signals overflow exits 1 at its first file and leaves none of the
    files it writes: no signal or pathway file and no manifest, of either
    run."""
    out = small_config.output_dir
    assert main(["simulate", "--config", config_path]) == 0
    assert len(os.listdir(out)) == 5
    data = config_to_dict(small_config)
    data["dimer"]["coupling_j"] = 100.0
    data["toolbox"]["field_strength_lambda"] = 1e6
    data["noise"] = 1e308
    with open(config_path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert main(["simulate", "--config", config_path]) == 1
    path = os.path.join(out, "signals_gamma0.csv")
    assert capsys.readouterr().err == (
        f"error: {path}: not written, as its numbers would not all be "
        "finite\n")
    assert os.listdir(out) == []


_TOOLBOX_BLIND = ("toolbox frequencies (13480.0, 12130.0) cm^-1 cannot "
                  "discriminate the exciton transitions")


@pytest.mark.parametrize("section, field, value, message", [
    ("toolbox", "field_strength_lambda", 1e300, "C = base^(x)4 is not finite"),
    ("bath", "reorganization_energy", 1e308, "propagator is not finite"),
    ("dimer", "site_energy_1", 1e308, _TOOLBOX_BLIND),
    ("dimer", "coupling_j", 1e200, _TOOLBOX_BLIND),
    ("dimer", "dipole_d1", 1e200,
     "isotropic dipole factors are not finite")])
def test_overflowing_config_names_the_member(tmp_path, capsys, section, field,
                                             value, message):
    """A finite but extreme number that overflows the forward model exits 1
    with one line naming the member, before any CSV is written; no numpy
    warning comes first (a warning fails the tests).  A dimer so far from
    the toolbox that C cannot be inverted fails reconstruct alone: simulate,
    which takes no inverse, exits 0 with finite signals, and reconstruct
    writes no tensor file."""
    data = config_to_dict(default_config(output_dir=str(tmp_path / "out")))
    data["ensemble"]["n_members"] = 4
    data["t_grid"] = [120.0, 200.0]
    data[section][field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    simulated = message == _TOOLBOX_BLIND
    assert main(["simulate", "--config", str(path)]) == (0 if simulated
                                                         else 1)
    assert capsys.readouterr().err == (
        "" if simulated else f"error: member 0: {message}\n")
    assert main(["reconstruct", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: member 0: {message}\n"
    written = sorted(name for name in os.listdir(tmp_path / "out")
                     if name.endswith(".csv"))
    assert written == (sorted(f"{stem}_gamma{g:g}.csv" for g in DEFAULT_GAMMAS
                              for stem in ("signals", "pathways"))
                       if simulated else [])
    assert _csv_numbers_finite(tmp_path / "out")


def test_overflowing_noise_is_not_written(config_path, small_config, capsys):
    """Noise so wide that the signals overflow exits 1 naming the file,
    which is not written."""
    data = config_to_dict(small_config)
    data["toolbox"]["field_strength_lambda"] = 1e6
    data["noise"] = 1e308
    with open(config_path, "w") as fh:
        json.dump(data, fh)
    assert main(["simulate", "--config", config_path]) == 1
    path = os.path.join(small_config.output_dir, "signals_gamma0.csv")
    assert capsys.readouterr().err == (
        f"error: {path}: not written, as its numbers would not all be "
        "finite\n")
    assert not os.path.exists(path)


# the configuration of the extreme-value test: few members and waiting times
_SMALL = config_to_dict(default_config(output_dir="out"))
_SMALL["ensemble"]["n_members"] = 3
_SMALL["t_grid"] = [120.0, 300.0, 700.0]
_SMALL["gamma_list"] = [0.0, 2.0]
# every leaf of the configuration, as a key path into its JSON
_LEAVES = ([(section, name) for section in ("dimer", "bath", "toolbox",
                                            "ensemble")
            for name in _SMALL[section]]
           + [("t_grid", 0), ("t_grid", 2), ("gamma_list", 0), ("noise",),
              ("verbatim_terms",), ("homogeneous_only",), ("output_dir",)])
_EXTREMES = [1e308, -1e308, 1e200, -1e200, 5e-324, -5e-324, 1e-310,
             2.2250738585072014e-308, 0, 0.0, -1, -12881.0, 10**300,
             -10**300, 10**400, -10**400, 2**64, "12881", None, [], {}, True]


@pytest.fixture(scope="module")
def small_signals(tmp_path_factory):
    """The output directory of the unchanged homogeneous configuration: the
    signal files a homogeneous reconstruct reads."""
    out = tmp_path_factory.mktemp("small") / "out"
    path = out.parent / "cfg.json"
    path.write_text(json.dumps(dict(_SMALL, homogeneous_only=True,
                                    output_dir=str(out))))
    with mock.patch("sys.stdout", io.StringIO()):
        assert main(["simulate", "--config", str(path)]) == 0
    return out


def _csv_numbers_finite(directory):
    for name in os.listdir(directory):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if not all(math.isfinite(float(x)) for row in rows
                       for x in (row[0], row[-2], row[-1])):
                return False
    return True


@settings(derandomize=True, max_examples=150, deadline=None)
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_EXTREMES),
       homogeneous=st.booleans())
def test_extreme_config_values(small_signals, leaf, value, homogeneous):
    """One leaf of a small configuration set to an extreme or wrong-typed
    value: simulate, reconstruct and report exit 0, 1 or 2, print at most
    one ``error:`` or ``configuration error:`` line to stderr, and a run
    that exits 0 writes only finite numbers.  Any numpy warning fails the
    test.  reconstruct reads the unchanged configuration's signals, or
    those the changed one wrote."""
    # at most 4 members: a huge n_members asks for that many
    assume(not (leaf == ("ensemble", "n_members") and isinstance(value, int)
                and value > 4))
    assume(leaf != ("output_dir",) or not isinstance(value, str))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        shutil.copytree(small_signals, out)
        data = json.loads(json.dumps(_SMALL))
        data.update(homogeneous_only=homogeneous, output_dir=out)
        target = data
        for part in leaf[:-1]:
            target = target[part]
        target[leaf[-1]] = value
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        for argv in (["simulate", "--config", path],
                     ["reconstruct", "--config", path],
                     ["report", "--output-dir", out]):
            err = io.StringIO()
            with mock.patch("sys.stdout", io.StringIO()), \
                    mock.patch("sys.stderr", err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2), (argv[0], lines)
            assert len(lines) <= 1 and all(
                line.startswith(("error: ", "configuration error: "))
                for line in lines), (argv[0], lines)
            if code == 0:
                assert _csv_numbers_finite(out), argv[0]


def test_signal_file_missing_column(config_path, small_config, capsys):
    _edit_signal_file(config_path, small_config,
                      lambda lines: [ln.rsplit(",", 1)[0] + "\n"
                                     for ln in lines])
    err = _assert_reconstruct_io_error(config_path, capsys)
    assert "signals_gamma2.csv:1:" in err


@pytest.mark.parametrize("verbatim", [False, True])
def test_ensemble_flow_matches_member_mean(tmp_path, verbatim):
    """The ensemble's tensors are the mean of its members' propagators at
    each Gamma, with the default pathway reading and with the alternative
    one, whose map carries a nonzero offset."""
    cfg = replace(default_config(output_dir=str(tmp_path / "ens")),
                  ensemble=EnsembleSpec(n_members=3, sigma_inh=40.0, seed=4),
                  t_grid=(120.0, 300.0), gamma_list=(0.0, 2.0),
                  verbatim_terms=verbatim)
    path = str(tmp_path / "ens.json")
    save_config(cfg, path)
    assert main(["simulate", "--config", path]) == 0
    assert main(["reconstruct", "--config", path]) == 0
    gens = [build_redfield_generator(build_exciton_basis(m), cfg.bath)
            for m in sample_members(cfg.dimer, cfg.ensemble)]
    tensors = {}
    for gamma in ("0", "2"):
        tensor_csv = os.path.join(cfg.output_dir, f"tensors_gamma{gamma}.csv")
        assert main(["validate", tensor_csv]) == 0
        times, elements, grounds = _parse_tensor_csv(tensor_csv)
        assert times.tolist() == list(cfg.t_grid)
        for t, el, gr in zip(cfg.t_grid, elements, grounds):
            truth = [propagate_process_tensor(g, t) for g in gens]
            mean_el = np.mean([x.elements for x in truth], axis=0)
            mean_gr = np.mean([x.ground_row for x in truth], axis=0)
            assert np.max(np.abs(el - mean_el)) < 1e-8
            assert np.max(np.abs(gr - mean_gr)) < 1e-8
        tensors[gamma] = elements, grounds
    for a, b in zip(tensors["0"], tensors["2"]):
        assert np.max(np.abs(a - b)) < 1e-8


def test_ensemble_reconstruct_inverts_only_its_members(tmp_path, monkeypatch,
                                                       capsys):
    """An ensemble centred on a nearly degenerate dimer that the toolbox
    cannot invert: its members can be, so simulate and reconstruct both
    exit 0.  reconstruct never prepares the configured dimer, and each
    Gamma's head line names the members averaged and nothing else."""
    cfg = replace(default_config(output_dir=str(tmp_path / "ens")),
                  dimer=DimerParams(site_energy_1=12800.0,
                                    site_energy_2=12800.0, coupling_j=1e-3),
                  ensemble=EnsembleSpec(n_members=20, sigma_inh=40.0),
                  t_grid=(120.0, 300.0))
    path = str(tmp_path / "ens.json")
    save_config(cfg, path)
    with pytest.raises(SingularToolboxError):
        pulses.check_generators(ensemble.prepare(
            [cfg.dimer], 0, cfg.bath, cfg.toolbox, cfg.t_grid).base,
            cfg.toolbox)
    assert main(["simulate", "--config", path]) == 0

    def nominal(*args, **kwargs):
        raise AssertionError("configured dimer prepared")

    monkeypatch.setattr(cli, "prepare", nominal)
    monkeypatch.setattr(cli, "propagators", nominal)
    capsys.readouterr()
    assert main(["reconstruct", "--config", path]) == 0
    heads = [line for line in capsys.readouterr().out.splitlines()
             if " T=" not in line]
    assert heads == [f"gamma={g:g}: member-wise ensemble average over 20 "
                     "members" for g in cfg.gamma_list]


def test_ensemble_commands_run_the_engine_once(tmp_path, monkeypatch):
    cfg = replace(default_config(output_dir=str(tmp_path / "ens")),
                  ensemble=EnsembleSpec(n_members=4, sigma_inh=40.0, seed=4),
                  t_grid=(120.0, 300.0))
    path = str(tmp_path / "ens.json")
    save_config(cfg, path)
    engine = cli.evaluate_ensemble
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    def per_member(*args, **kwargs):
        raise AssertionError("per-member path called")

    monkeypatch.setattr(cli, "evaluate_ensemble", counted)
    for module in (bath, cli, ensemble, isoaverage, reconstruct, response):
        for name in ("build_m_blocks", "propagate_process_tensor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, per_member)
    for command in ("simulate", "reconstruct"):
        calls.clear()
        assert main([command, "--config", path]) == 0
        assert len(calls) == 1
        assert calls[0][4] == cfg.gamma_list


# the pieces of the engine's two-stage inverse, which cli.py reaches only
# through ensemble.invert
_INVERSE_PIECES = {"pathway_structure", "geometry_blocks", "solve_tensors",
                   "kron_power4", "kron_solve", "closure_ground_row"}


def test_cli_uses_only_the_public_engine():
    """cli.py imports no private package name and none of the inverse's
    pieces."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (
                 node.level or node.module.split(".")[0] == "dimerqpt")
             for alias in node.names}
    assert "invert" in names
    assert not [name for name in names if name.startswith("_")]
    assert not names & _INVERSE_PIECES


# single-dimer builders that no command calls: the tests' oracles
_ORACLE_BUILDERS = ("build_m_blocks", "build_c_matrix", "build_exciton_basis",
                    "build_redfield_generator", "propagate_process_tensor",
                    "propagator_elements", "reconstruct_rows")


@pytest.mark.parametrize("noise, verbatim, codes", [
    (None, False, (0, 0, [0, 0])),
    (None, True, (0, 0, [0, 0])),
    (0.01, False, (0, 1, [1, 1]))])
def test_homogeneous_commands_run_one_path(small_config, tmp_path,
                                           monkeypatch, noise, verbatim,
                                           codes):
    """Homogeneous simulate -> reconstruct -> validate call none of the
    single-dimer builders: reconstruct inverts each signal file with the
    engine's own C and M.  Its tensors agree with reconstruct_rows and the
    probe-built build_m_blocks applied to the same files."""
    cfg = replace(small_config, noise=noise, verbatim_terms=verbatim)
    path = str(tmp_path / "cfg.json")
    save_config(cfg, path)
    tensor_paths = [os.path.join(cfg.output_dir, f"tensors_gamma{g:g}.csv")
                    for g in cfg.gamma_list]

    def builder(*args, **kwargs):
        raise AssertionError("single-dimer builder called")

    with monkeypatch.context() as patch:
        for module in (dimerqpt, bath, cli, ensemble, isoaverage, model,
                       pulses, reconstruct, response):
            for name in _ORACLE_BUILDERS:
                if hasattr(module, name):
                    patch.setattr(module, name, builder)
        got = (main(["simulate", "--config", path]),
               main(["reconstruct", "--config", path]),
               [main(["validate", tensor_path])
                for tensor_path in tensor_paths])
    assert got == codes
    basis = build_exciton_basis(cfg.dimer)
    cmat = build_c_matrix(basis, cfg.toolbox)
    for gamma, tensor_path in zip(cfg.gamma_list, tensor_paths):
        table = cli._read_signal_table(
            os.path.join(cfg.output_dir, f"signals_gamma{gamma:g}.csv"), cfg)
        elements, grounds, _ = reconstruct_rows(
            table.values, cmat, build_m_blocks(basis, gamma, verbatim))
        _, got_elements, got_grounds = _parse_tensor_csv(tensor_path)
        assert np.max(np.abs(got_elements - elements)) <= 1e-12
        assert np.max(np.abs(got_grounds - grounds)) <= 1e-12


def _tensor_file_error(config_path, small_config, capsys, edit):
    main(["simulate", "--config", config_path])
    main(["reconstruct", "--config", config_path])
    path = os.path.join(small_config.output_dir, "tensors_gamma2.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))
    capsys.readouterr()
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err
    return err, path


def test_tensor_file_deleted_row(config_path, small_config, capsys):
    err, path = _tensor_file_error(
        config_path, small_config, capsys,
        lambda lines: [ln for ln in lines
                       if not ln.startswith("200,e,ep,e,e,")])
    assert f"{path}:" in err
    assert "e,ep,e,e" in err


def test_tensor_file_conflicting_duplicate(config_path, small_config,
                                           capsys):
    err, path = _tensor_file_error(
        config_path, small_config, capsys,
        lambda lines: lines + ["120,e,e,e,e,5,0\n"])
    # header + 3 T x 20 rows, then the appended row; the first data row
    # is T=120, e,e,e,e
    assert f"{path}:62: duplicate" in err
    assert "(first at line 2)" in err


def test_tensor_file_ground_only_time(config_path, small_config, capsys):
    err, path = _tensor_file_error(
        config_path, small_config, capsys,
        lambda lines: lines + ["300,g,g,e,e,1,0\n"])
    assert f"{path}:62" in err
    assert "T_fs=300" in err


def test_tensor_file_header_only(config_path, small_config, capsys):
    _tensor_file_error(config_path, small_config, capsys,
                       lambda lines: lines[:1])


@pytest.mark.parametrize("manifest", ["[]", '{"config": []}',
                                      '{"config": {"t_grid": 5}}'])
def test_report_rejects_misshapen_manifest(tmp_path, capsys, manifest):
    (tmp_path / "run_manifest.json").write_text(manifest)
    assert main(["report", "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(tmp_path / "run_manifest.json") in err
    assert "Traceback" not in err


# files that are not JSON text: a byte that is not UTF-8, an integer of more
# digits than int() converts, and nesting deeper than the parser recurses
_NOT_JSON = {"non-UTF-8 byte": b'{"t_grid": [1\xff]}',
             "5000-digit integer": b'{"t_grid": [' + b"1" * 5000 + b"]}",
             "deep nesting": b"[" * 10**5}


@pytest.mark.parametrize("fault", list(_NOT_JSON))
@pytest.mark.parametrize("command, code, lead", [
    ("simulate", 2, "configuration error"), ("report", 3, "error")])
def test_json_input_that_is_not_json_text(tmp_path, capsys, fault, command,
                                          code, lead):
    """A configuration (exit 2) or run manifest (exit 3) that cannot be
    read as JSON text gives one line naming the file, not a traceback."""
    if command == "simulate":
        path = tmp_path / "cfg.json"
        argv = ["simulate", "--config", str(path)]
    else:
        path = tmp_path / "run_manifest.json"
        argv = ["report", "--output-dir", str(tmp_path)]
    path.write_bytes(_NOT_JSON[fault])
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{lead}: {path}: invalid JSON (")
    assert err.count("\n") == 1 and err.endswith(")\n")


def test_commands_called_directly_return_their_exit_code(small_config,
                                                          capsys):
    """cmd_simulate, cmd_reconstruct and cmd_validate return 0 on a run
    that completes, and cmd_validate 1 on a tensor that fails its checks,
    as scripts that call them rely on.  An unreadable file raises, and
    main maps that to 3."""
    assert cli.cmd_simulate(small_config) == 0
    assert cli.cmd_reconstruct(small_config) == 0
    paths = [os.path.join(small_config.output_dir, f"tensors_gamma{g:g}.csv")
             for g in small_config.gamma_list]
    assert [cli.cmd_validate(path) for path in paths] == [0, 0]
    with open(paths[-1]) as fh:
        lines = _set_first_real_part(fh.readlines(), "120,e,e,e,e,", "1e308")
    with open(paths[-1], "w") as fh:
        fh.writelines(lines)
    assert cli.cmd_validate(paths[-1]) == 1
    missing = os.path.join(small_config.output_dir, "nope.csv")
    with pytest.raises(OSError):
        cli.cmd_validate(missing)
    capsys.readouterr()
    assert main(["validate", missing]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
                   0.1, 1 / 3]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), schema=st.sampled_from(["signals", "tensors"]),
       n=st.integers(1, 4), transposed=st.booleans())
def test_write_rows_matches_csv_writer(data, schema, n, transposed):
    """_write_rows gives the bytes of csv.writer over f"{x:.17g}" fields,
    also for values held as a transposed (non-contiguous) view."""
    if schema == "signals":
        header, labels = cli._SIGNAL_HEADER, cli.OMEGA_LABELS
    else:
        header, labels = cli._TENSOR_HEADER, cli._TENSOR_LABELS
    number = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
    t_grid = data.draw(st.lists(
        st.one_of(st.integers(0, 10**6), st.integers(0, 10**6).map(float),
                  st.floats(0, 1e4)), min_size=n, max_size=n))
    parts = data.draw(st.lists(number, min_size=2 * n * len(labels),
                               max_size=2 * n * len(labels)))
    parts = np.array(parts).reshape(2, n, len(labels))
    values = np.empty((n, len(labels)), dtype=complex)
    values.real, values.imag = parts    # keeps the sign of zero parts
    written_values = values
    if transposed:  # (k, n) storage seen as (n, k), as cmd_simulate passes
        written_values = np.ascontiguousarray(values.T).T
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        cli._write_rows(path, header, t_grid, labels, written_values)
        with open(path, "rb") as fh:
            written = fh.read()
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for k, t in enumerate(t_grid):
        for j, label in enumerate(labels):
            writer.writerow([f"{t:.17g}", *label.split(","),
                             f"{values[k, j].real:.17g}",
                             f"{values[k, j].imag:.17g}"])
    assert written == expected.getvalue().encode()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small homogeneous run: its configuration, signal and tensor files."""
    root = tmp_path_factory.mktemp("valid")
    cfg = replace(default_config(output_dir=str(root / "out")),
                  homogeneous_only=True, t_grid=(120.0, 200.0, 400.0),
                  gamma_list=(0.0, 2.0))
    path = str(root / "cfg.json")
    save_config(cfg, path)
    assert main(["simulate", "--config", path]) == 0
    assert main(["reconstruct", "--config", path]) == 0
    files = {}
    for stem in ("signals", "tensors"):
        with open(os.path.join(cfg.output_dir, f"{stem}_gamma2.csv"),
                  newline="") as fh:
            files[stem] = fh.read().split("\r\n")[:-1]
    return cfg, files


def _mutate(kind, lines, rng, blanks):
    """One mutation of a CSV (a list of lines without terminators).

    Returns the new lines, the line number the reader must name (None for
    a benign mutation) and a fragment of its message.  For a fault,
    ``blanks`` blank lines go right after the header, ahead of it.  Data
    row i of the returned lines is on line i + 2.
    """
    header, rows = lines[0], lines[1:]
    width = header.count(",") + 1
    r = rng.randrange(len(rows))
    fields = rows[r].split(",")
    if kind == "blank lines":
        for _ in range(blanks + 1):
            rows.insert(rng.randrange(len(rows) + 1), "")
        return [header] + rows, None, None
    if kind == "shuffle":
        rng.shuffle(rows)
        return [header] + rows, None, None
    rows = [""] * blanks + rows
    r += blanks
    if kind == "delete":
        del rows[r]
        t = float(fields[0])
        first = next(i for i, row in enumerate(rows)
                     if row and float(row.split(",")[0]) == t)
        return [header] + rows, first + 2, "has no row for"
    if kind == "duplicate":
        fields[-2] = repr(float(fields[-2]) + 1.0)
        at = rng.randrange(blanks, len(rows) + 1)
        rows.insert(at, ",".join(fields))
        pair = sorted((at, r + (at <= r)))
        return ([header] + rows, pair[1] + 2,
                f"={','.join(fields[1:-2])} (first at line {pair[0] + 2})")
    if kind == "unknown label":
        fields[1] = "zz"
        message = "unknown"
    elif kind == "unparsable":
        fields[rng.choice([0, -2, -1])] = "1.5x"
        message = "could not convert string to float: '1.5x'"
    elif kind == "non-finite":
        fields[rng.choice([0, -2, -1])] = rng.choice(["nan", "inf", "-inf"])
        message = "non-finite number"
    elif kind == "oversized field":
        fields[rng.randrange(len(fields))] = "9" * 200000
        message = "field larger than field limit"
    elif kind == "not UTF-8":
        # lone surrogates are written as the raw bytes ff fe
        at = rng.randrange(len(fields))
        fields[at] = fields[at][:1] + "\udcff\udcfe" + fields[at][1:]
        message = "\\udcff\\udcfe"
    elif kind == "extra field":
        fields.append("0")
        message = f"expected {width} fields, got {width + 1}"
    else:   # "dropped field"
        del fields[rng.randrange(len(fields))]
        message = f"expected {width} fields, got {width - 1}"
    rows[r] = ",".join(fields)
    return [header] + rows, r + 2, message


_MUTATIONS = ["blank lines", "shuffle", "delete", "duplicate",
              "unknown label", "unparsable", "non-finite", "oversized field",
              "not UTF-8", "extra field", "dropped field"]


@pytest.mark.parametrize("stem", ["signals", "tensors"])
@pytest.mark.parametrize("kind", _MUTATIONS)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blanks=st.integers(0, 3))
def test_reader_fuzz(valid_files, stem, kind, seed, blanks):
    """A benign edit parses to the same arrays; any other edit makes
    reconstruct or validate exit 3 naming path:line, without a traceback."""
    cfg, files = valid_files
    lines, fault_line, message = _mutate(kind, list(files[stem]),
                                         random.Random(seed), blanks)
    schema = _SCHEMAS[stem]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{stem}_gamma2.csv")
        with open(path, "w", newline="", errors="surrogateescape") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
        if fault_line is None:
            original = os.path.join(cfg.output_dir, f"{stem}_gamma2.csv")
            expected = cli._read_rows(original, *schema)
            parsed = cli._read_rows(path, *schema)
            for a, b in zip(parsed, expected):
                assert np.array_equal(a, b)
            return
        if stem == "signals":
            shutil.copy(os.path.join(cfg.output_dir, "signals_gamma0.csv"),
                        tmp)
            config_path = os.path.join(tmp, "cfg.json")
            save_config(replace(cfg, output_dir=tmp), config_path)
            argv = ["reconstruct", "--config", config_path]
        else:
            argv = ["validate", path]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdout", out), mock.patch("sys.stderr", err):
            assert main(argv) == 3
        err = err.getvalue()
    assert f"{path}:{fault_line}:" in err
    assert message in err
    assert "Traceback" not in err


def test_reader_reports_first_fault_in_file_order(valid_files, tmp_path):
    """With several faults, the one first in file order is named, and in a
    row the checks run field count, key, T, re, im, finiteness."""
    _, files = valid_files
    header, rows = files["signals"][0], files["signals"][1:]
    copy = rows[0].split(",")
    copy[-1] = "7"
    huge = "120,++++," + "1" * 200000 + ",0"
    quoted = rows[2].split(",")
    quoted[-1] = '"1\r\n"'
    cases = [
        # a duplicate ahead of a malformed row
        (rows[:3] + [",".join(copy)] + rows[3:10] + ["bad"] + rows[10:],
         "5: duplicate row", "(first at line 2)"),
        # a malformed row ahead of a duplicate
        (rows[:3] + ["bad"] + rows[3:10] + [",".join(copy)] + rows[10:],
         "5: malformed row (expected 4 fields, got 1)", ""),
        # two duplicates: the earlier one is named
        (rows[:4] + rows[1:2] + rows[4:] + rows[3:4],
         "6: duplicate row", "(first at line 3)"),
        # T and re both unparsable: T is named
        (rows[:2] + ["x,++++,y,0"] + rows[2:], "4: malformed row (could not "
         "convert string to float: 'x')", ""),
        (rows[:2] + ["120,++++,y,z"] + rows[2:], "4: malformed row (could "
         "not convert string to float: 'y')", ""),
        (rows[:2] + ["120,bad,y,z"] + rows[2:],
         "4: malformed row (unknown omega_tuple 'bad')", ""),
        # a malformed row, a duplicate or an oversized field: the first wins
        (rows[:3] + ["bad"] + rows[3:10] + [huge] + rows[10:],
         "5: malformed row (expected 4 fields, got 1)", ""),
        (rows[:3] + [",".join(copy)] + rows[3:10] + [huge] + rows[10:],
         "5: duplicate row", "(first at line 2)"),
        (rows[:3] + [huge] + rows[3:10] + ["bad"] + rows[10:],
         "5: malformed row (field larger than field limit", ""),
        # a record spanning lines is named by its last line
        (rows[:2] + ['120,"++\r\n++",1,0'] + rows[2:],
         "5: malformed row (unknown omega_tuple '++\\r\\n++')", ""),
        (rows[:2] + [",".join(quoted)] + rows[3:5] + rows[2:3] + rows[5:],
         "8: duplicate row", "(first at line 5)"),
    ]
    path = str(tmp_path / "signals.csv")
    for body, where, first in cases:
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join([header] + body) + "\r\n")
        with pytest.raises(ValueError) as info:
            cli._read_rows(path, cli._SIGNAL_HEADER, cli.OMEGA_LABELS)
        assert f"{path}:{where}" in str(info.value)
        assert first in str(info.value)


def _edit_layout(kind, lines, rng):
    """One edit of a CSV's layout (a list of lines without terminators)
    that the writer never makes.  Returns the new lines and their line
    ending."""
    header, rows = lines[0], lines[1:]
    r = rng.randrange(len(rows))
    fields = rows[r].split(",")
    width = header.count(",") + 1
    keys = range(1, width - 2)      # the key fields' indices
    numbers = [0, width - 2, width - 1]
    if kind == "whitespace line":
        rows.insert(rng.randrange(len(rows) + 1), rng.choice([" ", "\t"]))
    elif kind in ("LF endings", "CR endings"):
        return lines, {"LF endings": "\n", "CR endings": "\r"}[kind]
    elif kind == "quoted key":
        at = rng.choice(keys)
        fields[at] = f'"{fields[at]}"'
    elif kind == "quoted number":
        at = rng.choice(numbers)
        fields[at] = f'"{fields[at]}"'
    elif kind == "BOM":
        header = "\ufeff" + header
    elif kind == "hash in field":
        at = rng.randrange(width)
        fields[at] = rng.choice(["#", fields[at] + "#", "#" + fields[at]])
    elif kind == "long key":
        fields[rng.choice(keys)] = "+++++" if width == 4 else "epe"
    elif kind == "NUL":
        # at the end of a key, a NUL vanishes in a numpy bytes field
        at = rng.randrange(width)
        fields[at] = rng.choice([fields[at] + "\0", "\0" + fields[at]])
    elif kind == "underscore in number":
        # float() reads "1_20" as 120
        at = rng.choice([i for i in numbers
                         if re.search(r"\d\d", fields[i])])
        fields[at] = re.sub(r"(\d)(\d)", r"\1_\2", fields[at], count=1)
    elif kind == "T spelled two ways":
        # the first block (T = 120) gets T = t, one of its rows T = other;
        # of 0 and -0 the reader keeps the block's first, so often that is
        # the odd row
        t, other = rng.choice([("0", "-0"), ("-0", "0"), ("120", "120.0")])
        block = len(rows) // len({row.split(",", 1)[0] for row in rows})
        rows[:block] = [t + row[row.index(","):] for row in rows[:block]]
        r = rng.choice([0, rng.randrange(block)])
        fields = rows[r].split(",")
        fields[0] = other
    elif kind == "blocks out of T order":
        times = list(dict.fromkeys(row.split(",", 1)[0] for row in rows))
        rng.shuffle(times)
        rows.sort(key=lambda row: times.index(row.split(",", 1)[0]))
    elif kind == "header only":
        rows = []
    elif kind == "one row":
        rows = rows[r:r + 1]
    else:   # "long finite number"
        fields[rng.choice(numbers)] = "0." + "0" * 200000 + "1"
    if kind not in ("whitespace line", "BOM", "blocks out of T order",
                    "header only", "one row"):
        rows[r] = ",".join(fields)
    return [header] + rows, "\r\n"


_LAYOUT_EDITS = ["whitespace line", "LF endings", "CR endings", "quoted key",
                 "quoted number", "BOM", "hash in field", "long key", "NUL",
                 "underscore in number", "T spelled two ways",
                 "blocks out of T order", "header only", "one row",
                 "long finite number"]


def _read_or_error(path, schema):
    """The (T, values) _read_rows returns, or the text of its ValueError."""
    try:
        return cli._read_rows(path, *schema)
    except ValueError as exc:
        return str(exc)


_SCHEMAS = {"signals": (cli._SIGNAL_HEADER, cli.OMEGA_LABELS),
            "tensors": (cli._TENSOR_HEADER, cli._TENSOR_LABELS)}


@pytest.mark.parametrize("stem", ["signals", "tensors"])
@pytest.mark.parametrize("kind", _MUTATIONS + _LAYOUT_EDITS)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blanks=st.integers(0, 3))
def test_fast_reader_matches_row_checker(valid_files, stem, kind, seed,
                                         blanks):
    """_read_rows gives what the row checker alone gives (the fast path
    patched out): bit-identical arrays, or the same ValueError text."""
    _, files = valid_files
    rng = random.Random(seed)
    if kind in _MUTATIONS:
        lines, _, _ = _mutate(kind, list(files[stem]), rng, blanks)
        ending = "\r\n"
    else:
        lines, ending = _edit_layout(kind, list(files[stem]), rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{stem}_gamma2.csv")
        with open(path, "w", newline="", errors="surrogateescape") as fh:
            fh.write(ending.join(lines) + ending)
        got = _read_or_error(path, _SCHEMAS[stem])
        with mock.patch.object(cli, "_read_writer_layout",
                               lambda *args: None):
            expected = _read_or_error(path, _SCHEMAS[stem])
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        for a, b in zip(got, expected):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


def test_writer_output_takes_the_fast_path(small_config, tmp_path,
                                           monkeypatch, capsys):
    """Homogeneous simulate -> reconstruct -> validate never call the row
    checker on the writer's own files, and give the outputs of a run that
    reads every file with the checker; a shuffled file still goes through
    the checker to the same arrays."""
    path = str(tmp_path / "cfg.json")
    save_config(small_config, path)
    out = small_config.output_dir
    tensor_paths = [os.path.join(out, f"tensors_gamma{g:g}.csv")
                    for g in small_config.gamma_list]

    def run():
        codes = (main(["simulate", "--config", path]),
                 main(["reconstruct", "--config", path]),
                 [main(["validate", p]) for p in tensor_paths])
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        return codes, capsys.readouterr(), files

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_writer_layout", lambda *args: None)
        checked = run()

    def unreachable(*args):
        raise AssertionError("row checker called")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_row", unreachable)
        fast = run()
    assert fast == checked
    assert fast[0] == (0, 0, [0, 0])
    parse_row = cli._parse_row
    calls = []

    def counted(*args):
        calls.append(args)
        return parse_row(*args)

    schema = _SCHEMAS["signals"]
    signal_path = os.path.join(out, "signals_gamma2.csv")
    expected = cli._read_rows(signal_path, *schema)
    with open(signal_path, newline="") as fh:
        header, *rows = fh.readlines()
    random.Random(1).shuffle(rows)
    shuffled = str(tmp_path / "shuffled.csv")
    with open(shuffled, "w", newline="") as fh:
        fh.writelines([header] + rows)
    monkeypatch.setattr(cli, "_parse_row", counted)
    got = cli._read_rows(shuffled, *schema)
    assert calls
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("stem", ["signals", "tensors"])
@pytest.mark.parametrize("order", ["shuffled", "reversed", "mixed T"])
def test_other_layout_leaves_fast_path_within_first_block(valid_files, stem,
                                                          order):
    """A file whose rows are shuffled or reversed, or whose first block
    has its keys in order but two T values, leaves the writer-layout path
    after its header and at most one block of rows are read, before any
    row is parsed."""
    _, files = valid_files
    header, *rows = files[stem]
    schema_header, labels = _SCHEMAS[stem]
    if order == "shuffled":
        random.Random(3).shuffle(rows)
    elif order == "reversed":
        rows.reverse()
    else:
        # the second rows of the first two blocks trade places
        k = len(labels)
        rows[1], rows[k + 1] = rows[k + 1], rows[1]
    fh = io.StringIO("".join(line + "\r\n" for line in [header] + rows),
                     newline="")
    assert cli._read_writer_layout(fh, schema_header, labels) is None
    assert len(fh.readlines()) >= len(rows) - len(labels)

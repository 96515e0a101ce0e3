import json
import os
from dataclasses import replace

import numpy as np
import pytest

from dimerqpt.bath import build_redfield_generator, propagate_process_tensor
from dimerqpt.cli import _parse_tensor_csv, main
from dimerqpt.config import (config_from_dict, config_to_dict, default_config,
                             load_config, save_config)
from dimerqpt.ensemble import EnsembleSpec, sample_members
from dimerqpt.errors import ConfigError
from dimerqpt.model import build_exciton_basis


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


def test_signal_file_missing_column(config_path, small_config, capsys):
    _edit_signal_file(config_path, small_config,
                      lambda lines: [ln.rsplit(",", 1)[0] + "\n"
                                     for ln in lines])
    err = _assert_reconstruct_io_error(config_path, capsys)
    assert "signals_gamma2.csv:1:" in err


def test_ensemble_flow_matches_member_mean(tmp_path):
    cfg = replace(default_config(output_dir=str(tmp_path / "ens")),
                  ensemble=EnsembleSpec(n_members=3, sigma_inh=40.0, seed=4),
                  t_grid=(120.0, 300.0), gamma_list=(0.0, 2.0))
    path = str(tmp_path / "ens.json")
    save_config(cfg, path)
    assert main(["simulate", "--config", path, "--workers", "1"]) == 0
    assert main(["reconstruct", "--config", path, "--workers", "1"]) == 0
    gens = [build_redfield_generator(build_exciton_basis(m), cfg.bath)
            for m in sample_members(cfg.dimer, cfg.ensemble)]
    tensors = {}
    for gamma in ("0", "2"):
        tensor_csv = os.path.join(cfg.output_dir, f"tensors_gamma{gamma}.csv")
        assert main(["validate", tensor_csv]) == 0
        tensors[gamma] = _parse_tensor_csv(tensor_csv)
        assert sorted(tensors[gamma]) == list(cfg.t_grid)
        for t, tensor in tensors[gamma].items():
            truth = [propagate_process_tensor(g, t) for g in gens]
            mean_el = np.mean([x.elements for x in truth], axis=0)
            mean_gr = np.mean([x.ground_row for x in truth], axis=0)
            assert np.max(np.abs(tensor.elements - mean_el)) < 1e-8
            assert np.max(np.abs(tensor.ground_row - mean_gr)) < 1e-8
    for t in cfg.t_grid:
        a, b = tensors["0"][t], tensors["2"][t]
        assert np.max(np.abs(a.elements - b.elements)) < 1e-8
        assert np.max(np.abs(a.ground_row - b.ground_row)) < 1e-8

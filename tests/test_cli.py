"""Command-line interface: argument handling, overrides, exit codes."""

import struct

import numpy as np
import pytest

from topinf import load_config_file, load_matrix
from topinf.cli import build_parser, main


def write_config(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "problem = heat1d\n"
        "n_elements = 20\n"
        "tf = 0.4\n"
        "dt = 0.1\n"
        "n_train = 3\n"
        "n_test = 1\n"
        "reduced_dims = 2, 3\n" + extra
    )
    return path


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for command in ("pipeline", "simulate-fom", "build-basis", "infer",
                    "simulate-rom", "evaluate"):
        args = parser.parse_args([command, "--config", "x.cfg"])
        assert args.command == command
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate", "--config", "x.cfg"])
    with pytest.raises(SystemExit):
        parser.parse_args(["pipeline"])  # --config is required
    with pytest.raises(SystemExit):
        parser.parse_args(["infer", "--config", "x.cfg", "--method", "ridge"])


def test_pipeline_command_runs_and_reports(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    outdir = tmp_path / "artifacts"
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(outdir)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == f"topinf: pipeline done, artifacts in {outdir}\n"
    assert (outdir / "report" / "errors.csv").is_file()


def test_overrides_reach_the_config_copy(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    outdir = tmp_path / "custom"
    code = main([
        "pipeline", "--config", str(cfg_path), "--out", str(outdir),
        "--seed", "42", "--method", "lstsq", "--r", "3", "--r", "2", "--r", "3",
    ])
    capsys.readouterr()
    assert code == 0
    cfg = load_config_file(outdir / "config.cfg")
    assert cfg.seed == 42
    assert cfg.methods == ("lstsq",)
    assert cfg.reduced_dims == (2, 3)  # deduplicated and sorted
    assert cfg.output_dir == str(outdir)
    assert not (outdir / "operators" / "tensor_normal_r2.tpoi").exists()
    assert (outdir / "operators" / "tensor_lstsq_r2.tpoi").exists()


def test_stages_run_separately(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    outdir = tmp_path / "staged"
    common = ["--config", str(cfg_path), "--out", str(outdir)]
    for command in ("simulate-fom", "build-basis", "infer", "simulate-rom", "evaluate"):
        assert main([command] + common) == 0
        assert capsys.readouterr().out.startswith(f"topinf: {command} done")
    assert load_matrix(outdir / "basis" / "u.tpoi").shape == (19, 3)
    assert (outdir / "report" / "summary.txt").is_file()


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    code = main(["pipeline", "--config", str(tmp_path / "absent.cfg")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("topinf: error:")


def test_invalid_configuration_fails_cleanly(tmp_path, capsys):
    cfg_path = write_config(tmp_path, extra="sampling = sobol\n")
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "topinf: error:" in captured.err
    assert "sampling" in captured.err


def test_nondividing_dt_fails_cleanly(tmp_path, capsys):
    cfg_path = write_config(tmp_path, extra="")
    cfg_path.write_text(cfg_path.read_text().replace("dt = 0.1", "dt = 0.15"))
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "does not divide" in captured.err


def test_stage_with_missing_inputs_fails_cleanly(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(["infer", "--config", str(cfg_path), "--out", str(tmp_path / "empty")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("topinf: error:")


def test_infer_past_the_stored_basis_fails_cleanly(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    outdir = tmp_path / "short"
    common = ["--config", str(cfg_path), "--out", str(outdir)]
    for command in ("simulate-fom", "build-basis"):
        assert main([command] + common) == 0
    capsys.readouterr()
    code = main(["infer"] + common + ["--r", "2", "--r", "6"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("topinf: error:")
    assert "3 modes" in captured.err and "r = 6" in captured.err
    assert not (outdir / "operators" / "tensor_normal_r6.tpoi").exists()


def test_infer_on_a_version_one_basis_fails_cleanly(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    outdir = tmp_path / "old"
    common = ["--config", str(cfg_path), "--out", str(outdir)]
    for command in ("simulate-fom", "build-basis"):
        assert main([command] + common) == 0
    capsys.readouterr()
    path = outdir / "basis" / "u.tpoi"
    u = load_matrix(path)
    # the same basis in the former matrix record: rows and cols after the version
    path.write_bytes(struct.pack("<4sIQQ", b"TPOI", 1, *u.shape) + u.tobytes())
    code = main(["infer"] + common)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("topinf: error:")
    assert "version" in captured.err
    assert not (outdir / "operators" / "tensor_normal_r2.tpoi").exists()


def test_seed_override_changes_sampled_parameters(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    for seed, name in ((1, "a"), (2, "b")):
        assert main(["simulate-fom", "--config", str(cfg_path),
                     "--out", str(tmp_path / name), "--seed", str(seed)]) == 0
        capsys.readouterr()
    pa = load_matrix(tmp_path / "a" / "params_train.tpoi")
    pb = load_matrix(tmp_path / "b" / "params_train.tpoi")
    assert not np.allclose(pa, pb)

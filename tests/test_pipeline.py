"""End-to-end pipeline: artifacts, manifests, determinism, divergence handling."""

import dataclasses
import errno
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from topinf import (
    ReducedBasis,
    RomModel,
    build_heat_model,
    build_wave_model,
    default_config,
    hamiltonian_drift,
    intrusive_project,
    load_matrix,
    load_tensor,
    make_rng,
    projection_error,
    reduced_hamiltonian,
    relative_l2,
    run_pipeline,
    save_tensor,
    symmetric_part,
)
from topinf import pipeline, wave
from topinf.pipeline import STAGES, evaluate, simulate_rom


def small_heat_config():
    return dataclasses.replace(
        default_config("heat1d"),
        n_elements=24,
        tf=0.4,
        dt=0.05,
        n_train=5,
        n_test=2,
        reduced_dims=(2, 3),
        seed=3,
    )


def small_wave_config():
    return dataclasses.replace(
        default_config("wave1d"),
        n_elements=16,
        breakpoints=(),
        tf=0.4 * np.pi,
        dt=np.pi / 50.0,
        n_train=4,
        n_test=2,
        reduced_dims=(2,),
        seed=11,
    )


def artifact_bytes(outdir, skip=("manifest.json",)):
    out = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(outdir))] = path.read_bytes()
    return out


def assert_scores_match_full_order_oracle(cfg, outdir, manifest):
    """Recompute the manifest's errors and projection errors at full order.

    The oracle lifts each stored reduced run and measures it with
    ``relative_l2``; wave runs are scored on the position block through a
    ``"pod"`` basis of ``u_half`` and ``mass_w``.  Diverged runs are left
    out of the error pools, as in the pipeline.
    """
    if cfg.problem == "heat1d":
        mass = build_heat_model(cfg.n_elements, cfg.breakpoints).mass
        u_full = load_matrix(outdir / "basis" / "u.tpoi")
    else:
        mass = build_wave_model(cfg.n_elements, cfg.breakpoints).mass_w
        u_full = load_matrix(outdir / "basis" / "u_half.tpoi")
    n = u_full.shape[0]
    diverged = {(d["label"], d["r"], d["split"], d["index"]) for d in manifest["divergences"]}
    for r in cfg.reduced_dims:
        basis = ReducedBasis(u=u_full[:, :r], weight=mass, kind="pod")
        for split, count in (("train", cfg.n_train), ("test", cfg.n_test)):
            fom = [load_matrix(outdir / "fom" / f"{split}_{i:03d}.tpoi")[:n]
                   for i in range(count)]
            assert manifest["projection"][f"r{r}_{split}"] == pytest.approx(
                projection_error(fom, basis), rel=1e-10)
            for label in list(cfg.methods) + ["intrusive"]:
                kept = [i for i in range(count) if (label, r, split, i) not in diverged]
                rom = outdir / "rom" / f"{label}_r{r}"
                lifted = [basis.lift(load_matrix(rom / f"{split}_{i:03d}.tpoi")[:r])
                          for i in kept]
                oracle = relative_l2([fom[i] for i in kept], lifted, mass)
                assert manifest["errors"][f"{label}_r{r}_{split}"] == pytest.approx(
                    oracle, rel=1e-10)


def assert_drift_matches_energy_oracle(cfg, outdir, manifest):
    """Recompute every ``drift_max`` and ``energy`` entry through the reference energy.

    Learned models go through ``hamiltonian_drift`` on the ``symmetric_part``
    of their stored blocks (the symmetric fit as stored, flagged symmetric);
    the intrusive model is ``RomModel(t1=U^T K(mu) U, a2=I)`` with ``nu = 1``.
    The energy matrix of a sample is ``blockdiag(T1 mu^2, A2)`` of the same
    model; each block's smallest eigenvalue is checked.  Diverged runs are
    left out of the drift, as in the pipeline.
    """
    model = build_wave_model(cfg.n_elements, cfg.breakpoints)
    half = load_matrix(outdir / "basis" / "u_half.tpoi")
    diverged = {(d["label"], d["r"], d["split"], d["index"]) for d in manifest["divergences"]}
    for r in cfg.reduced_dims:
        for label in list(cfg.methods) + ["intrusive"]:
            if label != "intrusive":
                ops = outdir / "operators"
                learned = RomModel(t1=load_tensor(ops / f"t1_{label}_r{r}.tpoi"),
                                   a2=load_matrix(ops / f"a2_{label}_r{r}.tpoi"))
                learned = (dataclasses.replace(learned, t1_structure="symmetric",
                                               a2_structure="symmetric")
                           if label == "symmetric" else symmetric_part(learned))
            peak = 0.0
            for split, count in (("train", cfg.n_train), ("test", cfg.n_test)):
                params = load_matrix(outdir / f"params_{split}.tpoi")
                blocks = wave.wave_projected_stiffness(model, params, half[:, :r])
                lowest = []  # (position, momentum) per sample
                for i in range(count):
                    if label == "intrusive":
                        energy_model = RomModel(t1=blocks[i][:, :, None], a2=np.eye(r),
                                                t1_structure="symmetric",
                                                a2_structure="symmetric")
                        nu = np.ones(1)
                    else:
                        energy_model, nu = learned, params[:, i]
                    position = np.einsum("ijx,x->ij", energy_model.t1, nu**2)
                    lowest.append((np.linalg.eigvalsh(position)[0],
                                   np.linalg.eigvalsh(energy_model.a2)[0]))
                    if (label, r, split, i) in diverged:
                        continue
                    states = load_matrix(outdir / "rom" / f"{label}_r{r}" / f"{split}_{i:03d}.tpoi")
                    drift = hamiltonian_drift(energy_model, nu, states)
                    h0 = abs(reduced_hamiltonian(energy_model, nu, states[:, 0]))
                    peak = max(peak, float(np.max(drift)) / (h0 or 1.0))
                entry = manifest["energy"][f"{label}_r{r}_{split}"]
                pos, mom = np.min(lowest, axis=0)
                assert entry["position_min_eig"] == pytest.approx(pos, rel=1e-9, abs=1e-12)
                assert entry["momentum_min_eig"] == pytest.approx(mom, rel=1e-9, abs=1e-12)
                assert entry["indefinite"] == sum(min(low) < 0.0 for low in lowest)
            assert manifest["drift_max"][f"{label}_r{r}"] == pytest.approx(
                peak, rel=1e-9, abs=1e-12)


@pytest.fixture(scope="module")
def heat_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("heat_small")
    cfg = small_heat_config()
    return cfg, outdir, run_pipeline(cfg, outdir)


@pytest.fixture(scope="module")
def wave_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("wave_small")
    cfg = small_wave_config()
    return cfg, outdir, run_pipeline(cfg, outdir)


# ----------------------------------------------------------------------
# deterministic randomness


def test_make_rng_is_keyed_by_seed_and_stream():
    a = make_rng(5, 0).standard_normal(8)
    b = make_rng(5, 0).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, make_rng(5, 1).standard_normal(8))
    assert not np.allclose(a, make_rng(6, 0).standard_normal(8))
    assert type(make_rng(0, 0).bit_generator).__name__ == "Philox"


# ----------------------------------------------------------------------
# heat pipeline end to end


def test_heat_artifact_layout(heat_run):
    cfg, outdir, _ = heat_run
    assert (outdir / "config.cfg").is_file()
    for split, count in (("train", 5), ("test", 2)):
        params = load_matrix(outdir / f"params_{split}.tpoi")
        assert params.shape == (3, count)
        assert np.all((params >= cfg.param_lo) & (params <= cfg.param_hi))
        for i in range(count):
            states = load_matrix(outdir / "fom" / f"{split}_{i:03d}.tpoi")
            assert states.shape == (cfg.n_elements - 1, cfg.n_times)
    u = load_matrix(outdir / "basis" / "u.tpoi")
    assert u.shape == (cfg.n_elements - 1, max(cfg.reduced_dims))
    svals = load_tensor(outdir / "basis" / "svals.tpoi")
    assert svals.ndim == 1 and svals.shape[0] >= max(cfg.reduced_dims)
    for r in cfg.reduced_dims:
        for method in cfg.methods:
            tensor = load_tensor(outdir / "operators" / f"tensor_{method}_r{r}.tpoi")
            assert tensor.shape == (r, r, 3)
        for label in list(cfg.methods) + ["intrusive"]:
            for split, count in (("train", 5), ("test", 2)):
                for i in range(count):
                    path = outdir / "rom" / f"{label}_r{r}" / f"{split}_{i:03d}.tpoi"
                    assert load_matrix(path).shape == (r, cfg.n_times)


def test_heat_manifest_contents(heat_run):
    cfg, outdir, manifest = heat_run
    on_disk = json.loads((outdir / "manifest.json").read_text())
    assert on_disk == manifest
    assert set(manifest["stages"]) == {name for name, _ in STAGES}
    expected_cfg = {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in dataclasses.asdict(cfg).items()
    }
    assert manifest["config"] == expected_cfg
    for r in cfg.reduced_dims:
        assert manifest["agreement"][f"r{r}"] < 1e-8
        for method in cfg.methods:
            diag = manifest["inference"][f"{method}_r{r}"]
            assert diag["cond"] >= 1.0 and diag["residual"] >= 0.0
        for split in ("train", "test"):
            assert 0.0 < manifest["projection"][f"r{r}_{split}"] < 1.0
            for label in list(cfg.methods) + ["intrusive"]:
                err = manifest["errors"][f"{label}_r{r}_{split}"]
                assert 0.0 < err < 1.0
    assert manifest["divergences"] == []
    assert manifest["energy"] == {}  # wave only


def test_heat_error_table(heat_run):
    cfg, outdir, manifest = heat_run
    lines = (outdir / "report" / "errors.csv").read_text().splitlines()
    assert lines[0] == "split,r,method,relative_l2,projection_error"
    assert len(lines) == 1 + 2 * len(cfg.reduced_dims) * 3  # splits x r x labels
    for line in lines[1:]:
        split, r, method, err, proj = line.split(",")
        assert split in ("train", "test")
        assert int(r) in cfg.reduced_dims
        assert method in ("normal", "lstsq", "intrusive")
        # errors never beat the projection lower bound (same norm, same basis)
        assert float(err) >= float(proj) - 1e-12
    summary = (outdir / "report" / "summary.txt").read_text()
    assert "relative L2 errors" in summary and "diverged reduced runs: 0" in summary


@pytest.mark.parametrize("run", ["heat_run", "wave_run"])
def test_scores_match_full_order_oracle(run, request):
    cfg, outdir, manifest = request.getfixturevalue(run)
    assert_scores_match_full_order_oracle(cfg, outdir, manifest)


def test_heat_exact_derivative_recovery(tmp_path):
    cfg = dataclasses.replace(small_heat_config(), derivative="exact")
    manifest = run_pipeline(cfg, tmp_path)
    for r in cfg.reduced_dims:
        for method in cfg.methods:
            assert manifest["recovery"][f"{method}_r{r}"] < 1e-8
    # the stored fit matches a from-scratch Galerkin projection of the tensor
    model = build_heat_model(cfg.n_elements, cfg.breakpoints)
    u_full = load_matrix(tmp_path / "basis" / "u.tpoi")
    for r in cfg.reduced_dims:
        basis = ReducedBasis(u=u_full[:, :r], weight=model.mass, kind="pod")
        reference = intrusive_project(-model.stiffness, basis)
        learned = load_tensor(tmp_path / "operators" / f"tensor_normal_r{r}.tpoi")
        dist = np.sqrt(np.sum((learned - reference) ** 2) / np.sum(reference**2))
        assert dist < 1e-8


# ----------------------------------------------------------------------
# wave pipeline end to end


def test_wave_artifact_layout_and_drift(wave_run):
    cfg, outdir, manifest = wave_run
    n = cfg.n_elements
    u = load_matrix(outdir / "basis" / "u.tpoi")
    half = load_matrix(outdir / "basis" / "u_half.tpoi")
    r = cfg.reduced_dims[0]
    assert u.shape == (2 * n, 2 * r) and half.shape == (n, r)
    np.testing.assert_array_equal(u[:n, :r], half)
    np.testing.assert_array_equal(u[n:, r:], half)
    assert np.all(u[:n, r:] == 0.0) and np.all(u[n:, :r] == 0.0)
    t1 = load_tensor(outdir / "operators" / f"t1_symmetric_r{r}.tpoi")
    a2 = load_matrix(outdir / "operators" / f"a2_symmetric_r{r}.tpoi")
    assert t1.shape == (r, r, 1) and a2.shape == (r, r)
    np.testing.assert_array_equal(t1, t1.transpose(1, 0, 2))
    np.testing.assert_array_equal(a2, a2.T)
    # energy drift: structured fits and the intrusive model conserve, in
    # contrast with the raw least-squares fit (scored via its symmetric part)
    assert manifest["drift_max"][f"symmetric_r{r}"] < 1e-9
    assert manifest["drift_max"][f"intrusive_r{r}"] < 1e-9
    assert manifest["drift_max"][f"lstsq_r{r}"] >= 0.0
    lines = (outdir / "report" / f"drift_r{r}.csv").read_text().splitlines()
    assert lines[0] == "time,symmetric,lstsq,intrusive"
    assert len(lines) == 1 + cfg.n_times
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == cfg.t0 and all(v == 0.0 for v in first[1:])


def test_wave_drift_and_energy_match_the_reference_energy(wave_run):
    assert_drift_matches_energy_oracle(*wave_run)


def test_indefinite_learned_energy_is_reported(tmp_path):
    # at seed 4 the finite-difference symmetric fit at r=10 has an indefinite
    # position energy at one test sample; it is reported, labelled and scored
    cfg = dataclasses.replace(default_config("wave1d"), seed=4)
    manifest = run_pipeline(cfg, tmp_path)
    energy = manifest["energy"]
    assert energy["symmetric_r10_test"]["indefinite"] == 1
    assert energy["symmetric_r10_test"]["position_min_eig"] < -4.0
    assert energy["symmetric_r10_test"]["momentum_min_eig"] > 0.0
    assert energy["symmetric_r10_train"]["indefinite"] == 0
    # the intrusive momentum block is the identity; its position blocks are the
    # Galerkin blocks U^T K(mu) U, whose spectrum the momentum block must not hide
    model = build_wave_model(cfg.n_elements, cfg.breakpoints)
    half = load_matrix(tmp_path / "basis" / "u_half.tpoi")
    for r in cfg.reduced_dims:
        for split in ("train", "test"):
            entry = energy[f"intrusive_r{r}_{split}"]
            blocks = wave.wave_projected_stiffness(
                model, load_matrix(tmp_path / f"params_{split}.tpoi"), half[:, :r])
            assert entry["indefinite"] == 0
            assert entry["momentum_min_eig"] == 1.0
            assert entry["position_min_eig"] == pytest.approx(
                np.linalg.eigvalsh(blocks)[:, 0].min(), rel=1e-9)
    assert np.isfinite(manifest["errors"]["symmetric_r10_test"])
    lines = (tmp_path / "report" / "summary.txt").read_text().splitlines()
    flagged = [line.split(":")[0].strip() for line in lines if line.endswith("INDEFINITE")]
    assert "symmetric_r10" in flagged and "intrusive_r10" not in flagged


def test_wave_single_subdomain_exact_recovery(tmp_path):
    # with one subdomain the projected operator is exactly affine in mu^2,
    # so exact-derivative inference reproduces the intrusive reference
    cfg = dataclasses.replace(small_wave_config(), derivative="exact")
    manifest = run_pipeline(cfg, tmp_path)
    r = cfg.reduced_dims[0]
    for method in cfg.methods:
        assert manifest["recovery"][f"{method}_r{r}"] < 1e-8


@pytest.mark.parametrize("problem", ["heat1d", "wave1d"])
def test_stages_form_galerkin_quantities_once(problem, tmp_path, monkeypatch):
    # the basis is nested: each stage forms its Galerkin quantities once with
    # the largest basis and slices them per r; evaluate forms the wave blocks
    # once for both splits, and no stage forms a full-order K(mu)
    base = small_heat_config() if problem == "heat1d" else small_wave_config()
    cfg = dataclasses.replace(base, derivative="exact", reduced_dims=(2, 3))
    calls = {"galerkin": 0, "wave_stiffness": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("intrusive_project", "wave_projected_stiffness"):
        monkeypatch.setattr(pipeline, name, counting("galerkin", getattr(pipeline, name)))
    stiffness = counting("wave_stiffness", wave.wave_stiffness)
    monkeypatch.setattr(wave, "wave_stiffness", stiffness)
    monkeypatch.setattr(pipeline, "wave_stiffness", stiffness)
    for (name, stage), expected in zip(STAGES, (0, 0, 1, 1, int(problem == "wave1d"))):
        calls.update(galerkin=0, wave_stiffness=0)
        stage(cfg, tmp_path)
        assert calls == {"galerkin": expected, "wave_stiffness": 0}, name


# ----------------------------------------------------------------------
# determinism and stage decomposition


def test_reruns_are_byte_identical(tmp_path):
    cfg = small_heat_config()
    run_pipeline(cfg, tmp_path / "one")
    run_pipeline(cfg, tmp_path / "two")
    first = artifact_bytes(tmp_path / "one")
    second = artifact_bytes(tmp_path / "two")
    assert first.keys() == second.keys()
    assert all(first[k] == second[k] for k in first)


def test_stagewise_run_matches_one_shot(tmp_path):
    cfg = small_wave_config()
    run_pipeline(cfg, tmp_path / "oneshot")
    staged = tmp_path / "staged"
    staged.mkdir()
    for _, stage in STAGES:
        stage(cfg, staged)
    skip = ("manifest.json", "config.cfg")  # only run_pipeline writes the config copy
    assert artifact_bytes(staged, skip) == artifact_bytes(tmp_path / "oneshot", skip)


# ----------------------------------------------------------------------
# divergence handling


def _poison_normal_r2(cfg, source, outdir, keep_rom=False):
    """Copy a finished run and poison its r=2 normal fit.

    The copy keeps the ROM outputs only with ``keep_rom``.  Train sample 0
    then gets an exactly singular time step: (T nu) = (2/dt) I turns the
    implicit step matrix to zero.  Returns the original tensor.
    """
    shutil.copytree(source, outdir)
    if not keep_rom:
        shutil.rmtree(outdir / "rom")
    shutil.rmtree(outdir / "report")
    path = outdir / "operators" / "tensor_normal_r2.tpoi"
    original = load_tensor(path)
    params = load_matrix(outdir / "params_train.tpoi")
    tensor = np.zeros((2, 2, 3))
    tensor[:, :, 0] = (2.0 / cfg.dt) / params[0, 0] * np.eye(2)
    save_tensor(path, tensor)
    return original


def test_diverged_rom_runs_are_recorded_and_skipped(heat_run, tmp_path):
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    _poison_normal_r2(cfg, source, outdir)
    simulate_rom(cfg, outdir)
    evaluate(cfg, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["divergences"] == [
        {"label": "normal", "r": 2, "split": "train", "index": 0, "step": 1}
    ]
    assert not (outdir / "rom" / "normal_r2" / "train_000.tpoi").exists()
    assert (outdir / "rom" / "normal_r2" / "train_001.tpoi").exists()
    # evaluation pools the surviving samples and the summary reports the event
    assert np.isfinite(manifest["errors"]["normal_r2_train"])
    assert_scores_match_full_order_oracle(cfg, outdir, manifest)
    summary = (outdir / "report" / "summary.txt").read_text()
    assert "diverged reduced runs: 1" in summary
    assert "normal_r2/train_000 at step 1" in summary


def test_rerun_stages_replace_their_manifest_fields(heat_run, tmp_path):
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    original = _poison_normal_r2(cfg, source, outdir)
    simulate_rom(cfg, outdir)
    evaluate(cfg, outdir)
    # a clean rerun clears the divergence instead of inheriting it
    save_tensor(outdir / "operators" / "tensor_normal_r2.tpoi", original)
    simulate_rom(cfg, outdir)
    evaluate(cfg, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["divergences"] == []
    assert (outdir / "rom" / "normal_r2" / "train_000.tpoi").exists()
    assert "diverged reduced runs: 0" in (outdir / "report" / "summary.txt").read_text()
    # an evaluation over fewer r keeps no error keys of the dropped r
    evaluate(dataclasses.replace(cfg, reduced_dims=(2,)), outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert "normal_r2_train" in manifest["errors"]
    assert not any("_r3_" in key for key in manifest["errors"])


def test_diverged_rerun_removes_the_earlier_run_states(heat_run, tmp_path):
    # a run that diverges on a rerun leaves no states of the earlier,
    # converged run behind, so rom/ agrees with the manifest's divergences
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    _poison_normal_r2(cfg, source, outdir, keep_rom=True)
    assert (outdir / "rom" / "normal_r2" / "train_000.tpoi").exists()
    simulate_rom(cfg, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert [(d["label"], d["r"], d["split"], d["index"]) for d in manifest["divergences"]] == [
        ("normal", 2, "train", 0)
    ]
    assert not (outdir / "rom" / "normal_r2" / "train_000.tpoi").exists()
    assert (outdir / "rom" / "normal_r2" / "train_001.tpoi").exists()


def test_rerun_over_fewer_r_removes_the_dropped_r_artifacts(tmp_path):
    # rom/ and report/ hold only the (label, r) of the last sweep, in
    # agreement with manifest.json
    cfg = dataclasses.replace(small_wave_config(), reduced_dims=(2, 3))
    run_pipeline(cfg, tmp_path)
    assert (tmp_path / "report" / "drift_r3.csv").exists()
    assert (tmp_path / "rom" / "intrusive_r3").is_dir()
    fewer = dataclasses.replace(cfg, reduced_dims=(2,))
    simulate_rom(fewer, tmp_path)
    evaluate(fewer, tmp_path)
    labels = list(cfg.methods) + ["intrusive"]
    assert sorted(p.name for p in (tmp_path / "rom").iterdir()) == sorted(
        f"{label}_r2" for label in labels)
    assert sorted(p.name for p in (tmp_path / "report").glob("drift_r*.csv")) == ["drift_r2.csv"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["drift_max"]) == sorted(f"{label}_r2" for label in labels)


def test_rerun_with_fewer_samples_removes_the_surplus_files(tmp_path):
    # fom/ and rom/ hold only the samples of the last run's counts, in
    # agreement with manifest.json
    cfg = small_heat_config()
    run_pipeline(cfg, tmp_path)
    assert (tmp_path / "fom" / "train_004.tpoi").exists()
    fewer = dataclasses.replace(cfg, n_train=3, n_test=0)
    run_pipeline(fewer, tmp_path)
    expected = [f"train_{i:03d}.tpoi" for i in range(3)]
    assert sorted(p.name for p in (tmp_path / "fom").iterdir()) == expected
    assert sorted(p.name for p in tmp_path.glob("params_*.tpoi")) == ["params_train.tpoi"]
    for rom in (tmp_path / "rom").iterdir():
        assert sorted(p.name for p in rom.iterdir()) == expected, rom.name
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["n_train"] == 3


@pytest.mark.parametrize("stage", [pipeline.infer, simulate_rom, evaluate])
def test_stages_refuse_a_basis_smaller_than_the_requested_sizes(stage, tmp_path):
    # a basis of 3 modes must not answer for r = 6 under the name *_r6
    cfg = small_heat_config()
    pipeline.simulate_fom(cfg, tmp_path)
    pipeline.build_basis(cfg, tmp_path)
    larger = dataclasses.replace(cfg, reduced_dims=(2, 6))
    with pytest.raises(ValueError, match=r"3 modes.*r = 6.*rerun build-basis"):
        stage(larger, tmp_path)
    assert not list(tmp_path.rglob("*_r6*"))


# ----------------------------------------------------------------------
# manifest writes and the benchmark tracer's contract


def test_failed_manifest_write_keeps_the_previous_manifest(heat_run, tmp_path, monkeypatch):
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    before = (outdir / "manifest.json").read_text()
    real_open = Path.open

    class HalfWriter:
        # writes half of what it is given, then fails like a full disk
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", failing_open)
    with pytest.raises(OSError):
        pipeline._record_stage(cfg, outdir, "evaluate", 1.0, updates={"errors": {}})
    monkeypatch.undo()
    assert (outdir / "manifest.json").read_text() == before
    assert json.loads(before)["errors"]
    assert sorted(p.name for p in outdir.glob("manifest*")) == ["manifest.json"]


def test_benchmark_tracer_finds_every_layer_it_wraps(monkeypatch):
    # benchmarks/tracing.py replaces layers at the module attributes where
    # callers look them up; a name missing there breaks traced runs
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    attributes = tracing.wrapped_attributes()
    assert (pipeline, "wave_stiffness") in attributes
    for owner, attr in attributes:
        assert attr in vars(owner), f"{getattr(owner, '__name__', owner)}.{attr}"

"""End-to-end pipeline: artifacts, manifests, determinism, divergence handling."""

import dataclasses
import errno
import importlib.util
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from topinf import (
    NumericError,
    ReducedBasis,
    RomModel,
    Surrogate,
    build_heat_model,
    build_wave_model,
    default_config,
    format_config,
    hamiltonian_drift,
    heat_initial_state,
    heat_operator,
    heat_step,
    intrusive_project,
    load_matrix,
    load_tensor,
    make_rng,
    projection_error,
    reduced_hamiltonian,
    relative_l2,
    run_pipeline,
    sample_conductivities,
    sample_wave_speeds,
    save_matrix,
    save_tensor,
    symmetric_part,
    wave_projected_stiffness,
    wave_stiffness,
    wave_step,
    weighted_norm_sq,
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
            fom = [load_matrix(outdir / "fom" / f"{split}_{i:03d}.tpoi").T[:n]
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
    a = make_rng(5, 0).uniform(0.0, 1.0, (8,))
    b = make_rng(5, 0).uniform(0.0, 1.0, (8,))
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, make_rng(5, 1).uniform(0.0, 1.0, (8,)))
    assert not np.allclose(a, make_rng(6, 0).uniform(0.0, 1.0, (8,)))


def numpy_philox(seed, stream):
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, 5, 13, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_make_rng_draws_numpy_philox_bits(seed, stream):
    # three calls in a row on one generator, none a multiple of four words,
    # so each call starts part-way through a block
    ours, oracle = make_rng(seed, stream), numpy_philox(seed, stream)
    for lo, hi, size in ((0.0, 1.0, (7,)), (np.log(0.1), np.log(10.0), (3, 5)), (-2.5, 4.0, (2, 1))):
        got, want = ours.uniform(lo, hi, size), oracle.uniform(lo, hi, size)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_WITHOUT_NUMPY_RANDOM = """
import sys
import typing
sys.modules["numpy.random"] = None  # any import of it raises
sys.path.insert(0, sys.argv[1])
import numpy as np
import topinf

for name in sys.argv[2:]:
    topinf.run_pipeline(topinf.load_config_file(f"{name}.cfg"), name)
topinf.Surrogate.load(sys.argv[2]).run("intrusive", 2, np.full((3, 2), 0.5))
typing.get_type_hints(topinf.sample_conductivities)
typing.get_type_hints(topinf.sample_wave_speeds)
typing.get_type_hints(topinf.make_rng)
"""


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="NumPy 1.x imports numpy.random with numpy itself")
def test_a_whole_study_runs_without_numpy_random(tmp_path):
    # the stages and a query draw and run with numpy.random blocked; the
    # parameter files hold numpy's Philox draws all the same
    configs = {"heat": small_heat_config(), "wave": small_wave_config()}
    for name, cfg in configs.items():
        (tmp_path / f"{name}.cfg").write_text(format_config(cfg))
    src = str(Path(pipeline.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY_RANDOM, src, *configs],
                            cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name, cfg in configs.items():
        sample = (sample_conductivities if cfg.sampling == "log_uniform" else sample_wave_speeds)
        for split, stream, count in (("train", 0, cfg.n_train), ("test", 1, cfg.n_test)):
            expected = tmp_path / f"{name}_{split}_expected.tpoi"
            save_matrix(expected, sample(numpy_philox(cfg.seed, stream), count,
                                         cfg.n_subdomains, cfg.param_lo, cfg.param_hi))
            stored = tmp_path / name / f"params_{split}.tpoi"
            assert stored.read_bytes() == expected.read_bytes(), f"{name} {split}"


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
            assert states.shape == (cfg.n_times, cfg.n_elements - 1)
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


@pytest.mark.parametrize("run", ["heat_run", "wave_run"])
def test_scored_runs_take_banded_mass_products(run, request):
    # C = U^T M Q and both M-norms go through the mass bands; they match the
    # dense-weight forms U^T (M Q) and weighted_norm_sq to 1e-13 relative
    cfg, outdir, _ = request.getfixturevalue(run)
    surrogate = Surrogate(cfg, outdir)
    u, mass = surrogate.basis.block, surrogate.basis.weight
    for i in range(cfg.n_train):
        states = load_matrix(outdir / "fom" / f"train_{i:03d}.tpoi").T
        q = states[: u.shape[0]]
        c, residual, norm = pipeline._scored_run(states, u, surrogate.model)
        dense = u.T @ (mass @ q)
        np.testing.assert_allclose(c, dense, rtol=0, atol=1e-13 * np.max(np.abs(dense)))
        assert residual == pytest.approx(weighted_norm_sq(q - u @ c, mass), rel=1e-13)
        assert norm == pytest.approx(weighted_norm_sq(q, mass), rel=1e-13)


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

    for name in ("heat_projected_stiffness", "wave_projected_stiffness"):
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


@pytest.mark.parametrize("change", [{"seed": 4}, {"breakpoints": (2.0, 4.0)}, {"dt": 0.025},
                                    None], ids=["seed", "breakpoints", "dt", "missing"])
def test_stages_refuse_full_order_data_of_another_configuration(change, heat_run, tmp_path):
    # the later stages must not pool trajectories that simulate_fom wrote for
    # another seed, subdomain layout or time step, nor data that record none
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    if change is None:
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifest.pop("full_order", None)
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        other, match = cfg, "records no full-order configuration; rerun simulate-fom"
    else:
        other = dataclasses.replace(cfg, **change)
        (name,) = change
        match = rf"simulated with {name} .*\(configured .*\); rerun simulate-fom"
    before = artifact_bytes(outdir, skip=())
    for _, stage in STAGES[1:]:
        with pytest.raises(ValueError, match=match):
            stage(other, outdir)
    assert artifact_bytes(outdir, skip=()) == before


@pytest.mark.parametrize("change", [{"derivative": "exact"}, {"methods": ("normal", "symmetric")},
                                    None], ids=["derivative", "method", "missing"])
def test_stages_refuse_operators_inferred_for_another_configuration(change, heat_run, tmp_path):
    # infer fitted normal and lstsq from finite differences: simulate_rom and
    # evaluate must not integrate or score those operators as exact-derivative
    # fits, nor look for a method that was never fitted
    cfg, source, _ = heat_run
    assert (cfg.derivative, cfg.methods) == ("finite_difference", ("normal", "lstsq"))
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    if change is None:
        manifest = json.loads((outdir / "manifest.json").read_text())
        del manifest["operators"]
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        other, match = cfg, "records no operator configuration; rerun infer"
    else:
        other = dataclasses.replace(cfg, **change)
        (name,) = change
        match = rf"operators were inferred with {name} .*\(configured .*\); rerun infer"
    before = artifact_bytes(outdir, skip=())
    for stage in (simulate_rom, evaluate):
        with pytest.raises(ValueError, match=match):
            stage(other, outdir)
    assert artifact_bytes(outdir, skip=()) == before


def test_stages_accept_a_subset_of_the_inferred_methods(heat_run, tmp_path):
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["operators"] == {"methods": ["normal", "lstsq"], "reduced_dims": [2, 3],
                                     "derivative": "finite_difference",
                                     "basis": manifest["basis"]}
    assert manifest["rom"] == manifest["operators"]
    fewer = dataclasses.replace(cfg, methods=("lstsq",))
    evaluate(fewer, outdir)  # over a subset of the simulated methods
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert sorted(manifest["errors"]) == sorted(
        f"{label}_r{r}_{split}" for label in ("lstsq", "intrusive") for r in cfg.reduced_dims
        for split in ("train", "test"))
    simulate_rom(fewer, outdir)
    evaluate(fewer, outdir)
    assert sorted(p.name for p in (outdir / "rom").iterdir()) == [
        f"{label}_r{r}" for label in ("intrusive", "lstsq") for r in cfg.reduced_dims]


@pytest.mark.parametrize("missing", [False, True], ids=["derivative", "missing"])
def test_evaluate_refuses_reduced_runs_of_operators_inferred_since(missing, heat_run, tmp_path):
    # infer rerun with exact derivatives replaces the operators; the reduced
    # runs of the finite-difference operators must not be scored under the
    # exact-derivative record, nor runs that record no configuration
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    exact = dataclasses.replace(cfg, derivative="exact")
    pipeline.infer(exact, outdir)
    if missing:
        manifest = json.loads((outdir / "manifest.json").read_text())
        del manifest["rom"]
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        match = "records no reduced-order configuration; rerun simulate-rom"
    else:
        match = (r"reduced runs were simulated with derivative 'finite_difference' "
                 r"\(configured 'exact'\); rerun simulate-rom")
    before = artifact_bytes(outdir, skip=())
    with pytest.raises(ValueError, match=match):
        evaluate(exact, outdir)
    assert artifact_bytes(outdir, skip=()) == before
    simulate_rom(exact, outdir)
    evaluate(exact, outdir)
    fresh = run_pipeline(exact, tmp_path / "fresh")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["errors"] == fresh["errors"]


def test_simulate_rom_refuses_a_size_that_infer_did_not_fit(heat_run, tmp_path):
    # infer rerun at r = 2 only: simulate_rom at r = (2, 3) must name the
    # stage to rerun before it empties rom/, not fail on a missing r = 3 file
    cfg, source, _ = heat_run
    assert cfg.reduced_dims == (2, 3)
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    pipeline.infer(dataclasses.replace(cfg, reduced_dims=(2,)), outdir)
    before = artifact_bytes(outdir, skip=())
    with pytest.raises(ValueError, match=r"operators were inferred with reduced_dims \[2\] "
                                         r"\(configured \[2, 3\]\); rerun infer"):
        simulate_rom(cfg, outdir)
    assert artifact_bytes(outdir, skip=()) == before
    with pytest.raises(ValueError, match=r"no operators of size 3 were inferred "
                                         r"\(inferred: 2\); rerun infer"):
        Surrogate.load(outdir).run("normal", 3, load_matrix(outdir / "params_test.tpoi"))


def test_evaluate_refuses_a_size_that_simulate_rom_did_not_run(heat_run, tmp_path):
    # simulate_rom rerun at r = 2 only: evaluate at r = (2, 3) must name the
    # stage to rerun before it empties report/, not fail on a missing r = 3 run
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    simulate_rom(dataclasses.replace(cfg, reduced_dims=(2,)), outdir)
    before = artifact_bytes(outdir, skip=())
    with pytest.raises(ValueError, match=r"reduced runs were simulated with reduced_dims \[2\] "
                                         r"\(configured \[2, 3\]\); rerun simulate-rom"):
        evaluate(cfg, outdir)
    assert artifact_bytes(outdir, skip=()) == before
    evaluate(dataclasses.replace(cfg, reduced_dims=(2,)), outdir)  # a simulated subset is scored


def test_stages_refuse_a_basis_built_from_other_full_order_data(heat_run, tmp_path):
    # simulate_fom rerun at another seed replaces the training data; the basis
    # of the old data must not project or score the new ones
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    other = dataclasses.replace(cfg, seed=cfg.seed + 1)
    pipeline.simulate_fom(other, outdir)
    before = artifact_bytes(outdir, skip=())
    match = (rf"basis was built from full-order data with seed {cfg.seed} "
             rf"\(configured {other.seed}\); rerun build-basis")
    for stage in (pipeline.infer, simulate_rom, evaluate):
        with pytest.raises(ValueError, match=match):
            stage(other, outdir)
    assert artifact_bytes(outdir, skip=()) == before


def test_stages_refuse_a_missing_basis_record(heat_run, tmp_path):
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    del manifest["basis"]
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    before = artifact_bytes(outdir, skip=())
    for stage in (pipeline.infer, simulate_rom, evaluate):
        with pytest.raises(ValueError, match="records no basis configuration; rerun build-basis"):
            stage(cfg, outdir)
    assert artifact_bytes(outdir, skip=()) == before


def test_stages_refuse_operators_fitted_in_another_basis(heat_run, tmp_path):
    # simulate_fom and build_basis rerun at another seed: the stored operators
    # were fitted in the old basis and must not be integrated in the new one
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    other = dataclasses.replace(cfg, seed=cfg.seed + 1)
    pipeline.simulate_fom(other, outdir)
    pipeline.build_basis(other, outdir)
    before = artifact_bytes(outdir, skip=())
    match = (rf"operators were inferred with basis seed {cfg.seed} "
             rf"\(configured {other.seed}\); rerun infer")
    for stage in (simulate_rom, evaluate):
        with pytest.raises(ValueError, match=match):
            stage(other, outdir)
    assert artifact_bytes(outdir, skip=()) == before


def test_a_stage_that_stops_part_way_leaves_no_record(heat_run, tmp_path, monkeypatch):
    # simulate_fom at another seed writes the training files, then fails on
    # the test split: the seed-3 record must not vouch for the seed-4 files
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    real_save = pipeline.save_matrix

    def full_disk(path, array):
        if "test" in Path(path).name:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_save(path, array)

    monkeypatch.setattr(pipeline, "save_matrix", full_disk)
    with pytest.raises(OSError):
        pipeline.simulate_fom(dataclasses.replace(cfg, seed=cfg.seed + 1), outdir)
    monkeypatch.undo()
    assert "full_order" not in json.loads((outdir / "manifest.json").read_text())
    with pytest.raises(ValueError, match="records no full-order configuration; "
                                         "rerun simulate-fom"):
        pipeline.build_basis(cfg, outdir)


@pytest.mark.parametrize("stage", ["build_basis", "infer", "evaluate"])
def test_stages_refuse_a_state_major_full_order_file(stage, heat_run, tmp_path):
    # a full-order file written state-major, (n_state, n_times), as the
    # files were before they turned time-major, is refused, not read
    # transposed
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    path = outdir / "fom" / "train_001.tpoi"
    save_matrix(path, load_matrix(path).T)
    with pytest.raises(ValueError, match=r"fom/train_001.tpoi holds a 23 x 9 record, not 9 "
                                         r"snapshots of 23 states; rerun simulate-fom"):
        getattr(pipeline, stage)(cfg, outdir)


@pytest.mark.parametrize("n_times, lengths", [(2, [2]), (3, [2, 1]), (4, [3, 1]),
                                              (10, [4, 3, 3]), (17, [5, 4, 4, 4]),
                                              (26, [6, 5, 5, 5, 5])])
def test_fom_files_are_the_states_stepped_one_at_a_time(n_times, lengths, tmp_path, monkeypatch):
    # the stage steps in time blocks of isqrt(n_times) steps, all in one
    # buffer: the first block holds x0 and isqrt(n_times) steps, each later
    # one the next isqrt(n_times) (the last may be shorter), and each block
    # is one write to every file; the files hold the states stepped one at
    # a time by the same step, bit for bit
    base = small_heat_config()
    cfg = dataclasses.replace(base, tf=base.t0 + (n_times - 1) * base.dt,
                              derivative="exact" if n_times < 3 else base.derivative)
    assert cfg.n_times == n_times
    steps, writes = [], []
    make_step, writer = pipeline.heat_step, pipeline.RowWriter

    def recorded(*args):
        steps.append(make_step(*args))
        return steps[-1]

    class Recorded(writer):
        def write(self, block):
            writes.append(len(block))
            super().write(block)

    monkeypatch.setattr(pipeline, "heat_step", recorded)
    monkeypatch.setattr(pipeline, "RowWriter", Recorded)
    pipeline.simulate_fom(cfg, tmp_path)
    runs = [("train", i) for i in range(cfg.n_train)] + [("test", i) for i in range(cfg.n_test)]
    assert len(steps) == 1 and writes == [k for k in lengths for _ in runs]
    x0 = heat_initial_state(build_heat_model(cfg.n_elements, cfg.breakpoints))
    states = np.empty((n_times, x0.shape[0], len(runs)))
    states[0] = x0[:, None]
    for k in range(1, n_times):
        steps[0](states[k - 1], states[k])
    for s, (split, i) in enumerate(runs):
        np.testing.assert_array_equal(load_matrix(tmp_path / "fom" / f"{split}_{i:03d}.tpoi"),
                                      states[:, :, s])


# the time blocks of n_times = 9 hold steps 0-3, 4-6 and 7-8
@pytest.mark.parametrize("first", [2, 3, 4, 7])
def test_a_full_order_run_that_turns_non_finite_stops_the_stage(first, heat_run, tmp_path,
                                                                monkeypatch):
    # runs train/4 and test/1 (columns 4 and 6) turn NaN at step ``first``,
    # train/1 (column 1) a step later: the stage names the earliest, first
    # in sample order among equals, and records nothing
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    make_step = pipeline.heat_step

    def diverging(*args):
        step, times = make_step(*args), iter(range(1, cfg.n_times))

        def bad_step(x, out):
            step(x, out)
            t = next(times)  # the time index of ``out``
            if t == first:
                out[3, [4, 6]] = np.nan
            if t == first + 1:
                out[0, 1] = np.inf

        return bad_step

    monkeypatch.setattr(pipeline, "heat_step", diverging)
    with pytest.raises(NumericError, match=rf"^full-order run train/4 diverged at step {first}$"):
        pipeline.simulate_fom(cfg, outdir)
    monkeypatch.undo()
    assert "full_order" not in json.loads((outdir / "manifest.json").read_text())
    with pytest.raises(ValueError, match="records no full-order configuration; "
                                         "rerun simulate-fom"):
        pipeline.build_basis(cfg, outdir)


def test_infer_over_fewer_methods_and_sizes_removes_the_dropped_operators(heat_run, tmp_path):
    cfg, source, _ = heat_run
    assert (cfg.methods, cfg.reduced_dims) == (("normal", "lstsq"), (2, 3))
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    pipeline.infer(dataclasses.replace(cfg, methods=("lstsq",), reduced_dims=(2,)), outdir)
    assert sorted(p.name for p in (outdir / "operators").iterdir()) == ["tensor_lstsq_r2.tpoi"]


@pytest.mark.parametrize("problem", ["heat1d", "wave1d"])
def test_each_stage_empties_what_it_owns(problem, tmp_path):
    # files placed where a stage writes are removed when it reruns, and the
    # rerun's artifacts are those of a fresh run
    cfg = small_heat_config() if problem == "heat1d" else small_wave_config()
    run_pipeline(cfg, tmp_path / "fresh")
    outdir = tmp_path / "run"
    run_pipeline(cfg, outdir)
    strays = [outdir / "params_extra.tpoi", outdir / "fom" / "extra",
              outdir / "basis" / "extra", outdir / "operators" / "extra",
              outdir / "rom" / "extra", outdir / "report" / "extra"]
    for path in strays:
        path.write_bytes(b"stray")
    (outdir / "rom" / "normal_r9").mkdir()
    for _, stage in STAGES:
        stage(cfg, outdir)
    assert artifact_bytes(outdir) == artifact_bytes(tmp_path / "fresh")
    assert not (outdir / "rom" / "normal_r9").exists()


def test_a_larger_basis_serves_smaller_sizes(tmp_path):
    cfg = small_heat_config()
    pipeline.simulate_fom(cfg, tmp_path)
    pipeline.build_basis(cfg, tmp_path)
    smaller = dataclasses.replace(cfg, reduced_dims=(2,))
    for _, stage in STAGES[2:]:
        stage(smaller, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["errors"]) == sorted(
        f"{label}_r2_{split}" for label in ("normal", "lstsq", "intrusive")
        for split in ("train", "test"))


@pytest.mark.parametrize("problem", ["heat1d", "wave1d"])
def test_basis_build_holds_the_training_data_at_most_twice(problem, tmp_path):
    # build_basis streams the training files through the POD: it holds one
    # group of at least 4 N snapshots and the carried N x N factor, twice
    # during the group's QR (the stack and NumPy's input copy; the gufunc's
    # LAPACK buffer comes from malloc, which tracemalloc does not see).
    # The traced peak is about 0.58 times the training data on default
    # heat1d and 0.41 on default wave1d.
    import tracemalloc

    cfg = dataclasses.replace(default_config(problem), n_test=0)
    pipeline.simulate_fom(cfg, tmp_path)
    pipeline.build_basis(cfg, tmp_path)  # first-call imports outside the trace
    pooled_bytes = sum(load_matrix(tmp_path / "fom" / f"train_{i:03d}.tpoi").nbytes
                       for i in range(cfg.n_train))
    tracemalloc.start()
    try:
        pipeline.build_basis(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * pooled_bytes


@pytest.mark.parametrize("problem", ["heat1d", "wave1d"])
def test_fom_simulation_holds_one_time_block(problem, tmp_path):
    # the sweep hands out time blocks of isqrt(n_times) steps in one reused
    # buffer, and each block is appended to the sample files before the
    # next is stepped: the stage holds a block and the factored step
    # matrices, about 0.12 (heat1d) and 0.07 (wave1d) times one split's
    # trajectories, where holding the split's runs took 1.13 or more
    import tracemalloc

    cfg = dataclasses.replace(default_config(problem), n_test=0)
    pipeline.simulate_fom(cfg, tmp_path)  # first-call imports outside the trace
    split_bytes = sum(load_matrix(tmp_path / "fom" / f"train_{i:03d}.tpoi").nbytes
                      for i in range(cfg.n_train))
    tracemalloc.start()
    try:
        pipeline.simulate_fom(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * split_bytes


def test_manifest_records_each_stage_peak_rss(heat_run):
    _, _, manifest = heat_run
    peaks = manifest["peak_rss_mib"]
    assert set(peaks) == {name for name, _ in STAGES}
    assert all(isinstance(v, float) and v > 0.0 for v in peaks.values())


# ----------------------------------------------------------------------
# the reduced models of a finished study


def surrogate_config(problem):
    # every learned label, the intrusive one and r = 1; wave with three
    # subdomains, so the parameter contraction has more than one slice
    if problem == "heat1d":
        return dataclasses.replace(small_heat_config(), reduced_dims=(1, 3),
                                   methods=("normal", "symmetric"))
    return dataclasses.replace(small_wave_config(), reduced_dims=(1, 2),
                               breakpoints=default_config("wave1d").breakpoints)


@pytest.fixture(scope="module", params=["heat1d", "wave1d"])
def surrogate_run(request, tmp_path_factory):
    outdir = tmp_path_factory.mktemp(f"surrogate_{request.param}")
    cfg = surrogate_config(request.param)
    run_pipeline(cfg, outdir)
    return cfg, outdir


def test_surrogate_reproduces_every_stored_run(surrogate_run):
    cfg, outdir = surrogate_run
    surrogate = Surrogate.load(outdir)
    assert surrogate.cfg == cfg.validate()
    mu = load_matrix(outdir / "params_test.tpoi")[:, :1]
    for r in cfg.reduced_dims:
        for label in list(cfg.methods) + ["intrusive"]:
            (run,) = surrogate.run(label, r, mu)
            stored = load_matrix(outdir / "rom" / f"{label}_r{r}" / "test_000.tpoi")
            np.testing.assert_array_equal(run.states, stored, err_msg=f"{label}_r{r}")


def test_surrogate_reads_each_file_once(surrogate_run, monkeypatch):
    cfg, outdir = surrogate_run
    surrogate = Surrogate.load(outdir)
    mu = load_matrix(outdir / "params_test.tpoi")[:, :1]
    reads = []
    for name in ("load_matrix", "load_tensor"):
        original = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name,
                            lambda path, original=original: reads.append(path) or original(path))
    for label in list(cfg.methods) + ["intrusive"]:
        surrogate.run(label, 1, mu)
        reads.clear()
        surrogate.run(label, 1, mu)
        assert reads == [], label


def test_surrogate_reads_the_manifest_once(surrogate_run, monkeypatch):
    cfg, outdir = surrogate_run
    loads = []
    original = pipeline._load_manifest
    monkeypatch.setattr(pipeline, "_load_manifest",
                        lambda path: loads.append(path) or original(path))
    surrogate = Surrogate(cfg, outdir)
    mu = load_matrix(outdir / "params_test.tpoi")[:, :1]
    for r in cfg.reduced_dims:
        for label in list(cfg.methods) + ["intrusive"]:
            surrogate.run(label, r, mu)
    assert loads == [outdir]


def test_surrogate_refuses_a_study_without_operators(surrogate_run, tmp_path):
    cfg, outdir = surrogate_run
    shutil.copytree(outdir, tmp_path, dirs_exist_ok=True)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["operators"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="records no operator configuration; rerun infer"):
        Surrogate.load(tmp_path)


def test_surrogate_refuses_a_label_that_was_never_inferred(heat_run):
    cfg, outdir, _ = heat_run
    surrogate = Surrogate.load(outdir)
    mu = load_matrix(outdir / "params_test.tpoi")
    with pytest.raises(ValueError, match=r"no 'symmetric' operators were inferred "
                                         r"\(inferred: normal, lstsq\); rerun infer"):
        surrogate.generators("symmetric", cfg.reduced_dims[0], mu)


def test_surrogate_refuses_a_basis_with_too_few_modes(surrogate_run):
    cfg, outdir = surrogate_run
    larger = dataclasses.replace(cfg, reduced_dims=(2, 6))
    with pytest.raises(ValueError, match=r"modes but reduced_dims asks for r = 6; "
                                         r"rerun build-basis"):
        Surrogate(larger, outdir)


def test_surrogate_refuses_full_order_data_of_another_seed(heat_run, tmp_path):
    cfg, outdir, _ = heat_run
    other = dataclasses.replace(cfg, seed=cfg.seed + 1)
    with pytest.raises(ValueError, match=rf"simulated with seed {cfg.seed} "
                                         rf"\(configured {other.seed}\); rerun simulate-fom"):
        Surrogate(other, outdir)
    # a study whose full-order data were simulated again under another seed
    shutil.copytree(outdir, tmp_path, dirs_exist_ok=True)
    pipeline.simulate_fom(other, tmp_path)
    with pytest.raises(ValueError, match=rf"seed {cfg.seed} \(configured {other.seed}\); "
                                         r"rerun build-basis"):
        Surrogate.load(tmp_path)


def test_surrogate_refuses_parameters_that_are_not_positive_columns(surrogate_run):
    # every label of both problems, before any generator is built: heat's
    # learned and intrusive models and wave's learned ones took non-positive
    # parameters, and a (p,) vector failed on an operator shape
    cfg, outdir = surrogate_run
    surrogate = Surrogate.load(outdir)
    mu = load_matrix(outdir / "params_test.tpoi")
    name = "conductivities" if cfg.problem == "heat1d" else "wave speeds"
    for bad in (mu[:, 0], -mu, 0.0 * mu):
        for label in list(cfg.methods) + ["intrusive"]:
            for entry in (surrogate.generators, surrogate.run):
                with pytest.raises(ValueError, match=name):
                    entry(label, 1, bad)


def _parameter_entry_points(heat_outdir):
    """Each entry point that takes parameters, as ``(call, good parameters)``."""
    heat, wave = build_heat_model(12), build_wave_model(12)
    return {
        "heat_operator": (lambda mu: heat_operator(heat, mu), np.full(3, 0.5)),
        "heat_step": (lambda mu: heat_step(heat, mu, 0.01), np.full((3, 2), 0.5)),
        "wave_stiffness": (lambda mu: wave_stiffness(wave, mu), np.full(4, 1.5)),
        "wave_projected_stiffness": (lambda mu: wave_projected_stiffness(wave, mu, np.eye(12)),
                                     np.full((4, 2), 1.5)),
        "wave_step": (lambda mu: wave_step(wave, mu, 0.1), np.full((4, 2), 1.5)),
        "Surrogate.run": (lambda mu: Surrogate.load(heat_outdir).run("normal", 2, mu),
                          np.full((3, 2), 0.5)),
    }


def _with_entry(good, value):
    bad = good.copy()
    bad.flat[-1] = value
    return bad


@pytest.mark.parametrize("bad", ["wrong_p", "wrong_ndim", "empty", "zero", "negative", "nan",
                                 "inf"])
@pytest.mark.parametrize("entry", ["heat_operator", "heat_step", "wave_stiffness",
                                   "wave_projected_stiffness", "wave_step", "Surrogate.run"])
def test_parameter_entry_points_refuse_bad_parameters_without_a_warning(entry, bad, heat_run):
    # a NaN passed a "mu <= 0" test, and an infinite wave speed made a
    # finite, positive definite step (mu^-2 = 0)
    call, good = _parameter_entry_points(heat_run[1])[entry]
    call(good)
    bad = {"wrong_p": good[:-1],
           "wrong_ndim": good[:, 0] if good.ndim == 2 else good[:, None],
           # no samples: a (p, 0) stack, or no entries at all for one vector
           "empty": good[:, :0] if good.ndim == 2 else good[:0],
           "zero": _with_entry(good, 0.0), "negative": _with_entry(good, -0.5),
           "nan": _with_entry(good, np.nan), "inf": _with_entry(good, np.inf)}[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="conductivities|wave speeds"):
            call(bad)


@pytest.mark.parametrize("problem, dt, message", [
    pytest.param(problem, dt, "^dt must be finite and positive", id=f"{problem}-{dt}")
    for problem in ("heat1d", "wave1d") for dt in (np.inf, -np.inf, np.nan, 0.0)
] + [
    # finite, but dt^2 / (4 h) overflows: it failed as non-finite tridiagonals,
    # a message that did not name dt
    pytest.param("wave1d", 1e300, "^dt is too large", id="wave1d-1e300"),
])
def test_full_order_steps_refuse_a_bad_dt_without_a_warning(problem, dt, message):
    # an infinite dt passed a "dt > 0" test: its bands warned twice in
    # weighted_bands and then failed as non-finite tridiagonals
    model = build_heat_model(12) if problem == "heat1d" else build_wave_model(12)
    make_step = heat_step if problem == "heat1d" else wave_step
    params = np.full((model.n_subdomains, 2), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            make_step(model, params, dt)


# ----------------------------------------------------------------------
# strict JSON: every recorded float is finite or null


def _strict_manifest(outdir):
    """``manifest.json`` parsed as RFC 8259 JSON: a NaN or Infinity token raises."""
    def refuse(token):
        raise ValueError(f"manifest.json holds the non-finite token {token}")

    return json.loads((outdir / "manifest.json").read_text(), parse_constant=refuse)


def test_overflowing_reduced_runs_are_scored_in_strict_json(tmp_path):
    # heat1d at 400 elements, r = 30 and finite differences: the learned
    # runs grow to 1e30-1e303 without leaving float range, so their squared
    # errors overflow float64; six runs diverge outright
    cfg = dataclasses.replace(default_config("heat1d"), n_elements=400, n_train=8, n_test=2,
                              reduced_dims=(30,), methods=("normal", "lstsq", "symmetric"),
                              derivative="finite_difference", seed=13)
    manifest = run_pipeline(cfg, tmp_path)
    assert _strict_manifest(tmp_path) == manifest
    diverged = {(d["label"], d["split"], d["index"]) for d in manifest["divergences"]}
    assert len(diverged) == 6
    model = build_heat_model(cfg.n_elements, cfg.breakpoints)
    u = load_matrix(tmp_path / "basis" / "u.tpoi")
    for split, count in (("train", 8), ("test", 2)):
        fom = [load_matrix(tmp_path / "fom" / f"{split}_{i:03d}.tpoi").T for i in range(count)]
        for label in ("normal", "lstsq", "symmetric", "intrusive"):
            key = f"{label}_r30_{split}"
            kept = [i for i in range(count) if (label, split, i) not in diverged]
            assert manifest["error_pools"][key] == {"runs": len(kept), "null": None}
            # oracle: the lifted runs, scaled by their largest entry before squaring
            red = [load_matrix(tmp_path / "rom" / f"{label}_r30" / f"{split}_{i:03d}.tpoi")
                   for i in kept]
            peak = max(float(np.max(np.abs(y))) for y in red)
            num = sum(weighted_norm_sq(fom[i] / peak - u @ (y / peak), model.mass)
                      for i, y in zip(kept, red))
            den = sum(weighted_norm_sq(fom[i], model.mass) for i in kept)
            assert manifest["errors"][key] == pytest.approx(peak * np.sqrt(num / den), rel=1e-10)
        assert manifest["errors"][f"symmetric_r30_{split}"] > 1e290
    summary = (tmp_path / "report" / "summary.txt").read_text()
    assert "null" not in summary and "inf" not in summary
    assert "inf" not in (tmp_path / "report" / "errors.csv").read_text()


def test_an_error_with_no_scored_run_is_null_with_its_reason(heat_run, tmp_path):
    # every train run of normal_r2 marked diverged: nothing is pooled
    cfg, source, _ = heat_run
    outdir = tmp_path / "run"
    shutil.copytree(source, outdir)
    manifest = _strict_manifest(outdir)
    manifest["divergences"] = [{"label": "normal", "r": 2, "split": "train", "index": i,
                                "step": 1} for i in range(cfg.n_train)]
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    evaluate(cfg, outdir)
    manifest = _strict_manifest(outdir)
    assert manifest["errors"]["normal_r2_train"] is None
    assert manifest["error_pools"]["normal_r2_train"] == {"runs": 0, "null": "unscored"}
    assert manifest["error_pools"]["normal_r2_test"] == {"runs": cfg.n_test, "null": None}
    summary = (outdir / "report" / "summary.txt").read_text()
    assert "train,2,normal,null," in summary
    assert "null errors (runs pooled; why):\n  normal_r2_train: 0; unscored\n" in summary
    assert "train,2,normal,null," in (outdir / "report" / "errors.csv").read_text()


def test_pooled_error_is_exact_in_range_and_null_beyond_it():
    rng = np.random.default_rng(41)
    pool = [(0.25, rng.standard_normal((3, 5))), (0.5, rng.standard_normal((3, 5)))]
    num = 0.0
    for a, d in pool:
        num += a + float(np.sum(d**2))
    assert pipeline._pooled_error(pool, 3.0) == (float(np.sqrt(num / 3.0)), None)
    # entries of about 4e180 have squares that overflow, the error does not: summed in
    # a power-of-two unit, it has the bits of the unscaled error times 2**600
    num = 0.0
    for _, d in pool:
        num += float(np.sum(d**2))
    value, why = pipeline._pooled_error([(0.0, d * 2.0**600) for _, d in pool], 3.0)
    assert why is None and value == float(np.sqrt(num / 3.0)) * 2.0**600
    assert pipeline._pooled_error([(0.0, np.full(4, 1e308))], 1e-3) == (None, "out_of_range")
    assert pipeline._pooled_error([], 1.0) == (None, "unscored")


def test_rank_deficient_fit_records_a_null_condition_number(tmp_path):
    # two samples cannot span three conductivities: the minimum-norm fit
    # has no finite condition number, and its diagnostics say why
    cfg = dataclasses.replace(small_heat_config(), n_train=2, methods=("lstsq",))
    for _, stage in STAGES[:3]:
        stage(cfg, tmp_path)
    for r in cfg.reduced_dims:
        diag = _strict_manifest(tmp_path)["inference"][f"lstsq_r{r}"]
        assert diag["cond"] is None and diag["rank_deficient"] is True
        assert diag["residual"] >= 0.0


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

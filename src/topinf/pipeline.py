"""End-to-end experiment pipeline with file-based stages.

The pipeline decomposes into five stages, each of which reads its inputs
from an artifact directory and writes its outputs back to it, so stages
can run in one process (:func:`run_pipeline`) or as separate invocations:

1. ``simulate_fom``   -- sample parameters, integrate the full model;
2. ``build_basis``    -- reduced basis from the training snapshots;
3. ``infer``          -- reduced trajectories, derivative data, operator fits;
4. ``simulate_rom``   -- integrate learned and intrusive reduced models;
5. ``evaluate``       -- error/energy metrics, CSV tables, text summary.

Artifacts use the binary format of :mod:`topinf.storage`; tables are CSV
with shortest round-trip float formatting.  Reruns with the same
configuration and seed produce byte-identical numeric artifacts
(``manifest.json`` records wall-clock timings and is exempt).

Randomness: all sampling derives from the configured seed through the
Philox 4x64 counter-based generator, keyed by ``(seed, stream)`` with
stream 0 for training parameters and stream 1 for test parameters.

The full-order sweep of each split is one stacked tridiagonal integration
over its samples (:func:`~topinf.heat.heat_sweep`,
:func:`~topinf.wave.wave_sweep`); the reduced sweep of each (label, r) is
one stacked integration over every sample of both splits.  BLAS keeps its
own threads.  Each stage removes the per-sample files of an earlier, larger
run that it did not write.  A reduced run that diverges is
recorded in the manifest as a structured record ``{label, r, split,
index, step}``, keeps no states file, and is left out of the error pools.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from pathlib import Path

import numpy as np

# Not every imported name is used here: benchmarks/tracing.py wraps layers at
# their names in this module, and the full-order sweeps no longer call
# heat_operator, wave_full_operator, crank_nicolson or implicit_midpoint, nor
# evaluate relative_l2 or projection_error.
from . import __version__
from .basis import (
    ReducedBasis,
    estimate_time_derivative,
    exact_reduced_derivative,
    project_snapshots,
    psd_cotangent_lift,
    weighted_pod,
)
from .config import ExperimentConfig
from .errors import NumericError
from .heat import (
    build_heat_model,
    heat_features,
    heat_initial_state,
    heat_operator,
    heat_sweep,
    sample_conductivities,
)
from .inference import InferenceData, infer_lstsq, infer_normal, infer_symmetric
from .linalg import lstsq_min_norm
from .metrics import hamiltonian_drift, projection_error, relative_l2, weighted_norm_sq
from .rom import (
    RomModel,
    block_operator,
    cayley_sweep,
    crank_nicolson,
    implicit_midpoint,
    intrusive_project,
    project_matrix,
    reduced_hamiltonian,
    symmetric_part,
)
from .storage import load_matrix, save_matrix, load_tensor, save_tensor
from .tensors import mode3_product
from .wave import (
    build_wave_model,
    sample_wave_speeds,
    wave_full_operator,
    wave_initial_state,
    wave_mass_form_operator,
    wave_stiffness,
    wave_sweep,
)

__all__ = [
    "run_pipeline",
    "simulate_fom",
    "build_basis",
    "infer",
    "simulate_rom",
    "evaluate",
    "make_rng",
    "STAGES",
]

INTRUSIVE = "intrusive"

_TRAIN_STREAM = 0
_TEST_STREAM = 1


# ----------------------------------------------------------------------
# deterministic randomness


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox 4x64 generator keyed by ``(seed, stream)``."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ----------------------------------------------------------------------
# shared helpers


def _build_model(cfg: ExperimentConfig):
    if cfg.problem == "heat1d":
        return build_heat_model(cfg.n_elements, cfg.breakpoints)
    return build_wave_model(cfg.n_elements, cfg.breakpoints)


def _draw_parameters(cfg: ExperimentConfig, count: int, stream: int) -> np.ndarray:
    rng = make_rng(cfg.seed, stream)
    if cfg.sampling == "log_uniform":
        return sample_conductivities(rng, count, cfg.n_subdomains, cfg.param_lo, cfg.param_hi)
    return sample_wave_speeds(rng, count, cfg.n_subdomains, cfg.param_lo, cfg.param_hi)


def _splits(cfg: ExperimentConfig) -> list[tuple[str, int]]:
    out = [("train", cfg.n_train)]
    if cfg.n_test > 0:
        out.append(("test", cfg.n_test))
    return out


def _fom_path(outdir: Path, split: str, i: int) -> Path:
    return outdir / "fom" / f"{split}_{i:03d}.tpoi"


def _rom_dir(outdir: Path, label: str, r: int) -> Path:
    return outdir / "rom" / f"{label}_r{r}"


def _load_params(outdir: Path, split: str) -> np.ndarray:
    return load_matrix(outdir / f"params_{split}.tpoi")


def _load_fom(cfg: ExperimentConfig, outdir: Path, split: str) -> list[np.ndarray]:
    count = cfg.n_train if split == "train" else cfg.n_test
    return [load_matrix(_fom_path(outdir, split, i)) for i in range(count)]


def _load_basis(cfg: ExperimentConfig, outdir: Path, model) -> ReducedBasis:
    u = load_matrix(outdir / "basis" / "u.tpoi")
    svals = load_matrix(outdir / "basis" / "svals.tpoi").ravel()
    if cfg.problem == "wave1d":
        half = load_matrix(outdir / "basis" / "u_half.tpoi")
        return ReducedBasis(u=u, weight=model.mass_w, kind="psd", u_half=half,
                            singular_values=svals)
    return ReducedBasis(u=u, weight=model.mass, kind="pod", singular_values=svals)


def _heat_intrusive(model, b: ReducedBasis) -> np.ndarray:
    """Galerkin projection of the (negated, dissipative) stiffness tensor."""
    return intrusive_project(-model.stiffness, b)


def _stiffness_by_split(model, params: dict[str, np.ndarray]) -> dict[str, list[np.ndarray]]:
    """Full-order ``K(mu)`` of every sample, formed once per stage.

    ``K(mu)`` does not depend on the basis size, so each stage forms it once
    per sample and projects it for every r; the lists live only as long as
    the stage.
    """
    return {split: [wave_stiffness(model, mu) for mu in values.T]
            for split, values in params.items()}


def _wave_affine_reference(b: ReducedBasis, params: np.ndarray, stiffness) -> np.ndarray:
    """Least-squares affine-in-``mu^2`` fit of the projected position blocks.

    This is the intrusive reference for the learned position tensor; when
    the full-order operator is exactly affine in ``mu^2`` (one subdomain)
    the fit reproduces it exactly.  ``stiffness[s]`` is ``K`` at sample s.
    """
    r = b.r
    ns = params.shape[1]
    theta = (params**2).T  # (Ns, p)
    targets = np.empty((ns, r * r))
    for s in range(ns):
        targets[s] = project_matrix(stiffness[s], b.u_half).ravel()
    coeffs, _, _ = lstsq_min_norm(theta, targets)
    return np.moveaxis(coeffs.reshape(params.shape[0], r, r), 0, 2)


def _prune(directory: Path, pattern: str, keep: set[Path]) -> None:
    """Remove the files and directories matching ``pattern`` that are not in ``keep``.

    A rerun over fewer samples or sizes thereby leaves no artifact of the
    earlier run that the manifest does not describe.
    """
    for path in directory.glob(pattern):
        if path not in keep:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


def _rel_dist(a: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.sqrt(np.sum(ref**2)))
    if scale == 0.0:
        return float(np.sqrt(np.sum(a**2)))
    return float(np.sqrt(np.sum((a - ref) ** 2)) / scale)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# manifest


def _manifest_path(outdir: Path) -> Path:
    return outdir / "manifest.json"


def _load_manifest(outdir: Path) -> dict:
    path = _manifest_path(outdir)
    if path.exists():
        return json.loads(path.read_text())
    return {
        "package_version": __version__,
        "config": {},
        "stages": {},
        "inference": {},
        "recovery": {},
        "agreement": {},
        "errors": {},
        "projection": {},
        "drift_max": {},
        "divergences": [],
    }


def _save_manifest(outdir: Path, manifest: dict) -> None:
    _manifest_path(outdir).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _record_stage(cfg: ExperimentConfig, outdir: Path, name: str, seconds: float,
                  updates: dict | None = None) -> None:
    """Record a finished stage; ``updates`` replaces the fields the stage owns.

    Replacing, not merging, keeps a rerun from inheriting entries (a cleared
    divergence, an ``r`` no longer swept) that only an earlier run produced.
    """
    manifest = _load_manifest(outdir)
    manifest["package_version"] = __version__
    manifest["config"] = {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in dataclasses.asdict(cfg).items()
    }
    manifest["stages"][name] = seconds
    manifest.update(updates or {})
    _save_manifest(outdir, manifest)


# ----------------------------------------------------------------------
# stage 1: full-order simulation


def simulate_fom(cfg: ExperimentConfig, outdir) -> None:
    """Sample parameters and integrate the full-order model for each.

    Each split is one stacked sweep over its samples.  Parameter and
    trajectory files of samples or splits outside the current counts are
    removed.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fom").mkdir(exist_ok=True)
    started = time.perf_counter()

    model = _build_model(cfg)
    if cfg.problem == "heat1d":
        x0, sweep = heat_initial_state(model), heat_sweep
    else:
        x0, sweep = wave_initial_state(model), wave_sweep

    written: set[Path] = set()
    for split, count in _splits(cfg):
        params = _draw_parameters(cfg, count, _TRAIN_STREAM if split == "train" else _TEST_STREAM)
        path = outdir / f"params_{split}.tpoi"
        save_matrix(path, params)
        written.add(path)
        for i, traj in enumerate(sweep(model, params, x0, cfg.dt, cfg.n_times, t0=cfg.t0)):
            if traj.diverged:
                raise NumericError(
                    f"full-order run {split}/{i} diverged at step {traj.first_bad_step}"
                )
            path = _fom_path(outdir, split, i)
            save_matrix(path, traj.states)
            written.add(path)
    _prune(outdir, "params_*.tpoi", written)
    _prune(outdir / "fom", "*.tpoi", written)

    _record_stage(cfg, outdir, "simulate_fom", time.perf_counter() - started)


# ----------------------------------------------------------------------
# stage 2: reduced basis


def build_basis(cfg: ExperimentConfig, outdir) -> None:
    """Build the reduced basis of the largest requested size from training data."""
    cfg = cfg.validate()
    outdir = Path(outdir)
    (outdir / "basis").mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    model = _build_model(cfg)
    train = _load_fom(cfg, outdir, "train")
    r_max = max(cfg.reduced_dims)
    if cfg.problem == "heat1d":
        b = weighted_pod(train, model.mass, r_max)
    else:
        n = model.n_w
        b = psd_cotangent_lift(
            [q[:n] for q in train], [q[n:] for q in train], model.mass_w, r_max
        )
        save_matrix(outdir / "basis" / "u_half.tpoi", b.u_half)
    save_matrix(outdir / "basis" / "u.tpoi", b.u)
    save_matrix(outdir / "basis" / "svals.tpoi", b.singular_values[None, :])

    _record_stage(cfg, outdir, "build_basis", time.perf_counter() - started)


# ----------------------------------------------------------------------
# stage 3: operator inference


def _reduced_and_derivatives(cfg, model, b, params, snapshots, mass_forms):
    reduced = project_snapshots(b, snapshots)
    if cfg.derivative == "finite_difference":
        derivs = [estimate_time_derivative(red, cfg.dt) for red in reduced]
    elif cfg.problem == "heat1d":
        tensor = _heat_intrusive(model, b)
        derivs = [
            mode3_product(tensor, heat_features(params[:, s])) @ reduced[s]
            for s in range(len(reduced))
        ]
    else:
        derivs = [
            exact_reduced_derivative(b, mass_forms[s], reduced[s])
            for s in range(len(reduced))
        ]
    return reduced, derivs


def _fit(method: str, data: InferenceData):
    if method == "normal":
        return infer_normal(data)
    if method == "lstsq":
        return infer_lstsq(data)
    return infer_symmetric(data)


def infer(cfg: ExperimentConfig, outdir) -> None:
    """Fit reduced operators for every requested size and method."""
    cfg = cfg.validate()
    outdir = Path(outdir)
    (outdir / "operators").mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    model = _build_model(cfg)
    params = _load_params(outdir, "train")
    snapshots = _load_fom(cfg, outdir, "train")
    basis_full = _load_basis(cfg, outdir, model)

    diagnostics: dict[str, dict] = {}
    recovery: dict[str, float] = {}
    agreement: dict[str, float] = {}
    mass_forms: list[np.ndarray] = []
    if cfg.problem == "wave1d" and cfg.derivative == "exact":
        # [[0, Mw], [-K(mu), 0]] per sample, formed once for every r
        mass_forms = [wave_mass_form_operator(model, mu) for mu in params.T]

    for r in cfg.reduced_dims:
        b = basis_full.truncate(r)
        reduced, derivs = _reduced_and_derivatives(cfg, model, b, params, snapshots, mass_forms)
        fits: dict[str, np.ndarray] = {}

        if cfg.problem == "heat1d":
            features = np.column_stack([heat_features(params[:, s]) for s in range(params.shape[1])])
            data = InferenceData(
                nus=features,
                ys=np.stack(reduced, axis=2),
                zs=np.stack(derivs, axis=2),
            )
            for method in cfg.methods:
                result = _fit(method, data)
                save_tensor(outdir / "operators" / f"tensor_{method}_r{r}.tpoi", result.tensor)
                fits[method] = result.tensor
                diagnostics[f"{method}_r{r}"] = {
                    "cond": result.cond,
                    "residual": result.residual,
                    "stationarity": result.stationarity,
                }
            if cfg.derivative == "exact":
                reference = _heat_intrusive(model, b)
                for method, tensor in fits.items():
                    recovery[f"{method}_r{r}"] = _rel_dist(tensor, reference)
        else:
            qs = np.stack([red[:r] for red in reduced], axis=2)
            ps = np.stack([red[r:] for red in reduced], axis=2)
            qdots = np.stack([d[:r] for d in derivs], axis=2)
            pdots = np.stack([d[r:] for d in derivs], axis=2)
            t1_data = InferenceData(nus=params**2, ys=qs, zs=-pdots)
            a2_data = InferenceData(
                nus=np.ones((1, params.shape[1])), ys=ps, zs=qdots
            )
            for method in cfg.methods:
                t1_fit = _fit(method, t1_data)
                a2_fit = _fit(method, a2_data)
                save_tensor(outdir / "operators" / f"t1_{method}_r{r}.tpoi", t1_fit.tensor)
                save_matrix(outdir / "operators" / f"a2_{method}_r{r}.tpoi",
                            a2_fit.tensor[:, :, 0])
                fits[method] = t1_fit.tensor
                diagnostics[f"{method}_r{r}_t1"] = {
                    "cond": t1_fit.cond,
                    "residual": t1_fit.residual,
                    "stationarity": t1_fit.stationarity,
                }
                diagnostics[f"{method}_r{r}_a2"] = {
                    "cond": a2_fit.cond,
                    "residual": a2_fit.residual,
                    "stationarity": a2_fit.stationarity,
                }
            if cfg.derivative == "exact":
                n = model.n_w
                reference = _wave_affine_reference(b, params, [-op[n:, :n] for op in mass_forms])
                for method, tensor in fits.items():
                    recovery[f"{method}_r{r}"] = _rel_dist(tensor, reference)

        if "normal" in fits and "lstsq" in fits:
            agreement[f"r{r}"] = _rel_dist(fits["normal"], fits["lstsq"])

    _record_stage(
        cfg, outdir, "infer", time.perf_counter() - started,
        updates={"inference": diagnostics, "recovery": recovery, "agreement": agreement},
    )


# ----------------------------------------------------------------------
# stage 4: reduced-order simulation


def _rom_labels(cfg: ExperimentConfig) -> list[str]:
    return list(cfg.methods) + [INTRUSIVE]


def _rom_operators(cfg, model, b, outdir, label: str, r: int, params, stiffness) -> np.ndarray:
    """The reduced generators of one (label, r) at every sample, stacked ``(S, n, n)``.

    ``params`` holds the samples of both splits as columns; ``stiffness``
    (wave only) is the matching ``(S, N, N)`` stack of ``K(mu)``.
    """
    if cfg.problem == "heat1d":
        if label == INTRUSIVE:
            tensor = _heat_intrusive(model, b)
        else:
            tensor = load_tensor(outdir / "operators" / f"tensor_{label}_r{r}.tpoi")
        # the contraction of mode3_product, one generator per sample
        return np.einsum("ijx,xs->sij", tensor, heat_features(params))
    if label == INTRUSIVE:
        ops = np.zeros((params.shape[1], 2 * r, 2 * r))
        ops[:, :r, r:] = np.eye(r)
        ops[:, r:, :r] = -project_matrix(stiffness, b.u_half)
        return ops
    t1 = load_tensor(outdir / "operators" / f"t1_{label}_r{r}.tpoi")
    a2 = load_matrix(outdir / "operators" / f"a2_{label}_r{r}.tpoi")
    return block_operator(t1, a2, params)


def simulate_rom(cfg: ExperimentConfig, outdir) -> None:
    """Integrate every reduced model for every parameter sample.

    Each (label, r) integrates the generators of all samples of both splits
    as one stack (:func:`~topinf.rom.cayley_sweep`).  Directories of a
    (label, r) no longer swept, and the states files of samples outside the
    current counts or of runs that diverged, are removed.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    started = time.perf_counter()

    model = _build_model(cfg)
    basis_full = _load_basis(cfg, outdir, model)
    if cfg.problem == "heat1d":
        x0 = heat_initial_state(model)
    else:
        x0 = wave_initial_state(model)
    samples = [(split, i) for split, count in _splits(cfg) for i in range(count)]
    params = np.hstack([_load_params(outdir, split) for split, _ in _splits(cfg)])
    stiffness = None
    if cfg.problem == "wave1d":
        stiffness = np.stack([wave_stiffness(model, mu) for mu in params.T])

    divergences: list[dict] = []
    swept: set[Path] = set()
    for r in cfg.reduced_dims:
        b = basis_full.truncate(r)
        red0 = b.project(x0)
        for label in _rom_labels(cfg):
            target = _rom_dir(outdir, label, r)
            target.mkdir(parents=True, exist_ok=True)
            swept.add(target)
            ops = _rom_operators(cfg, model, b, outdir, label, r, params, stiffness)
            runs = cayley_sweep(ops, red0, cfg.dt, cfg.n_times, t0=cfg.t0)
            written: set[Path] = set()
            for (split, i), traj in zip(samples, runs):
                if traj.diverged:
                    divergences.append({"label": label, "r": r, "split": split,
                                        "index": i, "step": traj.first_bad_step})
                    continue
                path = target / f"{split}_{i:03d}.tpoi"
                save_matrix(path, traj.states)
                written.add(path)
            _prune(target, "*.tpoi", written)
    _prune(outdir / "rom", "*_r*", swept)

    _record_stage(cfg, outdir, "simulate_rom", time.perf_counter() - started,
                  updates={"divergences": divergences})


# ----------------------------------------------------------------------
# stage 5: evaluation


def _drift_model_builder(u_half: np.ndarray, outdir, label: str, r: int, params, stiffness):
    """Per-(label, r) factory mapping ``(split, sample index)`` to (energy model, contraction).

    Each reduced run is scored against its own quadratic energy: the
    intrusive model evaluates its per-sample position block directly (with
    a unit contraction weight, since the block already contains the
    parameter), the symmetry-constrained fit carries exact flags, and
    unconstrained fits are scored through their symmetric part, which
    defines the same quadratic form.  ``u_half`` is the size-r position basis.
    """
    if label == INTRUSIVE:
        def build(split: str, i: int) -> tuple[RomModel, np.ndarray]:
            a1 = project_matrix(stiffness[split][i], u_half)
            energy_model = RomModel(
                t1=a1[:, :, None],
                a2=np.eye(r),
                t1_structure="symmetric",
                a2_structure="symmetric",
            )
            return energy_model, np.ones(1)

        return build
    t1 = load_tensor(outdir / "operators" / f"t1_{label}_r{r}.tpoi")
    a2 = load_matrix(outdir / "operators" / f"a2_{label}_r{r}.tpoi")
    learned = RomModel(t1=t1, a2=a2)
    if label == "symmetric":
        learned = dataclasses.replace(
            learned, t1_structure="symmetric", a2_structure="symmetric"
        )
    else:
        learned = symmetric_part(learned)
    return lambda split, i: (learned, params[split][:, i])


def _scored_run(states: np.ndarray, u: np.ndarray, mass: np.ndarray):
    """``(C, ||Q - U C||_M^2, ||Q||_M^2)`` of a full-order run's scored block ``Q``.

    ``Q`` is the leading ``U.shape[0]`` rows of ``states``; ``C = U^T M Q``.  The
    residual is lifted once and measured directly: ``||Q||_M^2 - ||C||^2`` cancels.
    """
    q = states[: u.shape[0]]
    mq = mass @ q
    c = u.T @ mq
    return c, weighted_norm_sq(q - u @ c, mass), float(np.sum(q * mq))


def evaluate(cfg: ExperimentConfig, outdir) -> None:
    """Compute error tables, energy-drift series, and the text summary.

    Errors are scored in reduced coordinates.  The basis is mass-orthonormal
    (``U^T M U = I``) and nested (``U_r`` is the leading r columns of ``U``),
    so with ``C = U^T M Q`` taken once per full-order trajectory at the
    largest r, the error of a reduced run ``y`` of size r splits exactly:

        ||Q - U_r y||_M^2 = ||Q - U C||_M^2 + ||C[r:]||^2 + ||C[:r] - y||^2.

    The first two terms are the projection residual at size r, shared by
    every model; the last needs no lift and no mass product.  Heat scores
    the whole state with ``(u, mass)``, wave the position block with
    ``(u_half, mass_w)``.  Errors pool the runs that did not diverge; the
    drift series of each r is that of sample 0 of the held-out split (the
    training split without one); drift series of an r no longer evaluated
    are removed.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    report_dir = outdir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    model = _build_model(cfg)
    basis_full = _load_basis(cfg, outdir, model)
    manifest = _load_manifest(outdir)
    diverged = {(d["label"], d["r"], d["split"], d["index"])
                for d in manifest.get("divergences", [])}
    params = {split: _load_params(outdir, split) for split, _ in _splits(cfg)}
    wave = cfg.problem == "wave1d"
    stiffness = _stiffness_by_split(model, params) if wave else None
    u, mass = (basis_full.u_half, model.mass_w) if wave else (basis_full.u, model.mass)

    runs = {split: [_scored_run(load_matrix(_fom_path(outdir, split, i)), u, mass)
                    for i in range(count)]
            for split, count in _splits(cfg)}
    showcase = "test" if cfg.n_test > 0 else "train"

    error_rows: list[list] = []
    error_map: dict[str, float] = {}
    projection_map: dict[str, float] = {}
    drift_max: dict[str, float] = {}
    written: set[Path] = set()

    for r in cfg.reduced_dims:
        residual = {split: [tail + float(np.sum(c[r:] ** 2)) for c, tail, _ in scored]
                    for split, scored in runs.items()}
        proj = {split: float(np.sqrt(sum(residual[split]) / sum(norm for *_, norm in scored)))
                for split, scored in runs.items()}
        for split, value in proj.items():
            projection_map[f"r{r}_{split}"] = value

        drift_series: dict[str, np.ndarray] = {}
        for label in _rom_labels(cfg):
            drift_peak = 0.0
            if wave:
                drift_at = _drift_model_builder(u[:, :r], outdir, label, r, params, stiffness)
            for split, count in _splits(cfg):
                num = den = 0.0
                for i in range(count):
                    if (label, r, split, i) in diverged:
                        continue
                    red = load_matrix(_rom_dir(outdir, label, r) / f"{split}_{i:03d}.tpoi")
                    c, _, norm = runs[split][i]
                    num += residual[split][i] + float(np.sum((c[:r] - red[:r]) ** 2))
                    den += norm
                    if wave:
                        dmodel, nu = drift_at(split, i)
                        drift = hamiltonian_drift(dmodel, nu, red)
                        h0 = abs(reduced_hamiltonian(dmodel, nu, red[:, 0]))
                        rel = float(np.max(drift))
                        if h0 > 0.0:
                            rel /= h0
                        drift_peak = max(drift_peak, rel)
                        if split == showcase and i == 0:
                            drift_series[label] = drift
                value = float(np.sqrt(num / den)) if den > 0.0 else float("inf")
                error_rows.append([split, r, label, value, proj[split]])
                error_map[f"{label}_r{r}_{split}"] = value
            if wave:
                drift_max[f"{label}_r{r}"] = drift_peak

        if drift_series:
            times = cfg.t0 + cfg.dt * np.arange(cfg.n_times)
            rows = [[float(t)] + [float(d[k]) for d in drift_series.values()]
                    for k, t in enumerate(times)]
            path = report_dir / f"drift_r{r}.csv"
            _write_csv(path, ["time", *drift_series], rows)
            written.add(path)
    _prune(report_dir, "drift_r*.csv", written)

    _write_csv(
        report_dir / "errors.csv",
        ["split", "r", "method", "relative_l2", "projection_error"],
        error_rows,
    )
    _write_summary(cfg, report_dir, manifest, error_rows, drift_max)

    _record_stage(
        cfg, outdir, "evaluate", time.perf_counter() - started,
        updates={"errors": error_map, "projection": projection_map, "drift_max": drift_max},
    )


def _write_summary(cfg, report_dir, manifest, error_rows, drift_max) -> None:
    from .config import format_config

    lines: list[str] = []
    lines.append("experiment summary")
    lines.append("==================")
    lines.append("")
    lines.append("configuration:")
    for line in format_config(cfg).rstrip("\n").splitlines():
        lines.append("  " + line)
    lines.append("")
    lines.append("relative L2 errors (pooled per split; mass-weighted):")
    lines.append("  split,r,method,relative_l2,projection_error")
    for row in error_rows:
        lines.append("  " + ",".join(_fmt(v) for v in row))
    if drift_max:
        lines.append("")
        lines.append("max relative energy drift over all samples:")
        for key in sorted(drift_max):
            lines.append(f"  {key}: {_fmt(drift_max[key])}")
        lines.append("  (unconstrained fits are scored with the symmetric part")
        lines.append("   of their learned operators, which defines the same")
        lines.append("   quadratic energy)")
    if manifest.get("recovery"):
        lines.append("")
        lines.append("operator recovery vs. intrusive reference (exact derivatives):")
        for key in sorted(manifest["recovery"]):
            lines.append(f"  {key}: {_fmt(manifest['recovery'][key])}")
    if manifest.get("agreement"):
        lines.append("")
        lines.append("normal-equations vs. least-squares tensor distance:")
        for key in sorted(manifest["agreement"]):
            lines.append(f"  {key}: {_fmt(manifest['agreement'][key])}")
    divs = manifest.get("divergences", [])
    lines.append("")
    lines.append(f"diverged reduced runs: {len(divs)}")
    for d in divs:
        run = f"{d['label']}_r{d['r']}/{d['split']}_{d['index']:03d}"
        lines.append(f"  {run} at step {d['step']}")
    (report_dir / "summary.txt").write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# full pipeline

STAGES = (
    ("simulate_fom", simulate_fom),
    ("build_basis", build_basis),
    ("infer", infer),
    ("simulate_rom", simulate_rom),
    ("evaluate", evaluate),
)


def run_pipeline(cfg: ExperimentConfig, outdir=None) -> dict:
    """Run all five stages in order; returns the final manifest dict."""
    from .config import format_config

    cfg = cfg.validate()
    outdir = Path(outdir if outdir is not None else cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.cfg").write_text(format_config(cfg))
    for _, stage in STAGES:
        stage(cfg, outdir)
    return _load_manifest(outdir)

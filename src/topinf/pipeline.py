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
one stacked integration over every sample of both splits.  The basis is
nested, so each stage forms its Galerkin quantities (heat's projected
tensor, wave's projected stiffness blocks) once with the largest basis
and slices them per r.  One path, :func:`_rom_operators`, turns every
reduced model into per-sample generators ``A``; ``infer``'s exact
derivatives, ``simulate_rom``'s sweeps and ``evaluate``'s wave energies
``E = J^T A`` derive from it.  BLAS keeps its own threads.  Each stage
removes the per-sample files of an earlier, larger run that it did not
write.  A reduced run that diverges is recorded in the manifest as a
structured record ``{label, r, split, index, step}``, keeps no states
file, and is left out of the error pools.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

# Not every imported name is used here: benchmarks/tracing.py wraps layers at
# their names in this module.  Imported for it only: heat_operator,
# wave_full_operator, crank_nicolson, implicit_midpoint, relative_l2,
# projection_error, hamiltonian_drift, reduced_hamiltonian, symmetric_part,
# mode3_product, exact_reduced_derivative, project_matrix,
# wave_mass_form_operator and wave_stiffness.
from . import __version__
from .basis import (
    ReducedBasis,
    estimate_time_derivative,
    exact_reduced_derivative,
    project_snapshots,
    psd_cotangent_lift,
    weighted_pod,
)
from .config import ExperimentConfig, format_config
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
    wave_projected_stiffness,
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
    """The stored basis; refuses one with fewer modes than ``max(cfg.reduced_dims)``."""
    u = load_matrix(outdir / "basis" / "u.tpoi")
    svals = load_tensor(outdir / "basis" / "svals.tpoi")
    if cfg.problem == "wave1d":
        half = load_matrix(outdir / "basis" / "u_half.tpoi")
        basis = ReducedBasis(u=u, weight=model.mass_w, kind="psd", u_half=half,
                             singular_values=svals)
    else:
        basis = ReducedBasis(u=u, weight=model.mass, kind="pod", singular_values=svals)
    if basis.r < max(cfg.reduced_dims):
        raise ValueError(
            f"stored basis has {basis.r} modes but reduced_dims asks for "
            f"r = {max(cfg.reduced_dims)}; rerun build-basis"
        )
    return basis


def _intrusive(cfg: ExperimentConfig, model, basis_full: ReducedBasis, params) -> np.ndarray:
    """Galerkin quantities of the largest basis; those of size r are their leading blocks.

    Heat: the ``(r, r, p)`` projection of the (negated, dissipative)
    stiffness tensor.  Wave: the ``(S, r, r)`` position blocks
    ``Uw^T K(mu) Uw`` at every column of ``params``.  The basis is nested,
    so each stage forms these once and slices ``[:r, :r]`` per size.
    """
    if cfg.problem == "heat1d":
        return intrusive_project(-model.stiffness, basis_full)
    return wave_projected_stiffness(model, params, basis_full.u_half)


def _rom_operators(cfg, outdir, label: str, r: int, params, intrusive) -> np.ndarray:
    """The reduced generators of one (label, r) at every sample, stacked ``(S, n, n)``.

    Heat ``T nu``; wave ``[[0, A2], [-(T1 mu^2), 0]]``, intrusive ``A2 = I``.
    ``params`` holds the samples as columns; ``intrusive`` is
    :func:`_intrusive`'s result for them.
    """
    if cfg.problem == "heat1d":
        tensor = (intrusive[:r, :r] if label == INTRUSIVE
                  else load_tensor(outdir / "operators" / f"tensor_{label}_r{r}.tpoi"))
        # the contraction of mode3_product, one generator per sample
        return np.einsum("ijx,xs->sij", tensor, heat_features(params))
    if label == INTRUSIVE:
        ops = np.zeros((params.shape[1], 2 * r, 2 * r))
        ops[:, :r, r:] = np.eye(r)
        ops[:, r:, :r] = -intrusive[:, :r, :r]
        return ops
    t1 = load_tensor(outdir / "operators" / f"t1_{label}_r{r}.tpoi")
    a2 = load_matrix(outdir / "operators" / f"a2_{label}_r{r}.tpoi")
    return block_operator(t1, a2, params)


def _leading(y: np.ndarray, r: int, r_max: int, wave: bool) -> np.ndarray:
    """Rows of the size-r reduced coordinates among those of the largest basis.

    Rows ``[:r]``, and for wave's block basis also the momentum rows
    ``[r_max:r_max + r]``.
    """
    return np.concatenate([y[:r], y[r_max:r_max + r]]) if wave else y[:r]


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
    """Write a temporary sibling, then rename it into place; a failed write keeps the old."""
    path = _manifest_path(outdir)
    temporary = path.with_name(path.name + ".tmp")
    try:
        temporary.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


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
    save_tensor(outdir / "basis" / "svals.tpoi", b.singular_values)

    _record_stage(cfg, outdir, "build_basis", time.perf_counter() - started)


# ----------------------------------------------------------------------
# stage 3: operator inference


def _fit(method: str, data: InferenceData):
    if method == "normal":
        return infer_normal(data)
    if method == "lstsq":
        return infer_lstsq(data)
    return infer_symmetric(data)


def infer(cfg: ExperimentConfig, outdir) -> None:
    """Fit reduced operators for every requested size and method.

    The training snapshots are projected, and finite differences taken,
    once with the largest basis; each size r keeps the leading rows.  Exact
    derivatives apply the intrusive generators to the snapshots; they and
    the recovery reference use the intrusive operators, formed once.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    (outdir / "operators").mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    model = _build_model(cfg)
    params = _load_params(outdir, "train")
    basis_full = _load_basis(cfg, outdir, model)
    reduced = project_snapshots(basis_full, _load_fom(cfg, outdir, "train"))
    ys_full = np.stack(reduced, axis=2)
    wave = cfg.problem == "wave1d"
    r_max = basis_full.r
    exact = cfg.derivative == "exact"
    if exact:
        intrusive = reference = _intrusive(cfg, model, basis_full, params)
        if wave:
            # least-squares affine-in-mu^2 fit of the position blocks: the
            # reference for the learned position tensor, exact when K(mu) is
            # affine in mu^2 (one subdomain); column by column, so nested
            coeffs, _, _ = lstsq_min_norm((params**2).T, intrusive.reshape(params.shape[1], -1))
            reference = np.moveaxis(coeffs.reshape(params.shape[0], r_max, r_max), 0, 2)
    else:
        derivs_full = np.stack([estimate_time_derivative(red, cfg.dt) for red in reduced], axis=2)

    diagnostics: dict[str, dict] = {}
    recovery: dict[str, float] = {}
    agreement: dict[str, float] = {}
    for r in cfg.reduced_dims:
        ys = _leading(ys_full, r, r_max, wave)
        if exact:  # Galerkin dynamics: heat (T nu) y; wave qdot = p, pdot = -(Uw^T K Uw) q
            ops = _rom_operators(cfg, outdir, INTRUSIVE, r, params, intrusive)
            zs = np.einsum("sij,jts->its", ops, ys, optimize=True)
        else:
            zs = _leading(derivs_full, r, r_max, wave)
        if wave:  # T1 from -pdot = (T1 mu^2) q, A2 from qdot = A2 p
            problems = (("t1", InferenceData(nus=params**2, ys=ys[:r], zs=-zs[r:])),
                        ("a2", InferenceData(nus=np.ones((1, params.shape[1])),
                                             ys=ys[r:], zs=zs[:r])))
        else:
            problems = (("tensor", InferenceData(nus=heat_features(params), ys=ys, zs=zs)),)
        fits: dict[str, np.ndarray] = {}
        for method in cfg.methods:
            for name, data in problems:
                result = _fit(method, data)
                path = outdir / "operators" / f"{name}_{method}_r{r}.tpoi"
                if name == "a2":
                    save_matrix(path, result.tensor[:, :, 0])
                else:
                    save_tensor(path, result.tensor)
                    fits[method] = result.tensor
                diagnostics[f"{method}_r{r}" + (f"_{name}" if wave else "")] = {
                    "cond": result.cond,
                    "residual": result.residual,
                    "stationarity": result.stationarity,
                }
        if exact:
            for method, tensor in fits.items():
                recovery[f"{method}_r{r}"] = _rel_dist(tensor, reference[:r, :r])

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
    intrusive = _intrusive(cfg, model, basis_full, params)
    red0_full = basis_full.project(x0)

    divergences: list[dict] = []
    swept: set[Path] = set()
    for r in cfg.reduced_dims:
        red0 = _leading(red0_full, r, basis_full.r, cfg.problem == "wave1d")
        for label in _rom_labels(cfg):
            target = _rom_dir(outdir, label, r)
            target.mkdir(parents=True, exist_ok=True)
            swept.add(target)
            ops = _rom_operators(cfg, outdir, label, r, params, intrusive)
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


def _energies(ops: np.ndarray) -> np.ndarray:
    """Energy matrices ``sym(J^T A) = blockdiag(sym(T1 mu^2), sym(A2))`` of generators ``A = J E``.

    A quadratic form sees only the symmetric part of its matrix, so an
    unconstrained fit keeps the energy of its own blocks.
    """
    r = ops.shape[-1] // 2
    e = np.concatenate([-ops[:, r:], ops[:, :r]], axis=1)
    return 0.5 * (e + e.transpose(0, 2, 1))


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
    ``(u_half, mass_w)``.  Errors pool the runs that did not diverge.  A
    wave run's energy is ``h = 1/2 y . (E_s y)`` with ``E_s`` from the
    sample's generator (:func:`_energies`); ``energy`` records per
    (label, r, split) the smallest eigenvalue of each block of ``E_s``,
    position and momentum, and the number of samples at which either block
    is indefinite, which are still scored.  The
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
    wave = cfg.problem == "wave1d"
    if wave:
        params = np.hstack([_load_params(outdir, split) for split, _ in _splits(cfg)])
        intrusive = _intrusive(cfg, model, basis_full, params)
        first = {"train": 0, "test": cfg.n_train}  # each split's first column of params
    u, mass = (basis_full.u_half if wave else basis_full.u), basis_full.weight

    runs = {split: [_scored_run(load_matrix(_fom_path(outdir, split, i)), u, mass)
                    for i in range(count)]
            for split, count in _splits(cfg)}
    showcase = "test" if cfg.n_test > 0 else "train"

    error_rows: list[list] = []
    error_map: dict[str, float] = {}
    projection_map: dict[str, float] = {}
    drift_max: dict[str, float] = {}
    energy: dict[str, dict] = {}
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
            if wave:
                energies = _energies(_rom_operators(cfg, outdir, label, r, params, intrusive))
                position = np.linalg.eigvalsh(energies[:, :r, :r])[:, 0]
                momentum = np.linalg.eigvalsh(energies[:, r:, r:])[:, 0]
                drift_peak = 0.0
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
                        h = 0.5 * np.sum(red * (energies[first[split] + i] @ red), axis=0)
                        drift = np.abs(h - h[0])
                        drift_peak = max(drift_peak, float(np.max(drift)) / (abs(h[0]) or 1.0))
                        if split == showcase and i == 0:
                            drift_series[label] = drift
                value = float(np.sqrt(num / den)) if den > 0.0 else float("inf")
                error_rows.append([split, r, label, value, proj[split]])
                error_map[f"{label}_r{r}_{split}"] = value
                if wave:
                    pos, mom = (low[first[split]:first[split] + count]
                                for low in (position, momentum))
                    energy[f"{label}_r{r}_{split}"] = {
                        "position_min_eig": float(pos.min()), "momentum_min_eig": float(mom.min()),
                        "indefinite": int(np.sum((pos < 0.0) | (mom < 0.0)))}
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
    _write_summary(cfg, report_dir, manifest, error_rows, drift_max, energy)

    _record_stage(
        cfg, outdir, "evaluate", time.perf_counter() - started,
        updates={"errors": error_map, "projection": projection_map, "drift_max": drift_max,
                 "energy": energy},
    )


def _write_summary(cfg, report_dir, manifest, error_rows, drift_max, energy) -> None:
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
        lines.append("max relative energy drift over all samples; per split, the smallest")
        lines.append("position/momentum energy eigenvalues (number of indefinite samples):")
        for key in sorted(drift_max):
            splits = [(split, energy[f"{key}_{split}"]) for split, _ in _splits(cfg)]
            spectra = ", ".join(f"{split} {_fmt(e['position_min_eig'])}/"
                                f"{_fmt(e['momentum_min_eig'])} ({e['indefinite']})"
                                for split, e in splits)
            flag = "  INDEFINITE" if any(e["indefinite"] for _, e in splits) else ""
            lines.append(f"  {key}: {_fmt(drift_max[key])}; {spectra}{flag}")
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
    cfg = cfg.validate()
    outdir = Path(outdir if outdir is not None else cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.cfg").write_text(format_config(cfg))
    for _, stage in STAGES:
        stage(cfg, outdir)
    return _load_manifest(outdir)

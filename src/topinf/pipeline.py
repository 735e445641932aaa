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
(``manifest.json`` records wall-clock timings and peak memory and is
exempt).

Provenance: ``simulate_fom`` records in ``manifest.json`` (``full_order``)
the configuration fields that fix the parameters and trajectories,
``build_basis`` records the full-order record its basis was built from
(``basis``), ``infer`` records the methods and sizes it fitted, the
derivative data it used and the basis record it fitted in
(``operators``), and ``simulate_rom`` records the same fields for the
runs it integrated (``rom``); the later stages refuse to run when a
record they rely on is missing or differs from their configuration (a
configured method or size that was never inferred or simulated counts as
a difference).

Reruns: each stage owns a manifest record (``evaluate`` has none) and
artifact paths: ``simulate_fom`` ``fom/`` and the ``params_*.tpoi``
files, ``build_basis`` ``basis/``, ``infer`` ``operators/``,
``simulate_rom`` ``rom/`` and ``evaluate`` ``report/``.  Once its inputs
pass their checks, a stage withdraws its record and empties what it owns
(:func:`_claim`), and it writes the record back when it finishes.  A stage
that stops part-way thus leaves no record, so every later stage refuses
and names the stage to rerun, and a finished stage leaves exactly the
files its record describes.

Randomness: all sampling derives from the configured seed through the
package's own Philox 4x64-10 counter-based generator (:func:`make_rng`),
keyed by ``(seed, stream)`` with stream 0 for training parameters and
stream 1 for test parameters; it draws numpy's Philox bits without
importing ``numpy.random``, so on NumPy 2, which loads that module on
first use, no stage holds it.

The full-order sweep is one stacked tridiagonal step over every sample of
both splits (:func:`~topinf.heat.heat_step`,
:func:`~topinf.wave.wave_step`), which :func:`simulate_fom` runs and
streams to the sample files in time blocks of ``isqrt(n_times)`` steps:
each ``fom/{split}_{i:03d}.tpoi`` is time-major, ``(n_times, n_state)``
with one snapshot per row, filled one block at a time by a
:class:`~topinf.storage.RowWriter`, so the stage holds one block of the
sweep, not its runs.  The later stages read these files through one
helper (:func:`_load_fom`), which refuses any other shape, so a
directory written state-major, as before, is refused.  The
reduced sweep of each (label, r) is one stacked integration too.  The
basis is nested, so each stage forms its Galerkin quantities (heat's
projected tensor, wave's projected stiffness blocks) once with the
largest basis and slices them per r.  One class, :class:`Surrogate`,
turns a study's artifacts into its reduced models and every model into
per-sample generators ``A``; ``infer``'s exact derivatives,
``simulate_rom``'s sweeps and ``evaluate``'s wave energies ``E = J^T A``
derive from it, and ``Surrogate.load(outdir).run(label, r, params)``
queries a finished study at new parameters.  BLAS keeps its own threads.
A reduced run that diverges is recorded in the manifest as a structured
record ``{label, r, split, index, step}``, keeps no states file, and is
left out of the error pools.

``manifest.json`` is strict JSON: every float it records is finite or
``null``.  ``error_pools`` gives each error its number of pooled runs and
the reason for a ``null`` (``"unscored"`` or ``"out_of_range"``); a
``null`` ``cond`` of a fit comes with ``rank_deficient``; any other
``null`` is a value beyond the float range.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

# Not every imported name is used here: benchmarks/tracing.py wraps layers at
# their names in this module.  Imported for it only, 15 names: heat_operator,
# wave_full_operator, crank_nicolson, implicit_midpoint, relative_l2,
# projection_error, hamiltonian_drift, reduced_hamiltonian, symmetric_part,
# exact_reduced_derivative, intrusive_project, project_matrix,
# project_snapshots, wave_mass_form_operator and wave_stiffness.
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
    UniformSource,
    _check_params,
    build_heat_model,
    heat_features,
    heat_initial_state,
    heat_operator,
    heat_projected_stiffness,
    heat_step,
    sample_conductivities,
)
from .inference import InferenceData, compress, infer_lstsq, infer_normal, infer_symmetric
from .linalg import lstsq_min_norm
from .metrics import hamiltonian_drift, projection_error, relative_l2
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
from .storage import RowWriter, load_matrix, save_matrix, load_tensor, save_tensor
from .tensors import mode3_product
from .wave import (
    build_wave_model,
    sample_wave_speeds,
    wave_full_operator,
    wave_initial_state,
    wave_mass_form_operator,
    wave_projected_stiffness,
    wave_stiffness,
    wave_step,
)

__all__ = [
    "Surrogate",
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

#: The provenance records in ``manifest.json``: for each, the configuration
#: fields that fix its artifacts, their name, how they were made, and the
#: stage that writes them.  A field that names another record carries that
#: record: the basis carries the full-order data it was built from, and the
#: operators and reduced runs carry the basis they were made in.
_FULL_ORDER_FIELDS = ("problem", "n_elements", "breakpoints", "param_lo", "param_hi",
                      "sampling", "t0", "tf", "dt", "n_train", "n_test", "seed")
_RECORDS = {
    "full_order": (_FULL_ORDER_FIELDS,
                   "full-order", "the full-order data were simulated", "simulate-fom"),
    "basis": (_FULL_ORDER_FIELDS,
              "basis", "the basis was built from full-order data", "build-basis"),
    "operators": (("methods", "reduced_dims", "derivative", "basis"),
                  "operator", "the operators were inferred", "infer"),
    "rom": (("methods", "reduced_dims", "derivative", "basis"),
            "reduced-order", "the reduced runs were simulated", "simulate-rom"),
}


# ----------------------------------------------------------------------
# deterministic randomness


def make_rng(seed: int, stream: int) -> UniformSource:
    """The package's Philox 4x64-10 generator keyed by ``(seed, stream)``.

    It offers ``uniform(low, high, size)`` only, and draws the same bits as
    ``numpy.random.Generator(numpy.random.Philox(key=[seed, stream]))``;
    the package never imports ``numpy.random`` (NumPy 1.x loads it with
    ``numpy`` all the same; NumPy 2 loads it on first use only).
    """
    return _Philox(np.array([seed, stream], dtype=np.uint64))


_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_MULTIPLIERS = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMPS = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> _SHIFT32
    b_lo, b_hi = b & _MASK32, b >> _SHIFT32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    carry = ((a_lo * b_lo) >> _SHIFT32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    high = a_hi * b_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (carry >> _SHIFT32)
    return high, a * b


class _Philox:
    """Philox4x64-10 (Salmon et al., SC'11) as ``numpy.random.Philox`` runs it.

    The 256-bit counter starts at 0 and is incremented before each block of
    four words, used in the order v0..v3; the position carries over from
    one call to the next.  Every product and sum that can wrap is on
    ``uint64`` arrays, which wrap without the warning NumPy gives scalars.
    """

    def __init__(self, key: np.ndarray):
        self._key = key
        self._drawn = 0

    def _words(self, count: int) -> np.ndarray:
        first, skip = divmod(self._drawn, 4)
        blocks = -(-(skip + count) // 4)
        zero = np.zeros(blocks, dtype=np.uint64)
        c0, c1, c2, c3 = np.arange(first + 1, first + blocks + 1, dtype=np.uint64), zero, zero, zero
        k0, k1 = self._key[:1], self._key[1:]
        for round_ in range(10):
            if round_:
                k0, k1 = k0 + _PHILOX_BUMPS[0], k1 + _PHILOX_BUMPS[1]
            hi0, lo0 = _mulhilo(_PHILOX_MULTIPLIERS[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_MULTIPLIERS[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        self._drawn += count
        return np.stack([c0, c1, c2, c3], axis=1).ravel()[skip:skip + count]

    def uniform(self, low: float, high: float, size: tuple[int, ...]) -> np.ndarray:
        """Uniform draws on ``[low, high)`` in C order, as ``Generator.uniform`` with scalar bounds."""
        unit = (self._words(math.prod(size)) >> np.uint64(11)) * 2.0**-53
        return (low + (high - low) * unit).reshape(size)


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


def _load_fom(cfg: ExperimentConfig, outdir: Path, split: str, i: int) -> np.ndarray:
    """The full-order run ``split``/``i``, time-major ``(n_times, n_state)``: one snapshot per row.

    Any other shape is refused, a state-major ``(n_state, n_times)`` file
    written before the files turned time-major included (unless the two
    sizes are equal).
    """
    path = _fom_path(outdir, split, i)
    states = load_matrix(path)
    n_state = cfg.n_elements - 1 if cfg.problem == "heat1d" else 2 * cfg.n_elements
    if states.shape != (cfg.n_times, n_state):
        raise ValueError(f"{path} holds a {states.shape[0]} x {states.shape[1]} record, not "
                         f"{cfg.n_times} snapshots of {n_state} states; rerun simulate-fom")
    return states


def _rom_dir(outdir: Path, label: str, r: int) -> Path:
    return outdir / "rom" / f"{label}_r{r}"


def _load_params(outdir: Path, split: str) -> np.ndarray:
    return load_matrix(outdir / f"params_{split}.tpoi")


def _rel_dist(a: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.sqrt(np.sum(ref**2)))
    if scale == 0.0:
        return float(np.sqrt(np.sum(a**2)))
    return float(np.sqrt(np.sum((a - ref) ** 2)) / scale)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "null" if value is None else str(value)


def _finite(value) -> float | None:
    """``value`` as a float, or ``None`` (JSON ``null``) where it is not finite."""
    return float(value) if np.isfinite(value) else None


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
        temporary.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _config_record(cfg: ExperimentConfig) -> dict:
    """The configuration as JSON values."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(cfg).items()}


def _record(cfg: ExperimentConfig, key: str) -> dict:
    """The provenance record ``key`` of :data:`_RECORDS` for this configuration."""
    record = _config_record(cfg)
    return {k: _record(cfg, k) if k in _RECORDS else record[k] for k in _RECORDS[key][0]}


def _require_record(cfg: ExperimentConfig, manifest: dict, key: str) -> None:
    """Refuse artifacts that ``manifest`` records, as ``key``, for another configuration.

    Each recorded field must equal the configured one, except ``methods``
    and ``reduced_dims``: a stage may use any of the methods and sizes
    that were inferred or simulated.  A carried record that differs names
    its differing fields.
    """
    _, name, made, stage = _RECORDS[key]
    stored = manifest.get(key)
    if stored is None:
        raise ValueError(f"the manifest records no {name} configuration; rerun {stage}")
    changed = []
    for k, v in _record(cfg, key).items():
        have = stored.get(k)
        if isinstance(v, dict) and isinstance(have, dict):
            changed.extend(f"{k} {f} {have.get(f)!r} (configured {w!r})"
                           for f, w in v.items() if have.get(f) != w)
        elif not (set(v) <= set(have or ()) if k in ("methods", "reduced_dims")
                  else have == v):
            changed.append(f"{k} {have!r} (configured {v!r})")
    if changed:
        raise ValueError(f"{made} with " + ", ".join(changed) + f"; rerun {stage}")


def _claim(outdir: Path, key: str | None, *owned: str) -> None:
    """Withdraw the manifest record ``key``, then remove the paths matching ``owned``.

    A stage calls this once, after its input checks and before its first
    write.  The manifest is written only when it holds the record.
    """
    manifest = _load_manifest(outdir)
    if manifest.pop(key, None) is not None:
        _save_manifest(outdir, manifest)
    for pattern in owned:
        for path in outdir.glob(pattern):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


def _peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB.

    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _record_stage(cfg: ExperimentConfig, outdir: Path, name: str, seconds: float,
                  updates: dict | None = None) -> None:
    """Record a finished stage; ``updates`` replaces the fields the stage owns.

    Replacing, not merging, keeps a rerun from inheriting entries (a cleared
    divergence, an ``r`` no longer swept) that only an earlier run produced.
    ``peak_rss_mib`` records the process's peak resident set size when the
    stage ends: the peak over the process's lifetime, so a stage run in its
    own process (the command line) reports its own peak, and a stage run
    after others in one process reports the largest peak so far.
    """
    manifest = _load_manifest(outdir)
    manifest["package_version"] = __version__
    manifest["config"] = _config_record(cfg)
    manifest["stages"][name] = seconds
    manifest.setdefault("peak_rss_mib", {})[name] = _peak_rss_mib()
    manifest.update(updates or {})
    _save_manifest(outdir, manifest)


# ----------------------------------------------------------------------
# the reduced models of a study


class Surrogate:
    """A study's reduced models, read from its artifact directory.

    The constructor refuses full-order data or a basis recorded for another
    configuration, and a basis with fewer modes than ``max(cfg.reduced_dims)``
    (a larger one serves smaller sizes: bases are nested).  It builds the
    full-order model, loads the basis and projects the initial state once.
    :meth:`load` is the query entry point.  The manifest is read once per
    instance, and each learned operator file once; ``basis.truncate(r).lift``
    maps reduced states of size r to full order.

    Attributes
    ----------
    cfg : ExperimentConfig
    model : HeatModel or WaveModel
    basis : ReducedBasis
        The stored basis, at its largest size.
    initial_state : ndarray
        The basis coordinates of the full-order initial state.
    """

    def __init__(self, cfg: ExperimentConfig, outdir):
        self.cfg, self.outdir = cfg.validate(), Path(outdir)
        self._manifest = _load_manifest(self.outdir)
        _require_record(self.cfg, self._manifest, "full_order")
        _require_record(self.cfg, self._manifest, "basis")
        self.model = model = _build_model(self.cfg)
        heat, path = self.cfg.problem == "heat1d", self.outdir / "basis"
        self.basis = ReducedBasis(
            u=load_matrix(path / "u.tpoi"), singular_values=load_tensor(path / "svals.tpoi"),
            weight=model.mass if heat else model.mass_w, kind="pod" if heat else "psd",
            u_half=None if heat else load_matrix(path / "u_half.tpoi"))
        if self.basis.r < max(self.cfg.reduced_dims):
            raise ValueError(f"stored basis has {self.basis.r} modes but reduced_dims asks for "
                             f"r = {max(self.cfg.reduced_dims)}; rerun build-basis")
        self.initial_state = self.basis.project(
            heat_initial_state(model) if heat else wave_initial_state(model))
        self._operators: dict[tuple[str, int], object] = {}
        self._formed = None

    @classmethod
    def load(cls, outdir) -> "Surrogate":
        """The reduced models of the study in ``outdir``, under the configuration it recorded.

        Also refuses operators inferred for another configuration.
        """
        record = _load_manifest(Path(outdir))["config"]
        if not record:
            raise ValueError(f"{outdir} records no configuration; rerun simulate-fom")
        surrogate = cls(ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                                            for k, v in record.items()}), outdir)
        _require_record(surrogate.cfg, surrogate._manifest, "operators")
        return surrogate

    def generators(self, label: str, r: int, params: np.ndarray) -> np.ndarray:
        """The generators of model ``label`` of size r at every column of ``params``, ``(S, n, n)``.

        ``params`` is ``(p, S)``, one parameter vector per column, every
        entry finite and positive (``ValueError`` otherwise).  ``label`` is
        an inferred method or ``"intrusive"``.  Heat ``T nu``; wave
        ``[[0, A2], [-(T1 mu^2), 0]]``, intrusive ``A2 = I``.  The
        intrusive models are the leading blocks of the Galerkin quantities
        of the largest basis.
        """
        heat = self.cfg.problem == "heat1d"
        params = _check_params(params, self.model.n_subdomains,
                               "conductivities" if heat else "wave speeds")
        if not 1 <= r <= self.basis.r:
            raise ValueError(f"r must be in [1, {self.basis.r}], got {r}")
        if heat:
            tensor = (self._galerkin(params)[:r, :r] if label == INTRUSIVE
                      else self._learned(label, r))
            return mode3_product(tensor, heat_features(params))
        if label != INTRUSIVE:
            return block_operator(*self._learned(label, r), params)
        ops = np.zeros((params.shape[1], 2 * r, 2 * r))
        ops[:, :r, r:] = np.eye(r)
        ops[:, r:, :r] = -self._galerkin(params)[:, :r, :r]
        return ops

    def run(self, label: str, r: int, params: np.ndarray) -> list:
        """The runs of model ``label`` of size r, one :class:`~topinf.rom.Trajectory` per column.

        ``params`` is ``(p, S)``, checked as :meth:`generators` checks it.
        One stacked Cayley sweep from ``basis.leading(initial_state, r)``,
        the start of the runs ``simulate_rom`` stores, which
        ``basis.truncate(r).project`` matches only to rounding.
        """
        x0 = self.basis.leading(self.initial_state, r)
        return cayley_sweep(self.generators(label, r, params), x0, self.cfg.dt,
                            self.cfg.n_times, t0=self.cfg.t0)

    def _learned(self, label: str, r: int):
        """The stored operators of method ``label`` at size r: heat ``T``, wave ``(T1, A2)``."""
        if (label, r) not in self._operators:
            record = self._manifest.get("operators", {})
            inferred, sizes = record.get("methods", []), record.get("reduced_dims", [])
            if label not in inferred:
                raise ValueError(f"no {label!r} operators were inferred (inferred: "
                                 f"{', '.join(inferred) or 'none'}); rerun infer")
            if r not in sizes:
                raise ValueError(f"no operators of size {r} were inferred (inferred: "
                                 f"{', '.join(map(str, sizes)) or 'none'}); rerun infer")
            path = self.outdir / "operators"
            self._operators[label, r] = (
                load_tensor(path / f"tensor_{label}_r{r}.tpoi") if self.cfg.problem == "heat1d"
                else (load_tensor(path / f"t1_{label}_r{r}.tpoi"),
                      load_matrix(path / f"a2_{label}_r{r}.tpoi")))
        return self._operators[label, r]

    def _galerkin(self, params: np.ndarray) -> np.ndarray:
        """Galerkin quantities of the largest basis; those of size r are their leading blocks.

        Heat: the ``(r, r, p)`` projection of the (negated, dissipative)
        stiffness tensor, formed once through the stiffness bands.  Wave:
        the ``(S, r, r)`` position blocks ``Uw^T K(mu) Uw`` at every column
        of ``params``, kept for the last ``params``.
        """
        heat = self.cfg.problem == "heat1d"
        if self._formed is None or not (heat or np.array_equal(self._formed[0], params)):
            self._formed = (np.array(params, dtype=float),
                            -heat_projected_stiffness(self.model, self.basis.u) if heat
                            else wave_projected_stiffness(self.model, params, self.basis.block))
        return self._formed[1]


# ----------------------------------------------------------------------
# stage 1: full-order simulation


def simulate_fom(cfg: ExperimentConfig, outdir) -> None:
    """Sample parameters and integrate the full-order model for each.

    One stacked step (:func:`~topinf.heat.heat_step`,
    :func:`~topinf.wave.wave_step`) advances the samples of both splits;
    each sample's states are those of the sample stepped alone, bit for
    bit.  The states are stepped in time blocks of ``isqrt(n_times)`` steps
    into one reused buffer, and each block is appended to every sample's
    time-major file before the next is stepped, so the stage holds one
    block, not the runs.  A block in which a run is not finite stops the
    stage with a :class:`~topinf.errors.NumericError` naming the run and
    the step where it first turned, the earliest in time (the first in
    sample order among equals).  The step, which checks the parameters and
    ``dt``, is built before the stage empties ``fom/``, so a refused ``dt``
    leaves the last good run's files as they were.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    started = time.perf_counter()
    model = _build_model(cfg)
    if cfg.problem == "heat1d":
        x0, make_step = heat_initial_state(model), heat_step
    else:
        x0, make_step = wave_initial_state(model), wave_step
    params = {split: _draw_parameters(cfg, count,
                                      _TRAIN_STREAM if split == "train" else _TEST_STREAM)
              for split, count in _splits(cfg)}
    step = make_step(model, np.hstack(list(params.values())), cfg.dt)

    _claim(outdir, "full_order", "fom", "params_*.tpoi")
    (outdir / "fom").mkdir(parents=True)
    runs = []
    for split, drawn in params.items():
        save_matrix(outdir / f"params_{split}.tpoi", drawn)
        runs += [(split, i) for i in range(drawn.shape[1])]
    size = math.isqrt(cfg.n_times)
    block = np.empty((size + 1, x0.shape[0], len(runs)))
    block[0] = x0[:, None]
    with contextlib.ExitStack() as opened:
        files = [opened.enter_context(RowWriter(_fom_path(outdir, split, i),
                                                (cfg.n_times, x0.shape[0])))
                 for split, i in runs]
        # row 0 holds the states at time index start; after the first block
        # it is the last row of the previous block, checked and written
        for start in range(0, cfg.n_times - 1, size):
            count = min(size, cfg.n_times - 1 - start)
            with np.errstate(all="ignore"):  # a run that overflows is named below
                for j in range(count):
                    step(block[j], block[j + 1])
            bad = np.argwhere(~np.isfinite(block[:count + 1]).all(axis=1))  # earliest row first
            if bad.size:
                row, s = bad[0]
                split, i = runs[s]
                raise NumericError(f"full-order run {split}/{i} diverged at step {start + row}")
            first = 1 if start else 0
            for s, file in enumerate(files):
                file.write(block[first:count + 1, :, s])
            block[0] = block[count]

    _record_stage(cfg, outdir, "simulate_fom", time.perf_counter() - started,
                  updates={"full_order": _record(cfg, "full_order")})


# ----------------------------------------------------------------------
# stage 2: reduced basis


def build_basis(cfg: ExperimentConfig, outdir) -> None:
    """Build the reduced basis of the largest requested size from training data.

    The POD reads the training files through a generator, in sample
    order: heat's trajectories; for wave each file's position block, then
    its momentum block, each handed over as a transposed view, ``N x
    n_times``, of the time-major file.  It gathers them into groups of at
    least ``4 N`` snapshots and reduces each group to an ``N x N`` QR factor
    before it reads the next (:func:`~topinf.basis.weighted_pod`), so the
    stage holds one group, never the whole training set; the files' arrays
    are not modified.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    _require_record(cfg, _load_manifest(outdir), "full_order")
    started = time.perf_counter()
    _claim(outdir, "basis", "basis")
    (outdir / "basis").mkdir()

    model = _build_model(cfg)
    heat = cfg.problem == "heat1d"
    weight = model.mass if heat else model.mass_w
    n = weight.shape[0]
    files = (_load_fom(cfg, outdir, "train", i) for i in range(cfg.n_train))
    r_max = max(cfg.reduced_dims)
    if heat:
        b = weighted_pod(map(np.transpose, files), weight, r_max)  # holds no file it handed out
    else:  # each file's position block, then its momentum block
        b = psd_cotangent_lift((block.T for states in files
                                for block in (states[:, :n], states[:, n:])), (), weight, r_max)
        save_matrix(outdir / "basis" / "u_half.tpoi", b.u_half)
    save_matrix(outdir / "basis" / "u.tpoi", b.u)
    save_tensor(outdir / "basis" / "svals.tpoi", b.singular_values)

    _record_stage(cfg, outdir, "build_basis", time.perf_counter() - started,
                  updates={"basis": _record(cfg, "basis")})


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

    The training snapshots are projected file by file, and finite
    differences taken, once with the largest basis; each size r keeps the
    leading rows.  Exact derivatives apply the intrusive generators to the
    snapshots; they and the recovery reference use the intrusive
    operators, formed once.  Each fitting problem of each size is
    compressed once (:func:`~topinf.inference.compress`: one thin QR per
    sample, ``min(n_times, r) + 1`` columns) and every method is fitted
    to, and diagnosed on, the compressed data, so no fit reads an
    ``n_times``-long array.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    started = time.perf_counter()
    surrogate = Surrogate(cfg, outdir)
    _claim(outdir, "operators", "operators")
    (outdir / "operators").mkdir()

    params = _load_params(outdir, "train")
    # each run is projected as a state-major contiguous copy: the product
    # of a transposed view can round differently
    ys_full = np.stack([surrogate.basis.project(
        np.ascontiguousarray(_load_fom(cfg, outdir, "train", i).T)) for i in range(cfg.n_train)],
        axis=2)
    wave = cfg.problem == "wave1d"
    exact = cfg.derivative == "exact"
    if exact:
        reference = surrogate._galerkin(params)
        if wave:
            # least-squares affine-in-mu^2 fit of the position blocks: the
            # reference for the learned position tensor, exact when K(mu) is
            # affine in mu^2 (one subdomain); column by column, so nested
            coeffs, _, _ = lstsq_min_norm((params**2).T, reference.reshape(params.shape[1], -1))
            reference = np.moveaxis(coeffs.reshape(params.shape[0], *reference.shape[1:]), 0, 2)
    else:
        derivs_full = np.stack([estimate_time_derivative(ys_full[:, :, s], cfg.dt)
                                for s in range(cfg.n_train)], axis=2)

    diagnostics: dict[str, dict] = {}
    recovery: dict[str, float] = {}
    agreement: dict[str, float] = {}
    for r in cfg.reduced_dims:
        ys = surrogate.basis.leading(ys_full, r)
        if exact:  # Galerkin dynamics: heat (T nu) y; wave qdot = p, pdot = -(Uw^T K Uw) q
            ops = surrogate.generators(INTRUSIVE, r, params)
            zs = np.einsum("sij,jts->its", ops, ys, optimize=True)
        else:
            zs = surrogate.basis.leading(derivs_full, r)
        if wave:  # T1 from -pdot = (T1 mu^2) q, A2 from qdot = A2 p
            problems = (("t1", InferenceData(nus=params**2, ys=ys[:r], zs=-zs[r:])),
                        ("a2", InferenceData(nus=np.ones((1, params.shape[1])),
                                             ys=ys[r:], zs=zs[:r])))
        else:
            problems = (("tensor", InferenceData(nus=heat_features(params), ys=ys, zs=zs)),)
        problems = [(name, compress(data)) for name, data in problems]
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
                    "cond": _finite(result.cond), "rank_deficient": result.rank_deficient,
                    "residual": _finite(result.residual),
                    "stationarity": _finite(result.stationarity)}
        if exact:
            for method, tensor in fits.items():
                recovery[f"{method}_r{r}"] = _finite(_rel_dist(tensor, reference[:r, :r]))

        if "normal" in fits and "lstsq" in fits:
            agreement[f"r{r}"] = _finite(_rel_dist(fits["normal"], fits["lstsq"]))

    _record_stage(
        cfg, outdir, "infer", time.perf_counter() - started,
        updates={"inference": diagnostics, "recovery": recovery, "agreement": agreement,
                 "operators": _record(cfg, "operators")},
    )


# ----------------------------------------------------------------------
# stage 4: reduced-order simulation


def _rom_labels(cfg: ExperimentConfig) -> list[str]:
    return list(cfg.methods) + [INTRUSIVE]


def simulate_rom(cfg: ExperimentConfig, outdir) -> None:
    """Integrate every reduced model for every parameter sample.

    Each (label, r) integrates the generators of all samples of both splits
    as one stack (:func:`~topinf.rom.cayley_sweep`).  A run that diverged
    keeps no states file.
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    started = time.perf_counter()
    surrogate = Surrogate(cfg, outdir)
    _require_record(cfg, surrogate._manifest, "operators")
    _claim(outdir, "rom", "rom")
    samples = [(split, i) for split, count in _splits(cfg) for i in range(count)]
    params = np.hstack([_load_params(outdir, split) for split, _ in _splits(cfg)])

    divergences: list[dict] = []
    for r in cfg.reduced_dims:
        for label in _rom_labels(cfg):
            target = _rom_dir(outdir, label, r)
            target.mkdir(parents=True, exist_ok=True)
            runs = surrogate.run(label, r, params)
            for (split, i), traj in zip(samples, runs):
                if traj.diverged:
                    divergences.append({"label": label, "r": r, "split": split,
                                        "index": i, "step": traj.first_bad_step})
                    continue
                save_matrix(target / f"{split}_{i:03d}.tpoi", traj.states)

    _record_stage(cfg, outdir, "simulate_rom", time.perf_counter() - started,
                  updates={"divergences": divergences, "rom": _record(cfg, "rom")})


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


def _unit(peak: float) -> float:
    """The power of two by which entries of magnitude up to ``peak`` are divided before squaring.

    ``2**k``, the least ``k >= 0`` that brings every entry below ``2**480``:
    then no square overflows, nor a sum of up to ``2**63`` of them.  Scaling
    by a power of two is exact, so a sum that is finite in unit 1 keeps its
    bits.
    """
    return float(np.ldexp(1.0, max(0, int(np.frexp(peak)[1]) - 480)))


def _pooled_error(pool: list, den: float) -> tuple[float | None, str | None]:
    """``(sqrt(sum_i (a_i + ||d_i||^2) / den), None)`` over the scored runs ``pool = [(a_i, d_i)]``.

    Summed in the unit of :func:`_unit`, so a reduced run whose states are
    finite but whose squares would overflow is still scored.  Returns
    ``(None, why)`` where there is no value: ``"unscored"`` for an empty
    pool, ``"out_of_range"`` when the value exceeds the float range.
    """
    if not pool:
        return None, "unscored"
    unit = _unit(max(float(np.max(np.abs(d))) for _, d in pool))
    num = 0.0
    for a, d in pool:
        num += a / unit / unit + float(np.sum((d / unit) ** 2))
    root = float(np.sqrt(num / den)) if den > 0.0 else np.inf
    return (root * unit, None) if root <= sys.float_info.max / unit else (None, "out_of_range")


def _scored_run(states: np.ndarray, u: np.ndarray, model):
    """``(C, ||Q - U C||_M^2, ||Q||_M^2)`` of a full-order run's scored block ``Q``.

    ``Q`` is the leading ``U.shape[0]`` rows of ``states``; ``C = U^T M Q``, and
    the model applies its own mass (``apply_mass``) to every product.  The
    residual is lifted once and measured directly: ``||Q||_M^2 - ||C||^2``
    cancels.
    """
    q = states[: u.shape[0]]
    mq = model.apply_mass(q)
    c = u.T @ mq
    residual = q - u @ c
    return c, float(np.sum(residual * model.apply_mass(residual))), float(np.sum(q * mq))


def evaluate(cfg: ExperimentConfig, outdir) -> None:
    """Compute error tables, energy-drift series, and the text summary.

    Errors are scored in reduced coordinates.  The basis is mass-orthonormal
    (``U^T M U = I``) and nested (``U_r`` is the leading r columns of ``U``),
    so with ``C = U^T M Q`` taken once per full-order trajectory at the
    largest r, the error of a reduced run ``y`` of size r splits exactly:

        ||Q - U_r y||_M^2 = ||Q - U C||_M^2 + ||C[r:]||^2 + ||C[:r] - y||^2.

    The first two terms are the projection residual at size r, shared by
    every model; the last needs no lift and no mass product.  ``C`` and
    the two M-norms per full-order run go through the model's own
    ``apply_mass`` (heat's tridiagonal ``M``, wave's ``h I``), not a dense
    ``N x N`` product.  The
    basis block and weight score the leading state block: heat's whole
    state, wave's position.  Errors pool the runs that did not diverge,
    summed by :func:`_pooled_error` so that finite runs whose squares
    overflow are still scored; ``error_pools`` records each pool's run
    count and why its error is ``null``, if it is.  A
    wave run's energy is ``h = 1/2 y . (E_s y)`` with ``E_s`` from the
    sample's generator (:func:`_energies`); ``energy`` records per
    (label, r, split) the smallest eigenvalue of each block of ``E_s``,
    position and momentum, and the number of samples at which either block
    is indefinite, which are still scored.  Each run's energy is taken in
    the unit of :func:`_unit` too, which leaves the relative drift as it is.
    The drift series of each r is that of sample 0 of the held-out split
    (the training split without one).
    """
    cfg = cfg.validate()
    outdir = Path(outdir)
    started = time.perf_counter()
    surrogate = Surrogate(cfg, outdir)
    manifest = surrogate._manifest
    _require_record(cfg, manifest, "operators")
    _require_record(cfg, manifest, "rom")
    _claim(outdir, None, "report")
    report_dir = outdir / "report"
    report_dir.mkdir()
    diverged = {(d["label"], d["r"], d["split"], d["index"])
                for d in manifest.get("divergences", [])}
    wave = cfg.problem == "wave1d"
    if wave:
        params = np.hstack([_load_params(outdir, split) for split, _ in _splits(cfg)])
        first = {"train": 0, "test": cfg.n_train}  # each split's first column of params
    u = surrogate.basis.block

    runs = {split: [_scored_run(np.ascontiguousarray(_load_fom(cfg, outdir, split, i).T), u,
                                surrogate.model)
                    for i in range(count)]
            for split, count in _splits(cfg)}
    showcase = "test" if cfg.n_test > 0 else "train"

    error_rows: list[list] = []
    error_map: dict[str, float | None] = {}
    error_pools: dict[str, dict] = {}
    projection_map: dict[str, float] = {}
    drift_max: dict[str, float] = {}
    energy: dict[str, dict] = {}

    for r in cfg.reduced_dims:
        residual = {split: [tail + float(np.sum(c[r:] ** 2)) for c, tail, _ in scored]
                    for split, scored in runs.items()}
        proj = {split: float(np.sqrt(sum(residual[split]) / sum(norm for *_, norm in scored)))
                for split, scored in runs.items()}
        for split, value in proj.items():
            projection_map[f"r{r}_{split}"] = value

        drift_series: dict[str, tuple[np.ndarray, float]] = {}  # absolute drift, its unit
        for label in _rom_labels(cfg):
            if wave:
                energies = _energies(surrogate.generators(label, r, params))
                position = np.linalg.eigvalsh(energies[:, :r, :r])[:, 0]
                momentum = np.linalg.eigvalsh(energies[:, r:, r:])[:, 0]
                drift_peak = 0.0
            for split, count in _splits(cfg):
                pool, den = [], 0.0
                for i in range(count):
                    if (label, r, split, i) in diverged:
                        continue
                    red = load_matrix(_rom_dir(outdir, label, r) / f"{split}_{i:03d}.tpoi")
                    c, _, norm = runs[split][i]
                    pool.append((residual[split][i], c[:r] - red[:r]))
                    den += norm
                    if wave:  # in units of unit**2, so no square overflows
                        unit = _unit(float(np.max(np.abs(red))))
                        red = red / unit
                        h = 0.5 * np.sum(red * (energies[first[split] + i] @ red), axis=0)
                        drift, h0 = np.abs(h - h[0]), abs(float(h[0]))
                        peak = float(np.max(drift))
                        drift_peak = max(drift_peak, peak / h0 if h0 else peak * unit * unit)
                        if split == showcase and i == 0:
                            drift_series[label] = (drift, unit * unit)
                key = f"{label}_r{r}_{split}"
                value, why = _pooled_error(pool, den)
                error_rows.append([split, r, label, value, proj[split]])
                error_map[key] = value
                error_pools[key] = {"runs": len(pool), "null": why}
                if wave:
                    pos, mom = (low[first[split]:first[split] + count]
                                for low in (position, momentum))
                    energy[key] = {"position_min_eig": _finite(pos.min()),
                                   "momentum_min_eig": _finite(mom.min()),
                                   "indefinite": int(np.sum((pos < 0.0) | (mom < 0.0)))}
            if wave:
                drift_max[f"{label}_r{r}"] = _finite(drift_peak)

        if drift_series:
            times = cfg.t0 + cfg.dt * np.arange(cfg.n_times)
            rows = [[float(t)] + [float(d[k]) * area for d, area in drift_series.values()]
                    for k, t in enumerate(times)]
            _write_csv(report_dir / f"drift_r{r}.csv", ["time", *drift_series], rows)

    _write_csv(
        report_dir / "errors.csv",
        ["split", "r", "method", "relative_l2", "projection_error"],
        error_rows,
    )
    _write_summary(cfg, report_dir, manifest, error_rows, error_pools, drift_max, energy)

    _record_stage(
        cfg, outdir, "evaluate", time.perf_counter() - started,
        updates={"errors": error_map, "error_pools": error_pools, "projection": projection_map,
                 "drift_max": drift_max, "energy": energy},
    )


def _write_summary(cfg, report_dir, manifest, error_rows, error_pools, drift_max,
                   energy) -> None:
    lines = ["experiment summary", "==================", "", "configuration:"]
    lines += ["  " + line for line in format_config(cfg).rstrip("\n").splitlines()]
    lines += ["", "relative L2 errors (pooled per split; mass-weighted):",
              "  split,r,method,relative_l2,projection_error"]
    lines += ["  " + ",".join(_fmt(v) for v in row) for row in error_rows]
    nulls = [f"  {key}: {pool['runs']}; {pool['null']}"
             for key, pool in sorted(error_pools.items()) if pool["null"]]
    if nulls:
        lines += ["", "null errors (runs pooled; why):", *nulls]
    if drift_max:
        lines += ["", "max relative energy drift over all samples; per split, the smallest",
                  "position/momentum energy eigenvalues (number of indefinite samples):"]
        for key in sorted(drift_max):
            splits = [(split, energy[f"{key}_{split}"]) for split, _ in _splits(cfg)]
            spectra = ", ".join(f"{split} {_fmt(e['position_min_eig'])}/"
                                f"{_fmt(e['momentum_min_eig'])} ({e['indefinite']})"
                                for split, e in splits)
            flag = "  INDEFINITE" if any(e["indefinite"] for _, e in splits) else ""
            lines.append(f"  {key}: {_fmt(drift_max[key])}; {spectra}{flag}")
        lines += ["  (unconstrained fits are scored with the symmetric part",
                  "   of their learned operators, which defines the same",
                  "   quadratic energy)"]
    for name, title in (
            ("recovery", "operator recovery vs. intrusive reference (exact derivatives):"),
            ("agreement", "normal-equations vs. least-squares tensor distance:")):
        if manifest.get(name):
            lines += ["", title]
            lines += [f"  {key}: {_fmt(manifest[name][key])}" for key in sorted(manifest[name])]
    divs = manifest.get("divergences", [])
    lines += ["", f"diverged reduced runs: {len(divs)}"]
    lines += [f"  {d['label']}_r{d['r']}/{d['split']}_{d['index']:03d} at step {d['step']}"
              for d in divs]
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

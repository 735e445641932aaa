"""Study benchmark for topinf: offline study cost and online query latency.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload heat-default --seed 13 --seconds 30 --trace 0

One run builds the workload's configuration from ``--seed`` and runs
complete five-stage studies for ``--seconds`` seconds (at least one).  In
the gaps between stages it times set-up in fresh interpreters and online
reduced queries at unseen parameters.  Every study and query is checked;
the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` wraps the program's layers (see
``tracing.py``) and reports the per-layer metrics, writing every span to
``.bench_out/`` when the run ends.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics, median_metrics, traced_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_MIN = 7
SETUP_MAX = 8
QUERY_BLOCK = 40
QUERY_BLOCK_WARMUP = 3  # untimed: the stage just run leaves caches cold
QUERY_MIN = 200
QUERY_STREAM = 2  # Philox stream the pipeline never draws from
DRIFT_TOL = 1e-9
BASELINE_RTOL = 1e-6
QUERY_REPRO_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a config recipe plus its correctness checks."""

    name: str
    problem: str
    overrides: dict
    primary: str
    agreement_tol: float | None


WORKLOADS = {
    w.name: w
    for w in (
        # Many small reduced-model solves; never runs the symmetric solver or wave.
        Workload("heat-default", "heat1d", {}, "normal", 1e-8),
        # Its finite-difference symmetric fit is unstable at some seeds, so it
        # stays out of BENCHMARK.json (see README.md, known defects).
        Workload("wave-default", "wave1d", {}, "symmetric", None),
        # The only workload with wave stiffness rebuilds, midpoint stepping and drift.
        Workload("wave-exact", "wave1d", {"derivative": "exact"}, "symmetric", None),
        # Intrusive projection and a 2700-unknown symmetric fit at r=30.
        Workload(
            "heat-exact-large", "heat1d",
            {"n_elements": 400, "n_train": 8, "n_test": 2, "reduced_dims": (10, 20, 30),
             "methods": ("normal", "lstsq", "symmetric"), "derivative": "exact"},
            "symmetric", 1e-4,
        ),
    )
}


def _import_topinf():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "topinf" / "__init__.py").is_file():
        raise ImportError(f"no topinf sources under {src}")
    sys.path.insert(0, str(src))
    import topinf

    if Path(topinf.__file__).resolve().parent != (src / "topinf").resolve():
        raise ImportError(f"imported topinf from {topinf.__file__}, not {src}")
    return topinf


# ----------------------------------------------------------------------
# inputs


def make_config(topinf, workload: Workload, seed: int):
    base = topinf.default_config(workload.problem)
    return dataclasses.replace(base, **workload.overrides, seed=seed).validate()


def warmup_config(cfg):
    """A small study of the same problem that touches every code path."""
    return dataclasses.replace(
        cfg, n_elements=24, n_train=4, n_test=1, tf=cfg.t0 + 10 * cfg.dt,
        reduced_dims=(2,),
    ).validate()


def query_parameters(topinf, cfg, rng, count: int) -> np.ndarray:
    """``count`` parameter vectors drawn like the config's own samples."""
    if cfg.sampling == "log_uniform":
        return topinf.sample_conductivities(rng, count, cfg.n_subdomains,
                                            cfg.param_lo, cfg.param_hi)
    return topinf.sample_wave_speeds(rng, count, cfg.n_subdomains,
                                     cfg.param_lo, cfg.param_hi)


# ----------------------------------------------------------------------
# set-up, studies and queries


def measure_setup(cfg) -> float:
    """Seconds from spawning a fresh interpreter to a built FEM model.

    The child reports ``time.monotonic()`` once the model exists; on Linux
    that clock is system-wide, so the difference to the parent's spawn
    time excludes interpreter teardown.
    """
    builder = "build_heat_model" if cfg.problem == "heat1d" else "build_wave_model"
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import topinf\n"
        "getattr(topinf, sys.argv[2])(int(sys.argv[3]), "
        "tuple(float(b) for b in sys.argv[4].split(',')))\n"
        "print(repr(time.monotonic()))\n"
    )
    argv = [sys.executable, "-c", code, str(ROOT / "src"), builder, str(cfg.n_elements),
            ",".join(repr(b) for b in cfg.breakpoints)]
    started = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - started


def run_study(topinf, cfg, outdir: Path, tracer=None, between=None) -> tuple[float, dict]:
    """Run the five stages one at a time; returns (seconds, manifest).

    ``between(stage_name)`` runs after each stage, outside the timed intervals.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    seconds = 0.0
    with tracer.span("study") if tracer else contextlib.nullcontext():
        for name, stage in topinf.pipeline.STAGES:
            started = time.perf_counter()
            with tracer.span(f"stage.{name}") if tracer else contextlib.nullcontext():
                stage(cfg, outdir)
            seconds += time.perf_counter() - started
            if between is not None:
                between(name)
    return seconds, json.loads((outdir / "manifest.json").read_text())


def primary_test_error(workload: Workload, cfg, manifest: dict) -> float:
    return float(manifest["errors"][f"{workload.primary}_r{max(cfg.reduced_dims)}_test"])


def study_problems(workload: Workload, cfg, manifest: dict, baseline: float | None,
                   first_error: float | None) -> list[str]:
    """Invariant violations of one finished study (empty when correct)."""
    problems = []
    if manifest["divergences"]:
        problems.append(f"divergences: {manifest['divergences']}")
    error = primary_test_error(workload, cfg, manifest)
    if not math.isfinite(error):
        problems.append(f"test_error is {error}")
    if first_error is not None and error != first_error:
        problems.append(f"test_error {error!r} differs from this run's first study "
                        f"{first_error!r}")
    if baseline is not None and not math.isclose(error, baseline, rel_tol=BASELINE_RTOL):
        problems.append(f"test_error {error!r} differs from the recorded {baseline!r}")
    if cfg.problem == "wave1d" and "symmetric" in cfg.methods:
        for r in cfg.reduced_dims:
            drift = manifest["drift_max"][f"symmetric_r{r}"]
            if not drift <= DRIFT_TOL:
                problems.append(f"symmetric_r{r} drift {drift:.3e} > {DRIFT_TOL:g}")
    if workload.agreement_tol is not None:
        for key, value in sorted(manifest["agreement"].items()):
            if not value <= workload.agreement_tol:
                problems.append(f"agreement {key} {value:.3e} > {workload.agreement_tol:g}")
    return problems


class Query:
    """Online reduced query of the primary model at the largest basis size.

    The learned operator is read once from the study's artifacts; each call
    assembles the operator at ``mu``, integrates the full horizon from the
    projected initial state and lifts the trajectory to full order.
    """

    def __init__(self, topinf, workload: Workload, cfg, outdir: Path):
        t = topinf
        r = max(cfg.reduced_dims)
        label = workload.primary
        ops = outdir / "operators"
        u = t.load_matrix(outdir / "basis" / "u.tpoi")
        if cfg.problem == "heat1d":
            model = t.build_heat_model(cfg.n_elements, cfg.breakpoints)
            basis = t.ReducedBasis(u=u, weight=model.mass, kind="pod")
            x0 = t.heat_initial_state(model)
            tensor = t.load_tensor(ops / f"tensor_{label}_r{r}.tpoi")
            self.assemble = lambda mu: t.mode3_product(tensor, t.heat_features(mu))
            self.integrate = lambda op: t.crank_nicolson(op, self.red0, cfg.dt, cfg.n_times,
                                                         t0=cfg.t0)
        else:
            model = t.build_wave_model(cfg.n_elements, cfg.breakpoints)
            half = t.load_matrix(outdir / "basis" / "u_half.tpoi")
            basis = t.ReducedBasis(u=u, weight=model.mass_w, kind="psd", u_half=half)
            x0 = t.wave_initial_state(model)
            t1 = t.load_tensor(ops / f"t1_{label}_r{r}.tpoi")
            a2 = t.load_matrix(ops / f"a2_{label}_r{r}.tpoi")
            self.assemble = lambda mu: t.block_operator(t1, a2, mu)
            self.integrate = lambda op: t.implicit_midpoint(op, self.red0, cfg.dt,
                                                            cfg.n_times, t0=cfg.t0)
        self.basis = basis.truncate(r)
        self.red0 = self.basis.project(x0)
        self.stored_name = f"{label}_r{r}/test_000.tpoi"
        self.stored = t.load_matrix(outdir / "rom" / self.stored_name)
        self.test_mu = t.load_matrix(outdir / "params_test.tpoi")[:, 0]

    def __call__(self, mu) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float, float]]:
        t0 = time.perf_counter()
        op = self.assemble(mu)
        t1 = time.perf_counter()
        traj = self.integrate(op)
        t2 = time.perf_counter()
        full = self.basis.lift(traj.states)
        t3 = time.perf_counter()
        return traj, full, (t0, t1, t2, t3)

    def problems(self, traj, full) -> list[str]:
        if traj.diverged:
            return [f"query diverged at step {traj.first_bad_step}"]
        if not np.all(np.isfinite(full)):
            return ["query produced non-finite states"]
        return []

    def reproduction_problems(self) -> list[str]:
        """A query at the first test parameter must match the stored ROM run."""
        traj, full, _ = self(self.test_mu)
        scale = float(np.max(np.abs(self.stored)))
        dev = float(np.max(np.abs(traj.states - self.stored)))
        if not dev <= QUERY_REPRO_RTOL * scale:
            return [f"query at the first test parameter deviates {dev:.3e} "
                    f"from the stored {self.stored_name}"]
        return self.problems(traj, full)


class QuerySampler:
    """Checked, timed queries in blocks, at parameters from the query stream.

    Blocks run between the stages of untraced studies, so query latency is
    sampled across the whole run rather than in one burst.
    """

    def __init__(self, topinf, workload: Workload, cfg, outdir: Path, tally: "Tally"):
        self.topinf, self.cfg, self.tally = topinf, cfg, tally
        self.query = Query(topinf, workload, cfg, outdir)
        self.rng = topinf.make_rng(cfg.seed, QUERY_STREAM)
        self.stamps: list[tuple[float, float, float, float]] = []
        problems = tally.call("query reproduction", self.query.reproduction_problems)
        if problems is not None:
            tally.record("query reproduction", problems)

    def block(self) -> None:
        """Run one block; its first few queries are checked but not timed."""
        mus = query_parameters(self.topinf, self.cfg, self.rng, QUERY_BLOCK)
        for i in range(QUERY_BLOCK):
            what = f"query {len(self.stamps)}"
            done = self.tally.call(what, self.query, mus[:, i])
            if done is None:
                continue
            traj, full, stamps = done
            if self.tally.record(what, self.query.problems(traj, full)) \
                    and i >= QUERY_BLOCK_WARMUP:
                self.stamps.append(stamps)


# ----------------------------------------------------------------------
# environment and provenance


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.with_name("numpy.libs")
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(tpoi_threads: str | None) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
        "TPOI_THREADS": "cleared" + ("" if tpoi_threads is None else f" (was {tpoi_threads!r})"),
    }


# ----------------------------------------------------------------------
# one run


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith(("_us_per_step", "_us_p50")):
        return "us"
    if leaf.endswith(("_ms_p50", "_ms_p90")):
        return "ms"
    if leaf.endswith("_mib"):
        return "MiB"
    if leaf.endswith("_s"):
        return "s"
    if leaf.startswith("bytes_"):
        return "B"
    if leaf in ("coverage", "test_error"):
        return "ratio"
    return "count"


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failures.extend(f"{what}: {p}" for p in problems)
        return not problems

    def call(self, what: str, fn, *args):
        """Run one operation; a raise counts as a failure and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # the harness keeps going after a failed operation
            self.record(what, [f"raised {type(exc).__name__}: {exc}"])
            return None


def run(topinf, workload: Workload, seed: int, seconds: float, trace: bool,
        workdir: Path, setup_min: int = SETUP_MIN, query_min: int = QUERY_MIN,
        baseline: float | None = None, spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the metrics, counts and sample sizes.

    Set-up spawns and query blocks run in the gaps after each stage of the
    untraced studies, outside the timed stage intervals.  The machine's
    speed drifts over seconds, so spreading these samples across the whole
    run steadies their medians far more than taking them in one burst.
    """
    cfg = make_config(topinf, workload, seed)
    tally = Tally()
    metrics: dict[str, float] = {}
    unbounded: dict[str, float] = {}  # printed, but too seed- or host-dependent to bound
    samples: dict[str, int] = {}
    outdir = workdir / "study"
    setups: list[float] = []
    sampler: QuerySampler | None = None

    def spawn_setup():
        value = tally.call(f"setup {len(setups)}", measure_setup, cfg)
        if value is not None:
            tally.record(f"setup {len(setups)}", [])
            setups.append(value)

    def between(stage: str):
        nonlocal sampler
        if sampler is None and stage == "simulate_rom":
            sampler = tally.call("query set-up", QuerySampler,
                                 topinf, workload, cfg, outdir, tally)
        if sampler is not None:
            sampler.block()
        if not trace and len(setups) < SETUP_MAX:
            spawn_setup()

    if tally.call("warm-up study", run_study, topinf, warmup_config(cfg), outdir) is not None:
        tally.record("warm-up study", [])

    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    errors: list[float] = []
    tracer = Tracer()

    attempts = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or (not untraced and attempts < 3):
        attempts += 1
        for traced_run in ((False, True) if trace else (False,)):
            what = f"{'traced ' if traced_run else ''}study {attempts}"
            if traced_run:
                with traced_layers(tracer):
                    done = tally.call(what, run_study, topinf, cfg, outdir, tracer)
            else:
                done = tally.call(what, run_study, topinf, cfg, outdir, None, between)
            if done is None:
                continue
            elapsed, manifest = done
            tally.record(what, study_problems(
                workload, cfg, manifest, baseline, errors[0] if errors else None))
            errors.append(primary_test_error(workload, cfg, manifest))
            if traced_run:
                traced.append(elapsed)
                root = next(s for s in reversed(tracer.spans) if s.name == "study")
                layers.append(layer_metrics(tracer.spans, root))
            else:
                untraced.append(elapsed)
    if not untraced:
        raise RuntimeError("no study completed: " + "; ".join(tally.failures))
    if sampler is None:
        raise RuntimeError("no query model: " + "; ".join(tally.failures))
    while not trace and len(setups) < setup_min and len(tally.failures) < 3:
        spawn_setup()
    while len(sampler.stamps) < query_min:
        sampler.block()
    if not sampler.stamps:
        raise RuntimeError("no query completed: " + "; ".join(tally.failures))
    totals = [t3 - t0 for t0, _, _, t3 in sampler.stamps]

    if trace:
        metrics.update(median_metrics(layers) if layers else {})
        assemble, integrate, lift = zip(*((t1 - t0, t2 - t1, t3 - t2)
                                          for t0, t1, t2, t3 in sampler.stamps))
        metrics["query.assemble_us_p50"] = 1e6 * statistics.median(assemble)
        metrics["query.integrate_ms_p50"] = 1e3 * statistics.median(integrate)
        metrics["query.lift_ms_p50"] = 1e3 * statistics.median(lift)
        metrics["query.total_ms_p50"] = 1e3 * statistics.median(totals)
        metrics["query.samples"] = len(totals)
        if traced:
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["quality.test_error"] = errors[0]
        if spans_path is not None:
            for t0, t1, t2, t3 in sampler.stamps:
                span = tracer.add("query", t0, t3)
                for name, a, b in (("assemble", t0, t1), ("integrate", t1, t2),
                                   ("lift", t2, t3)):
                    tracer.add(f"query.{name}", a, b, span)
            tracer.dump(spans_path)
    else:
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        metrics["study_s"] = statistics.median(untraced)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["query_ms_p90"] = 1e3 * float(np.percentile(totals, 90))
        unbounded["query_ms_p50"] = 1e3 * float(np.percentile(totals, 50))
    samples["study_s"] = len(untraced)
    samples["traced_studies"] = len(traced)
    samples["query_ms"] = len(totals)
    if errors:
        unbounded["test_error"] = errors[0]

    return {
        "workload": workload.name,
        "seed": seed,
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in dataclasses.asdict(cfg).items()},
        "trace": trace,
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "metrics": metrics,
        "unbounded": unbounded,
        "samples": samples,
        "values": {"study_s": untraced, "traced_study_s": traced, "setup_s": setups},
    }


def load_baseline() -> dict:
    return json.loads((HERE / "baseline.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's own seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tpoi_threads = os.environ.pop("TPOI_THREADS", None)
    try:
        topinf = _import_topinf()
    except ImportError as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    default_seed = topinf.default_config(workload.problem).seed
    seed = default_seed if args.seed is None else args.seed
    recorded = load_baseline()["test_error"].get(workload.name)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{stem}-{os.getpid()}"
    try:
        result = run(topinf, workload, seed, args.seconds, bool(args.trace), workdir,
                     baseline=recorded if seed == default_seed else None,
                     spans_path=OUT_DIR / f"spans-{stem}.jsonl")
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(tpoi_threads)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {workload.name}  seed {seed}  trace {args.trace}")
    for key, value in result["environment"].items():
        print(f"  env {key}: {value}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    for name, value in sorted(result["unbounded"].items()):
        print(f"  {name} = {value!r} {unit_of(name)} (not bounded)")
    counts = ", ".join(f"{k} n={v}" for k, v in result["samples"].items())
    print(f"  samples: {counts}")
    print(f"  primary model: {workload.primary} at r={max(result['config']['reduced_dims'])}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder and layer wrappers for the traced benchmark run.

The program under test is timed from outside: :func:`traced_layers`
replaces public layer functions at the module attributes where callers
look them up, records one span per call, and restores every original
attribute on exit.  Spans stay in memory; :meth:`Tracer.dump` writes them
out once the run ends.  :func:`layer_metrics` reduces the spans of one
traced study to the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from dataclasses import dataclass, field

MIB = float(1 << 20)

STAGE_PREFIX = "stage."
INTEGRATORS = ("rom.crank_nicolson", "rom.implicit_midpoint")
INFER = {
    "inference.infer_normal": "normal",
    "inference.infer_lstsq": "lstsq",
    "inference.infer_symmetric": "symmetric",
}
SOLVES = {"normal": "linalg.solve_sym", "lstsq": "linalg.lstsq_min_norm",
          "symmetric": "linalg.solve_sym"}
ASSEMBLES = {"normal": "inference.assemble_normal_system",
             "lstsq": "inference.assemble_lstsq_system"}
DIAGNOSTICS = ("inference.objective", "inference.objective_gradient")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def add(self, name: str, start: float, end: float, parent: Span | None = None,
            **attrs) -> Span:
        """Record an already-timed interval."""
        span = Span(len(self.spans), name, start, end,
                    None if parent is None else parent.id, attrs)
        self.spans.append(span)
        return span

    def dump(self, path) -> None:
        """Write all spans as JSON lines: id, name, start, end, parent, attrs."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "attrs": s.attrs}) + "\n")


# ----------------------------------------------------------------------
# annotations: counts computed from a call's arguments and result


def _states_mib(*lists) -> dict:
    return {"mib": sum(getattr(s, "nbytes", 0) for group in lists for s in group) / MIB}


def _trajectory(args, kwargs, out) -> dict:
    good = int(out.first_bad_step) - 1 if out.diverged else out.states.shape[1] - 1
    return {"steps": good, "diverged": bool(out.diverged)}


def _pod(args, kwargs, out) -> dict:
    return _states_mib(args[0])


def _cotangent(args, kwargs, out) -> dict:
    return _states_mib(args[0], args[1])


def _system_pair(args, kwargs, out) -> dict:
    return {"mib": (out[0].nbytes + out[1].nbytes) / MIB}


def _symmetric_system(args, kwargs, out) -> dict:
    unknowns = out.tensor.size
    return {"unknowns": unknowns, "mib": (unknowns * unknowns + unknowns) * 8 / MIB}


def _file_bytes(args, kwargs, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _layer_table():
    """``(owner, attribute, span name, annotation)`` for every wrapped layer.

    Covers every function imported into ``topinf.pipeline``, the inference
    internals looked up in ``topinf.inference``, ``wave_stiffness`` as looked
    up inside ``topinf.wave``, and the basis ``project``/``lift`` methods.
    """
    from topinf import basis, inference, pipeline, wave

    imported = {
        "basis": ("estimate_time_derivative", "exact_reduced_derivative",
                  "project_snapshots", "psd_cotangent_lift", "weighted_pod"),
        "heat": ("build_heat_model", "heat_features", "heat_initial_state",
                 "heat_operator", "sample_conductivities"),
        "inference": ("infer_lstsq", "infer_normal", "infer_symmetric"),
        "linalg": ("lstsq_min_norm",),
        "metrics": ("hamiltonian_drift", "projection_error", "relative_l2"),
        "rom": ("block_operator", "crank_nicolson", "implicit_midpoint",
                "intrusive_project", "project_matrix", "reduced_hamiltonian",
                "symmetric_part"),
        "storage": ("load_matrix", "save_matrix", "load_tensor", "save_tensor"),
        "tensors": ("mode3_product",),
        "wave": ("build_wave_model", "sample_wave_speeds", "wave_full_operator",
                 "wave_initial_state", "wave_mass_form_operator", "wave_stiffness"),
    }
    notes = {
        "rom.crank_nicolson": _trajectory,
        "rom.implicit_midpoint": _trajectory,
        "basis.weighted_pod": _pod,
        "basis.psd_cotangent_lift": _cotangent,
        "inference.infer_symmetric": _symmetric_system,
        "storage.load_matrix": _file_bytes,
        "storage.load_tensor": _file_bytes,
        "storage.save_matrix": _file_bytes,
        "storage.save_tensor": _file_bytes,
    }
    table = [(pipeline, attr, f"{mod}.{attr}", notes.get(f"{mod}.{attr}"))
             for mod, attrs in imported.items() for attr in attrs]
    table += [
        (inference, "assemble_normal_system", "inference.assemble_normal_system", _system_pair),
        (inference, "assemble_lstsq_system", "inference.assemble_lstsq_system", _system_pair),
        (inference, "solve_sym", "linalg.solve_sym", None),
        (inference, "lstsq_min_norm", "linalg.lstsq_min_norm", None),
        (inference, "uniqueness_check", "inference.uniqueness_check", None),
        (inference, "objective", "inference.objective", None),
        (inference, "objective_gradient", "inference.objective_gradient", None),
        (wave, "wave_stiffness", "wave.wave_stiffness", None),
        (basis.ReducedBasis, "project", "basis.project", None),
        (basis.ReducedBasis, "lift", "basis.lift", None),
    ]
    return table


def wrapped_attributes() -> list[tuple[object, str]]:
    """The ``(owner, attribute)`` pairs :func:`traced_layers` replaces."""
    return [(owner, attr) for owner, attr, _, _ in _layer_table()]


def _wrap(tracer: Tracer, fn, name: str, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if note is not None:
            span.attrs.update(note(args, kwargs, out))
        return out

    return wrapper


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Wrap every layer for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, note in _layer_table():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# reduction of one traced study to per-layer metrics


def layer_metrics(spans: list[Span], study_root: Span) -> dict[str, float]:
    """Per-layer metrics of the study whose spans descend from ``study_root``."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def dur(s: Span) -> float:
        return s.end - s.start

    def self_time(s: Span) -> float:
        return dur(s) - sum(dur(c) for c in children.get(s.id, ()))

    def ancestor(s: Span, accept) -> Span | None:
        while s.parent is not None:
            s = by_id[s.parent]
            if accept(s):
                return s
        return None

    def under_root(s: Span) -> bool:
        return ancestor(s, lambda a: a is study_root) is not None

    study = [s for s in spans if under_root(s)]
    stages = {s.name[len(STAGE_PREFIX):]: s for s in study if s.parent == study_root.id}
    named: dict[str, list[Span]] = {}
    for s in study:
        named.setdefault(s.name, []).append(s)

    def total(*names: str) -> float:
        return sum(dur(s) for n in names for s in named.get(n, ()))

    def count(*names: str) -> int:
        return sum(len(named.get(n, ())) for n in names)

    def stage_of(s: Span) -> str:
        a = ancestor(s, lambda x: x.name.startswith(STAGE_PREFIX))
        return "" if a is None else a.name[len(STAGE_PREFIX):]

    def method_of(s: Span) -> str | None:
        a = ancestor(s, lambda x: x.name in INFER)
        return None if a is None else INFER[a.name]

    m: dict[str, float] = {}
    study_s = sum(dur(s) for s in stages.values())
    for stage, span in stages.items():
        m[f"pipeline.{stage}_s"] = dur(span)
    pipeline_self = sum(self_time(s) for s in stages.values())
    m["pipeline.self_s"] = pipeline_self
    m["pipeline.model_builds"] = count("heat.build_heat_model", "wave.build_wave_model")

    integrations = [s for n in INTEGRATORS for s in named.get(n, ())]
    for kind, stage in (("fom", "simulate_fom"), ("rom", "simulate_rom")):
        runs = [s for s in integrations if stage_of(s) == stage]
        seconds = sum(dur(s) for s in runs)
        steps = sum(s.attrs["steps"] for s in runs)
        m[f"rom.{kind}_integrate_s"] = seconds
        m[f"rom.{kind}_trajectories"] = len(runs)
        m[f"rom.{kind}_steps"] = steps
        m[f"rom.{kind}_us_per_step"] = 1e6 * seconds / steps if steps else 0.0
    m["rom.diverged"] = sum(1 for s in integrations if s.attrs["diverged"])
    m["rom.intrusive_project_s"] = total("rom.intrusive_project")
    m["rom.intrusive_project_calls"] = count("rom.intrusive_project")
    m["rom.project_matrix_s"] = total("rom.project_matrix")

    m["wave.stiffness_s"] = total("wave.wave_stiffness")
    m["wave.stiffness_calls"] = count("wave.wave_stiffness")
    m["wave.full_operator_s"] = total("wave.wave_full_operator")
    m["wave.build_model_s"] = total("wave.build_wave_model")
    m["heat.build_model_s"] = total("heat.build_heat_model")
    m["heat.operator_s"] = total("heat.heat_operator")

    pods = named.get("basis.weighted_pod", []) + named.get("basis.psd_cotangent_lift", [])
    m["basis.pod_s"] = sum(dur(s) for s in pods)
    m["basis.pod_stack_mib"] = max((s.attrs["mib"] for s in pods), default=0.0)
    m["basis.project_s"] = total("basis.project")
    m["basis.lift_s"] = total("basis.lift")
    m["basis.derivative_s"] = total("basis.estimate_time_derivative",
                                    "basis.exact_reduced_derivative")

    for method in ("normal", "lstsq", "symmetric"):
        fits = named.get(f"inference.infer_{method}", [])
        inner = [s for s in study if method_of(s) == method]

        def inner_total(*names: str) -> float:
            return sum(dur(s) for s in inner if s.name in names)

        key = f"inference.{method}"
        m[f"{key}.calls"] = len(fits)
        if method == "symmetric":
            m[f"{key}.assemble_s"] = sum(self_time(s) for s in fits)
            sizes = fits
        else:
            m[f"{key}.assemble_s"] = inner_total(ASSEMBLES[method])
            sizes = [s for s in inner if s.name == ASSEMBLES[method]]
        m[f"{key}.solve_s"] = inner_total(SOLVES[method])
        m[f"{key}.diagnostics_s"] = inner_total(*DIAGNOSTICS)
        m[f"{key}.system_mib"] = max((s.attrs["mib"] for s in sizes), default=0.0)
    m["inference.symmetric.unknowns_max"] = max(
        (s.attrs["unknowns"] for s in named.get("inference.infer_symmetric", [])), default=0)
    m["inference.uniqueness_s"] = total("inference.uniqueness_check")

    m["metrics.relative_l2_s"] = total("metrics.relative_l2")
    m["metrics.projection_error_s"] = total("metrics.projection_error")
    m["metrics.drift_s"] = total("metrics.hamiltonian_drift")

    reads = named.get("storage.load_matrix", []) + named.get("storage.load_tensor", [])
    writes = named.get("storage.save_matrix", []) + named.get("storage.save_tensor", [])
    m["storage.read_s"] = sum(dur(s) for s in reads)
    m["storage.write_s"] = sum(dur(s) for s in writes)
    m["storage.bytes_read"] = sum(s.attrs["bytes"] for s in reads)
    m["storage.bytes_written"] = sum(s.attrs["bytes"] for s in writes)
    m["storage.files_read"] = len(reads)
    m["storage.files_written"] = len(writes)

    m["trace.coverage"] = 1.0 - pipeline_self / study_s if study_s > 0 else 0.0
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several traced studies."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def self_times(records: list[dict]) -> dict[str, float]:
    """Self time per span name from span-file records: duration minus children."""
    out: dict[str, float] = {}
    by_id = {r["id"]: r for r in records}
    for r in records:
        d = r["end"] - r["start"]
        out[r["name"]] = out.get(r["name"], 0.0) + d
        if r["parent"] is not None:
            parent = by_id[r["parent"]]["name"]
            out[parent] = out.get(parent, 0.0) - d
    return out


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 2:
        sys.exit("usage: python3 benchmarks/tracing.py SPAN_FILE")
    with open(sys.argv[1]) as fh:
        spans = [json.loads(line) for line in fh]
    for name, seconds in sorted(self_times(spans).items(), key=lambda kv: -kv[1]):
        print(f"{seconds:10.4f} s  {name}")

"""Experiment configuration: schema, defaults, and the flat text format.

A configuration file is a flat key-value document: one ``key = value``
pair per line, ``#`` starts a comment, blank lines are ignored.  List
values are comma-separated.  Keys not in the schema are rejected.  Two
problems are built in, each with complete defaults, so a minimal file is::

    problem = heat1d

Every quantity that affects numerics is part of the configuration, and
all randomness is derived from ``seed`` through a counter-based generator
(see :mod:`topinf.pipeline`), so a configuration plus a seed pins the
entire experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import heat, wave

__all__ = ["ExperimentConfig", "default_config", "parse_config", "format_config",
           "load_config_file"]

PROBLEMS = ("heat1d", "wave1d")
METHODS = ("normal", "lstsq", "symmetric")
SAMPLINGS = ("log_uniform", "uniform")
DERIVATIVES = ("finite_difference", "exact")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of an end-to-end experiment.

    Attributes
    ----------
    problem : str
        ``"heat1d"`` or ``"wave1d"``.
    n_elements : int
        Uniform mesh size of the full-order model.
    breakpoints : tuple of float
        Interior subdomain boundaries; the parameter dimension is
        ``len(breakpoints) + 1``.
    param_lo, param_hi : float
        Sampling range of each parameter entry.
    sampling : str
        ``"log_uniform"`` or ``"uniform"``.
    t0, tf, dt : float
        Time grid; ``dt`` must divide ``tf - t0`` into at least one step,
        two for finite-difference derivatives.
    n_train, n_test : int
        Parameter sample counts for the two splits.
    reduced_dims : tuple of int
        Basis sizes to sweep (ascending).
    methods : tuple of str
        Inference methods to run (subset of ``normal, lstsq, symmetric``).
    derivative : str
        ``"finite_difference"`` or ``"exact"``.
    seed : int
        Root seed for all sampling, in ``[0, 2**64)``.
    output_dir : str
        Artifact directory (CLI ``--out`` overrides).
    """

    problem: str
    n_elements: int
    breakpoints: tuple[float, ...]
    param_lo: float
    param_hi: float
    sampling: str
    t0: float
    tf: float
    dt: float
    n_train: int
    n_test: int
    reduced_dims: tuple[int, ...]
    methods: tuple[str, ...]
    derivative: str
    seed: int
    output_dir: str

    @property
    def n_subdomains(self) -> int:
        return len(self.breakpoints) + 1

    @property
    def n_times(self) -> int:
        return int(round((self.tf - self.t0) / self.dt)) + 1

    def validate(self) -> "ExperimentConfig":
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.n_elements < 2:
            raise ValueError("n_elements must be at least 2")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not (0.0 < b < 2.0 * np.pi) for b in self.breakpoints):
            raise ValueError("breakpoints must lie inside (0, 2*pi)")
        if not (0.0 < self.param_lo < self.param_hi):
            raise ValueError("need 0 < param_lo < param_hi")
        if self.sampling not in SAMPLINGS:
            raise ValueError(f"sampling must be one of {SAMPLINGS}")
        if not (0.0 < self.dt < np.inf and self.tf > self.t0):
            raise ValueError("need a finite dt > 0 and tf > t0")
        steps = (self.tf - self.t0) / self.dt
        if not steps < np.inf:
            raise ValueError(f"tf - t0 = {self.tf - self.t0} is not a finite number of steps "
                             f"of dt = {self.dt}")
        if abs(steps - round(steps)) > 1e-8 * max(steps, 1.0):
            raise ValueError(f"dt={self.dt} does not divide tf - t0 = {self.tf - self.t0}")
        if self.n_train < 1 or self.n_test < 0:
            raise ValueError("need n_train >= 1 and n_test >= 0")
        if not self.reduced_dims:
            raise ValueError("reduced_dims must not be empty")
        if any(r < 1 for r in self.reduced_dims):
            raise ValueError("reduced dimensions must be positive")
        if any(r2 <= r1 for r1, r2 in zip(self.reduced_dims, self.reduced_dims[1:])):
            raise ValueError("reduced_dims must be strictly increasing")
        if not self.methods:
            raise ValueError("methods must not be empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.derivative not in DERIVATIVES:
            raise ValueError(f"derivative must be one of {DERIVATIVES}")
        # the second-order difference stencils read three time points
        least = 3 if self.derivative == "finite_difference" else 2
        if self.n_times < least:
            raise ValueError(f"{self.derivative} derivatives need at least {least} time points, "
                             f"got n_times = {self.n_times}")
        # the seed is the first 64-bit word of the Philox key (make_rng)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        return self


def default_config(problem: str) -> ExperimentConfig:
    """Built-in defaults for each problem.

    Breakpoints and sampling ranges are the problem modules' ``DEFAULT_*``.
    """
    if problem == "heat1d":
        return ExperimentConfig(
            problem="heat1d",
            n_elements=201,
            breakpoints=heat.DEFAULT_BREAKPOINTS,
            param_lo=heat.DEFAULT_RANGE[0],
            param_hi=heat.DEFAULT_RANGE[1],
            sampling="log_uniform",
            t0=0.0,
            tf=2.0,
            dt=0.008,
            n_train=20,
            n_test=5,
            reduced_dims=(2, 4, 6, 8, 10),
            methods=("normal", "lstsq"),
            derivative="finite_difference",
            seed=13,
            output_dir="runs/heat1d",
        )
    if problem == "wave1d":
        return ExperimentConfig(
            problem="wave1d",
            n_elements=200,
            breakpoints=wave.DEFAULT_BREAKPOINTS,
            param_lo=wave.DEFAULT_RANGE[0],
            param_hi=wave.DEFAULT_RANGE[1],
            sampling="uniform",
            t0=0.0,
            tf=4.0 * np.pi,
            dt=np.pi / 100.0,
            n_train=10,
            n_test=3,
            reduced_dims=(2, 4, 6, 8, 10),
            methods=("symmetric", "lstsq"),
            derivative="finite_difference",
            seed=7,
            output_dir="runs/wave1d",
        )
    raise ValueError(f"problem must be one of {PROBLEMS}, got {problem!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format; unknown keys raise ``ValueError``.

    Each value is read as its :class:`ExperimentConfig` field's annotated
    type; a tuple field's items as the tuple's item type.
    """
    hints = get_type_hints(ExperimentConfig)
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in hints:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()

    if "problem" not in pairs:
        raise ValueError("configuration must set 'problem'")
    cfg = default_config(pairs.pop("problem"))

    updates: dict = {}
    for key, value in pairs.items():
        hint = hints[key]
        try:
            if get_origin(hint) is tuple:
                updates[key] = tuple(get_args(hint)[0](v) for v in _split_list(value))
            else:
                updates[key] = hint(value)
        except ValueError as exc:
            raise ValueError(f"key {key!r}: cannot parse {value!r}") from exc
    return replace(cfg, **updates).validate()


def _split_list(value: str) -> list[str]:
    items = [v.strip() for v in value.split(",")]
    return [v for v in items if v]


def _format_value(value) -> str:
    # floats by repr, so that they round-trip exactly; tuples comma-separated
    items = value if isinstance(value, tuple) else (value,)
    return ", ".join(repr(v) if isinstance(v, float) else str(v) for v in items)


def format_config(cfg: ExperimentConfig) -> str:
    """Render a configuration in the flat format (round-trips exactly)."""
    return "".join(f"{f.name} = {_format_value(getattr(cfg, f.name))}\n" for f in fields(cfg))


def load_config_file(path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    return parse_config(Path(path).read_text())

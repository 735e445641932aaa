"""Reduced-order models: intrusive projection, assembly, time integration.

Two model kinds are supported:

* ``"generic"`` -- a single operator tensor ``T`` (r x r x p) evaluated at
  a feature vector: ``qhat_dot = (T nu) qhat`` (diffusion-type), or
  ``yhat_dot = Jhat (T nu) yhat`` for canonical systems when assembled
  with :func:`assemble_hamiltonian_operator`;
* ``"block_hamiltonian"`` -- the canonical block form

      yhat_dot = Jhat blockdiag(T1 mu^2, A2) yhat
                = [[0, A2], [-(T1 mu^2), 0]] yhat,

  with a parametric position block ``T1`` (r x r x p, contracted against
  the elementwise squared parameters) and a constant momentum block ``A2``.

Energy-aware operations (:func:`assemble_block_hamiltonian`,
:func:`assemble_hamiltonian_operator`, :func:`reduced_hamiltonian`) demand
symmetric structure flags and raise :class:`~topinf.errors.StructureError`
otherwise; :func:`symmetric_part` produces the flagged symmetric part of a
learned model, whose quadratic form coincides with that of the original
operators.

Both integrators apply the Cayley map ``(M - dt/2 A)^{-1} (M + dt/2 A)``:
one factorization builds this step map, which is then applied once per
step as a matrix-vector product: :func:`crank_nicolson` for mass-form
diffusion systems and :func:`implicit_midpoint` for standard-form
canonical systems, where the same map conserves every quadratic invariant
of the flow (for linear systems the two schemes coincide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ReducedBasis
from .errors import StructureError
from .tensors import mode3_product
from .wave import canonical_j

__all__ = [
    "RomModel",
    "Trajectory",
    "project_matrix",
    "intrusive_project",
    "assemble_operator",
    "assemble_hamiltonian_operator",
    "assemble_block_hamiltonian",
    "block_operator",
    "reduced_hamiltonian",
    "symmetric_part",
    "crank_nicolson",
    "implicit_midpoint",
]

#: Relative tolerance for detecting symmetric slices in projected operators.
SYMMETRY_DETECT_RTOL = 1e-12


@dataclass(frozen=True)
class RomModel:
    """A reduced model: either a generic tensor or a Hamiltonian block pair.

    Attributes
    ----------
    kind : str
        ``"generic"`` or ``"block_hamiltonian"``.
    tensor : ndarray or None
        ``(r, r, p)`` operator slices for the generic kind.
    structure : str
        Structure of ``tensor``: ``"generic"``, ``"symmetric"`` or ``"skew"``.
    t1, a2 : ndarray or None
        Position block ``(r, r, p)`` and momentum block ``(r, r)`` for the
        block kind.
    t1_structure, a2_structure : str
        Structure flags of the blocks.
    """

    kind: str
    tensor: np.ndarray | None = None
    structure: str = "generic"
    t1: np.ndarray | None = None
    a2: np.ndarray | None = None
    t1_structure: str = "generic"
    a2_structure: str = "generic"

    def __post_init__(self):
        if self.kind == "generic":
            if self.tensor is None or np.asarray(self.tensor).ndim != 3:
                raise ValueError("generic models need an order-3 tensor")
        elif self.kind == "block_hamiltonian":
            if self.t1 is None or self.a2 is None:
                raise ValueError("block models need both t1 and a2")
            t1 = np.asarray(self.t1)
            a2 = np.asarray(self.a2)
            if t1.ndim != 3 or t1.shape[0] != t1.shape[1]:
                raise ValueError("t1 must be (r, r, p)")
            if a2.shape != (t1.shape[0], t1.shape[0]):
                raise ValueError("a2 must be (r, r) matching t1")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def r(self) -> int:
        if self.kind == "generic":
            return self.tensor.shape[0]
        return self.t1.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Time-integration output.

    ``states`` has one column per stored time point (the first column is
    the initial state).  If the state leaves floating-point range, every
    column from the first bad step on is NaN, ``diverged`` is set, and
    ``first_bad_step`` records the 1-based index of that step.
    """

    states: np.ndarray
    times: np.ndarray
    diverged: bool = False
    first_bad_step: int | None = None


def project_matrix(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Galerkin projection ``U^T A U`` of a mass-form operator matrix."""
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != u.shape[0]:
        raise ValueError(f"operator {a.shape} and basis {u.shape} do not conform")
    return u.T @ (a @ u)


def _slices_symmetric(tensor: np.ndarray, sign: float = 1.0) -> bool:
    scale = float(np.max(np.abs(tensor))) if tensor.size else 0.0
    if scale == 0.0:
        return True
    dev = np.max(np.abs(tensor - sign * tensor.transpose(1, 0, 2)))
    return bool(dev <= SYMMETRY_DETECT_RTOL * scale)


def intrusive_project(tensor: np.ndarray, basis: ReducedBasis) -> RomModel:
    """Project a full-order operator tensor slice by slice: ``U^T T_x U``.

    The input is the mass-carried affine tensor of ``M qdot = (T nu) q``;
    for a mass-orthonormal basis the projected slices define the Galerkin
    reduced model.  Symmetry of the slices is detected and recorded in the
    structure flag.
    """
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got ndim={tensor.ndim}")
    u = basis.u
    if tensor.shape[0] != u.shape[0] or tensor.shape[1] != u.shape[0]:
        raise ValueError(
            f"tensor slices {tensor.shape[:2]} do not conform to basis rows {u.shape[0]}"
        )
    reduced = np.einsum("ia,ijx,jb->abx", u, tensor, u, optimize=True)
    structure = "symmetric" if _slices_symmetric(reduced) else "generic"
    return RomModel(kind="generic", tensor=reduced, structure=structure)


def assemble_operator(model: RomModel, features: np.ndarray) -> np.ndarray:
    """Evaluate the generic reduced operator ``T nu`` at a feature vector."""
    if model.kind != "generic":
        raise ValueError("assemble_operator expects a generic model")
    return mode3_product(model.tensor, features)


def assemble_hamiltonian_operator(model: RomModel, features: np.ndarray) -> np.ndarray:
    """Canonical generator ``Jhat (T nu)`` for a symmetric generic model.

    Raises
    ------
    StructureError
        If the tensor is not flagged symmetric (the assembled system would
        not be Hamiltonian).
    """
    if model.kind != "generic":
        raise ValueError("assemble_hamiltonian_operator expects a generic model")
    if model.structure != "symmetric":
        raise StructureError(
            "Hamiltonian assembly requires a symmetric structure flag; "
            f"model has {model.structure!r}"
        )
    r = model.r
    if r % 2 != 0:
        raise ValueError(f"canonical form needs an even dimension, got {r}")
    return canonical_j(r // 2) @ mode3_product(model.tensor, features)


def block_operator(t1: np.ndarray, a2: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Block generator ``[[0, A2], [-(T1 mu^2), 0]]`` without structure gating."""
    t1 = np.asarray(t1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    mu = np.asarray(mu, dtype=float)
    pos = mode3_product(t1, mu**2)
    r = pos.shape[0]
    out = np.zeros((2 * r, 2 * r))
    out[:r, r:] = a2
    out[r:, :r] = -pos
    return out


def assemble_block_hamiltonian(model: RomModel, mu: np.ndarray) -> np.ndarray:
    """Canonical block generator for a structure-flagged block model.

    Returns ``Jhat blockdiag(T1 mu^2, A2)``; the parameters are squared
    elementwise inside.  Raises :class:`StructureError` unless both blocks
    carry the symmetric flag.
    """
    if model.kind != "block_hamiltonian":
        raise ValueError("assemble_block_hamiltonian expects a block model")
    if model.t1_structure != "symmetric" or model.a2_structure != "symmetric":
        raise StructureError(
            "block Hamiltonian assembly requires symmetric flags on both "
            f"blocks; got t1={model.t1_structure!r}, a2={model.a2_structure!r}"
        )
    return block_operator(model.t1, model.a2, mu)


def reduced_hamiltonian(model: RomModel, nu: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Quadratic reduced energy along a trajectory.

    For the block kind (``nu`` is the raw parameter vector, squared inside):

        H(y) = 1/2 qhat^T (T1 mu^2) qhat + 1/2 phat^T A2 phat;

    for the symmetric generic kind (``nu`` is the feature vector):

        H(y) = 1/2 yhat^T (T nu) yhat.

    Raises :class:`StructureError` when the required symmetric structure
    flags are absent (the quadratic form would be ill-defined as an energy).
    """
    states = np.asarray(states, dtype=float)
    squeeze = states.ndim == 1
    if squeeze:
        states = states[:, None]
    if model.kind == "block_hamiltonian":
        if model.t1_structure != "symmetric" or model.a2_structure != "symmetric":
            raise StructureError(
                "reduced energy needs symmetric flags on both blocks; got "
                f"t1={model.t1_structure!r}, a2={model.a2_structure!r}"
            )
        nu = np.asarray(nu, dtype=float)
        r = model.r
        if states.shape[0] != 2 * r:
            raise ValueError(f"states must have leading dimension {2 * r}")
        pos = mode3_product(model.t1, nu**2)
        q, pvar = states[:r], states[r:]
        h = 0.5 * np.sum(q * (pos @ q), axis=0) + 0.5 * np.sum(
            pvar * (model.a2 @ pvar), axis=0
        )
    else:
        if model.structure != "symmetric":
            raise StructureError(
                f"reduced energy needs a symmetric structure flag; model has "
                f"{model.structure!r}"
            )
        op = mode3_product(model.tensor, np.asarray(nu, dtype=float))
        if states.shape[0] != op.shape[0]:
            raise ValueError(f"states must have leading dimension {op.shape[0]}")
        h = 0.5 * np.sum(states * (op @ states), axis=0)
    return float(h[0]) if squeeze else h


def symmetric_part(model: RomModel) -> RomModel:
    """The symmetric part of a model's operators, flagged symmetric.

    A quadratic form only sees the symmetric part of its matrix, so the
    energy of this model agrees with the quadratic energy of the original
    learned operators; use it to record energy drift for models learned
    without the symmetry constraint.
    """
    if model.kind == "block_hamiltonian":
        return RomModel(
            kind="block_hamiltonian",
            t1=0.5 * (model.t1 + model.t1.transpose(1, 0, 2)),
            a2=0.5 * (model.a2 + model.a2.T),
            t1_structure="symmetric",
            a2_structure="symmetric",
        )
    return RomModel(
        kind="generic",
        tensor=0.5 * (model.tensor + model.tensor.transpose(1, 0, 2)),
        structure="symmetric",
    )


def _cayley_integrate(
    a: np.ndarray,
    x0: np.ndarray,
    dt: float,
    n_times: int,
    mass: np.ndarray | None,
    t0: float,
) -> Trajectory:
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"operator shape {a.shape} does not match state length {n}")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if n_times < 1:
        raise ValueError(f"n_times must be positive, got {n_times}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x0))):
        raise ValueError("non-finite operator or initial state")
    m = np.eye(n) if mass is None else np.asarray(mass, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"mass shape {m.shape} does not match state length {n}")

    # One LU factorization builds the step map; each step is one matvec.
    # NumPy's LAPACK forms the map: SciPy's threaded multi-column solve
    # runs in a second BLAS thread pool and stalls next to NumPy's.
    # Non-finite values propagate, so overflow is located after the loop.
    with np.errstate(all="ignore"):
        try:
            phi = np.linalg.solve(m - 0.5 * dt * a, m + 0.5 * dt * a)
        except np.linalg.LinAlgError:  # exactly singular: no step is defined
            phi = np.full((n, n), np.nan)
        rows = np.empty((n_times, n))
        rows[0] = x0
        for k in range(1, n_times):
            np.dot(phi, rows[k - 1], out=rows[k])

    states = np.ascontiguousarray(rows.T)
    finite = np.all(np.isfinite(rows), axis=1)
    first_bad = None if finite.all() else int(np.argmin(finite))
    if first_bad is not None:
        states[:, first_bad:] = np.nan
    times = t0 + dt * np.arange(n_times)
    return Trajectory(
        states=states,
        times=times,
        diverged=first_bad is not None,
        first_bad_step=first_bad,
    )


def crank_nicolson(
    a: np.ndarray,
    q0: np.ndarray,
    dt: float,
    n_times: int,
    mass: np.ndarray | None = None,
    t0: float = 0.0,
) -> Trajectory:
    """Trapezoidal (Crank-Nicolson) integration of ``M qdot = A q``.

    Steps ``(M - dt/2 A) q_{k+1} = (M + dt/2 A) q_k``: one LU factorization
    builds the step map ``(M - dt/2 A)^{-1} (M + dt/2 A)``, which is then
    applied once per step; second-order accurate and, for dissipative
    ``A``, non-expansive in the ``M`` norm.  ``mass=None`` means the
    identity.
    """
    return _cayley_integrate(a, q0, dt, n_times, mass, t0)


def implicit_midpoint(
    a: np.ndarray,
    y0: np.ndarray,
    dt: float,
    n_times: int,
    t0: float = 0.0,
) -> Trajectory:
    """Implicit-midpoint integration of the linear system ``ydot = A y``.

    For linear dynamics the midpoint rule is the Cayley map
    ``(I - dt/2 A)^{-1} (I + dt/2 A)``; it is symplectic and conserves
    every quadratic invariant of the flow, in particular the energy
    ``1/2 y^T S y`` of a canonical system ``A = J S`` with symmetric ``S``.
    """
    return _cayley_integrate(a, y0, dt, n_times, None, t0)

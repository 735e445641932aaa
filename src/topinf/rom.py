"""Reduced-order models: intrusive projection, assembly, time integration.

Diffusion-type reduced models are a bare operator tensor ``T``
(r x r x p) evaluated at a feature vector, ``qhat_dot = (T nu) qhat``;
:func:`intrusive_project` gives the Galerkin tensor.  The Hamiltonian
reduced model (:class:`RomModel`) is the canonical block form

    yhat_dot = Jhat blockdiag(T1 mu^2, A2) yhat
              = [[0, A2], [-(T1 mu^2), 0]] yhat,

with a parametric position block ``T1`` (r x r x p, contracted against
the elementwise squared parameters) and a constant momentum block ``A2``.

Energy-aware operations (:func:`assemble_block_hamiltonian`,
:func:`reduced_hamiltonian`) demand symmetric structure flags on both
blocks and raise :class:`~topinf.errors.StructureError` otherwise;
:func:`symmetric_part` produces the flagged symmetric part of a learned
model, whose quadratic form coincides with that of the original blocks.

The integrators apply the Cayley map ``(M - dt/2 A)^{-1} (M + dt/2 A)``:
one factorization builds this step map, which is then applied once per
step as a matrix-vector product: :func:`crank_nicolson` for mass-form
diffusion systems and :func:`implicit_midpoint` for standard-form
canonical systems, where the same map conserves every quadratic invariant
of the flow (for linear systems the two schemes coincide).
:func:`cayley_sweep` runs the same map over a stack of operators, one per
parameter sample: one batched solve builds every step map and one stacked
product per step advances every sample, with the per-sample results of the
single-operator entry points, bit for bit.
:func:`tridiagonal_sweep` is the full-order counterpart, for steps that
solve one symmetric positive definite tridiagonal system per sample: the
systems of all samples are factored once, end to end, and one solve per
step advances every sample (``heat_sweep``, ``wave_sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ReducedBasis
from .errors import StructureError
from .linalg import factor_tridiagonals
from .tensors import mode3_product

__all__ = [
    "RomModel",
    "Trajectory",
    "project_matrix",
    "intrusive_project",
    "assemble_block_hamiltonian",
    "block_operator",
    "reduced_hamiltonian",
    "symmetric_part",
    "crank_nicolson",
    "implicit_midpoint",
    "cayley_sweep",
    "tridiagonal_sweep",
]


@dataclass(frozen=True)
class RomModel:
    """A Hamiltonian reduced model in canonical block form.

    Attributes
    ----------
    t1 : ndarray, shape (r, r, p)
        Position block, contracted against the squared parameters.
    a2 : ndarray, shape (r, r)
        Momentum block.
    t1_structure, a2_structure : str
        Structure flags of the blocks: ``"generic"`` or ``"symmetric"``.
    """

    t1: np.ndarray
    a2: np.ndarray
    t1_structure: str = "generic"
    a2_structure: str = "generic"

    def __post_init__(self):
        t1 = np.asarray(self.t1)
        a2 = np.asarray(self.a2)
        if t1.ndim != 3 or t1.shape[0] != t1.shape[1]:
            raise ValueError("t1 must be (r, r, p)")
        if a2.shape != (t1.shape[0], t1.shape[0]):
            raise ValueError("a2 must be (r, r) matching t1")

    @property
    def r(self) -> int:
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
    """Galerkin projection ``U^T A U`` of a mass-form operator matrix.

    A stack ``a`` of shape ``(S, N, N)`` is projected slice by slice.
    """
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] != u.shape[0]:
        raise ValueError(f"operator {a.shape} and basis {u.shape} do not conform")
    return u.T @ (a @ u)


def intrusive_project(tensor: np.ndarray, basis: ReducedBasis) -> np.ndarray:
    """Project a full-order operator tensor slice by slice: ``U^T T_x U``.

    The input is the mass-carried affine tensor of ``M qdot = (T nu) q``;
    for a mass-orthonormal basis the projected ``(r, r, p)`` slices define
    the Galerkin reduced model.
    """
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got ndim={tensor.ndim}")
    u = basis.u
    if tensor.shape[0] != u.shape[0] or tensor.shape[1] != u.shape[0]:
        raise ValueError(
            f"tensor slices {tensor.shape[:2]} do not conform to basis rows {u.shape[0]}"
        )
    return np.einsum("ia,ijx,jb->abx", u, tensor, u, optimize=True)


def block_operator(t1: np.ndarray, a2: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Block generator ``[[0, A2], [-(T1 mu^2), 0]]`` without structure gating.

    ``mu`` is one parameter vector ``(p,)``, or one per column ``(p, S)``
    for the stack ``(S, 2r, 2r)`` of the generators at every sample.
    """
    t1 = np.asarray(t1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    mu = np.asarray(mu, dtype=float)
    pos = np.einsum("ijx,x...->...ij", t1, mu**2)  # mode3_product, per column
    r = pos.shape[-1]
    out = np.zeros(pos.shape[:-2] + (2 * r, 2 * r))
    out[..., :r, r:] = a2
    out[..., r:, :r] = -pos
    return out


def assemble_block_hamiltonian(model: RomModel, mu: np.ndarray) -> np.ndarray:
    """Canonical block generator for a structure-flagged block model.

    Returns ``Jhat blockdiag(T1 mu^2, A2)``; the parameters are squared
    elementwise inside.  Raises :class:`StructureError` unless both blocks
    carry the symmetric flag.
    """
    if model.t1_structure != "symmetric" or model.a2_structure != "symmetric":
        raise StructureError(
            "block Hamiltonian assembly requires symmetric flags on both "
            f"blocks; got t1={model.t1_structure!r}, a2={model.a2_structure!r}"
        )
    return block_operator(model.t1, model.a2, mu)


def reduced_hamiltonian(model: RomModel, nu: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Quadratic reduced energy along a trajectory.

    With ``nu`` the raw parameter vector (squared inside):

        H(y) = 1/2 qhat^T (T1 mu^2) qhat + 1/2 phat^T A2 phat.

    Raises :class:`StructureError` when the symmetric structure flags are
    absent (the quadratic form would be ill-defined as an energy).
    """
    states = np.asarray(states, dtype=float)
    squeeze = states.ndim == 1
    if squeeze:
        states = states[:, None]
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
    return float(h[0]) if squeeze else h


def symmetric_part(model: RomModel) -> RomModel:
    """The symmetric part of a model's blocks, flagged symmetric.

    A quadratic form only sees the symmetric part of its matrix, so the
    energy of this model agrees with the quadratic energy of the original
    learned blocks; use it to record energy drift for models learned
    without the symmetry constraint.
    """
    return RomModel(
        t1=0.5 * (model.t1 + model.t1.transpose(1, 0, 2)),
        a2=0.5 * (model.a2 + model.a2.T),
        t1_structure="symmetric",
        a2_structure="symmetric",
    )


def _cayley_integrate(
    a: np.ndarray,
    x0: np.ndarray,
    dt: float,
    n_times: int,
    mass: np.ndarray | None,
    t0: float,
) -> list[Trajectory]:
    """Cayley-map trajectories of an operator stack ``a`` (S, n, n) from ``x0``."""
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if a.ndim != 3 or a.shape[1:] != (n, n):
        raise ValueError(f"operator stack {a.shape} does not match state length {n}")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if n_times < 1:
        raise ValueError(f"n_times must be positive, got {n_times}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x0))):
        raise ValueError("non-finite operator or initial state")
    m = np.eye(n) if mass is None else np.asarray(mass, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"mass shape {m.shape} does not match state length {n}")

    # One batched LU solve builds every step map; each step is one stacked
    # matvec.  NumPy's LAPACK forms the maps: SciPy's threaded multi-column
    # solve runs in a second BLAS thread pool and stalls next to NumPy's.
    # Non-finite values propagate, so overflow is located after the loop.
    count = a.shape[0]
    with np.errstate(all="ignore"):
        half = 0.5 * dt * a
        phi = _step_maps(m - half, m + half)
        rows = np.empty((n_times, count, n))
        rows[0] = x0
        if count == 1:  # a one-slice stacked product costs ~1 us more per step
            phi1, rows1 = phi[0], rows[:, 0]
            for k in range(1, n_times):
                np.dot(phi1, rows1[k - 1], out=rows1[k])
        else:
            for k in range(1, n_times):
                np.matmul(phi, rows[k - 1, :, :, None], out=rows[k, :, :, None])

    return _trajectories(rows, dt, t0)


def _trajectories(rows: np.ndarray, dt: float, t0: float) -> list[Trajectory]:
    """One :class:`Trajectory` per sample of the stepped states ``rows`` (n_times, S, n).

    A sample's states are NaN from its first non-finite step on.
    """
    finite = np.all(np.isfinite(rows), axis=2)
    times = t0 + dt * np.arange(rows.shape[0])
    out = []
    for s in range(rows.shape[1]):
        states = np.ascontiguousarray(rows[:, s].T)
        first_bad = None if finite[:, s].all() else int(np.argmin(finite[:, s]))
        if first_bad is not None:
            states[:, first_bad:] = np.nan
        out.append(Trajectory(states=states, times=times,
                              diverged=first_bad is not None, first_bad_step=first_bad))
    return out


def _step_maps(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``lhs^{-1} rhs`` slice by slice; NaN where a slice is exactly singular."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:  # one singular slice fails the whole batch
        phi = np.full(lhs.shape, np.nan)
        for s in range(lhs.shape[0]):
            try:
                phi[s] = np.linalg.solve(lhs[s], rhs[s])
            except np.linalg.LinAlgError:
                pass
        return phi


def cayley_sweep(
    ops: np.ndarray,
    x0: np.ndarray,
    dt: float,
    n_times: int,
    t0: float = 0.0,
) -> list[Trajectory]:
    """Cayley-map integration of ``ydot = A_s y`` for every slice of ``ops`` (S, n, n).

    Returns one :class:`Trajectory` per slice, bit-identical to
    ``implicit_midpoint(ops[s], x0, dt, n_times, t0)``.  Divergence is
    detected per sample: an exactly singular ``I - dt/2 A_s`` diverges at
    step 1 without touching the other samples.
    """
    return _cayley_integrate(ops, x0, dt, n_times, None, t0)


def tridiagonal_sweep(
    step,
    diag: np.ndarray,
    off: np.ndarray,
    x0: np.ndarray,
    dt: float,
    n_times: int,
    t0: float = 0.0,
    per_sample: tuple[np.ndarray, ...] = (),
) -> list[Trajectory]:
    """Integrate S samples whose implicit step solves one SPD tridiagonal each.

    ``diag`` (S, n) and ``off`` (S, n-1) are the samples' step matrices,
    factored once as one stacked tridiagonal
    (:func:`~topinf.linalg.factor_tridiagonals`).  ``step(solve, x, out,
    *rows)`` writes into ``out`` the states that follow the states ``x``
    (both ``(S, m)``, one row per sample); ``solve(b)`` overwrites ``b``
    (S, n) with the solution of every sample's system, and ``rows`` are the
    arrays of ``per_sample``, each with one leading entry per sample.

    Returns one :class:`Trajectory` per sample, starting from ``x0``, with
    the states of that sample swept alone, bit for bit.  A non-finite value
    crosses the zero seams of the stacked solve (``0 * inf = NaN``), so a
    sweep in which any sample diverges is integrated again sample by
    sample: only the samples that diverge are marked, each at its own first
    non-finite step.

    Raises
    ------
    NotPositiveDefiniteError
        If a step matrix is not positive definite; ``sample`` names it.
    """
    x0 = np.asarray(x0, dtype=float)
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    if x0.ndim != 1 or not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be a finite vector")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if n_times < 1:
        raise ValueError(f"n_times must be positive, got {n_times}")
    if any(len(a) != diag.shape[0] for a in per_sample):
        raise ValueError("every per-sample array needs one entry per sample")

    runs = _trajectories(_tridiagonal_rows(step, diag, off, x0, n_times, per_sample), dt, t0)
    if any(run.diverged for run in runs):
        rows = np.concatenate([
            _tridiagonal_rows(step, diag[s:s + 1], off[s:s + 1], x0, n_times,
                              tuple(a[s:s + 1] for a in per_sample))
            for s in range(diag.shape[0])
        ], axis=1)
        runs = _trajectories(rows, dt, t0)
    return runs


def _tridiagonal_rows(step, diag, off, x0, n_times, per_sample) -> np.ndarray:
    """The stepped states (n_times, S, m) of :func:`tridiagonal_sweep`."""
    solve = factor_tridiagonals(diag, off).solve
    rows = np.empty((n_times, diag.shape[0], x0.shape[0]))
    rows[0] = x0
    with np.errstate(all="ignore"):  # overflow is located by the caller
        for k in range(1, n_times):
            step(solve, rows[k - 1], rows[k], *per_sample)
    return rows


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
    return _cayley_integrate(np.asarray(a, dtype=float)[None], q0, dt, n_times, mass, t0)[0]


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
    return _cayley_integrate(np.asarray(a, dtype=float)[None], y0, dt, n_times, None, t0)[0]

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
:class:`RomModel` and :func:`reduced_hamiltonian` are the reference forms:
the pipeline reads each sample's energy ``E = J^T A`` off the stacked
generators (:func:`block_operator`), and the tests check it against them.

The integrator applies the Cayley map ``Phi = (I - dt/2 A)^{-1} (I + dt/2 A)``
to standard-form systems ``ydot = A y``: it is the implicit midpoint rule
(:func:`implicit_midpoint`), which conserves every quadratic invariant of
the flow, and for linear systems also the trapezoidal rule, under the name
:func:`crank_nicolson`.  A mass-form system ``M qdot = A q`` is integrated
as ``ydot = M^{-1} A y``, which has the same Cayley map.
:func:`cayley_sweep` runs the map over a stack of operators, one per
parameter sample: one batched solve builds every step map, and the
trajectories are filled by repeated squaring: once the first ``h`` states
are known, one stacked product with ``Phi^h`` writes the next ``h``, and
``Phi^2h = Phi^h Phi^h``, about ``2 log2(n_times)`` products in all.  A
run that is not finite somewhere is stepped again one step at a time, so
it diverges where its state leaves float range, not where a power of
``Phi`` overflows.  The single-operator entry point is the sweep of a
one-slice stack, so a sample's results in a sweep are its results alone,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ReducedBasis
from .errors import StructureError
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
    the initial state).  From the Cayley integrators it is the C-contiguous
    row ``states[s]`` of the sweep's ``(S, n, n_times)`` stack, so it is
    written to disk with no copy.  If the state leaves floating-point
    range, every column from the first bad step on is NaN, ``diverged`` is
    set, and ``first_bad_step`` records the 1-based index of that step.
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
    for the stack ``(S, 2r, 2r)`` of the generators at every sample; each
    sample's generator does not depend on S (:func:`~topinf.tensors.mode3_product`).
    """
    pos = mode3_product(t1, np.asarray(mu, dtype=float) ** 2)
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


def _cayley_states(phi: np.ndarray, x0: np.ndarray, n_times: int) -> np.ndarray:
    """States (S, n, n_times) of ``x_{k+1} = phi_s x_k``, by repeated squaring.

    Once the first ``h`` states are known, one stacked product writes the
    next ones, ``x_{h+j} = phi^h x_j``, and ``phi^{2h} = phi^h phi^h``:
    about ``2 log2(n_times)`` products in all.
    """
    states = np.empty(phi.shape[:2] + (n_times,))
    states[:, :, 0] = x0
    power, h = phi, 1
    while h < n_times:
        m = min(h, n_times - h)
        np.matmul(power, states[:, :, :m], out=states[:, :, h:h + m])
        h *= 2
        if h < n_times:
            power = power @ power
    return states


def _trajectories(states: np.ndarray, finite: np.ndarray, dt: float,
                  t0: float) -> list[Trajectory]:
    """One :class:`Trajectory` per sample of the stepped states (S, n, n_times).

    ``finite`` (S, n_times) marks the time points at which each sample's
    state is finite.  Each trajectory's states are the row ``states[s]`` of
    the stack, not a copy, so a sweep holds its states once.  A sample's
    states are NaN from its first non-finite step on.
    """
    times = t0 + dt * np.arange(states.shape[2])
    out = []
    for s, ok in enumerate(finite):
        first_bad = None if ok.all() else int(np.argmin(ok))
        if first_bad is not None:
            states[s, :, first_bad:] = np.nan
        out.append(Trajectory(states=states[s], times=times,
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

    One batched solve builds every step map ``Phi_s``; the trajectories are
    filled by repeated squaring, one stacked product with ``Phi_s^h`` writing
    the next ``h`` states of every sample.  Returns one :class:`Trajectory`
    per slice, each the C-contiguous row ``s`` of one ``(S, n, n_times)``
    stack and bit-identical to ``implicit_midpoint(ops[s], x0, dt,
    n_times, t0)``.  Divergence is detected per sample: a sample that is
    not finite somewhere is stepped again one step at a time and marked at
    the first step where its state is not finite; an exactly singular
    ``I - dt/2 A_s`` diverges at step 1 without touching the other samples.
    """
    ops = np.asarray(ops, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if ops.ndim != 3 or ops.shape[1:] != (n, n):
        raise ValueError(f"expected an (S, n, n) operator stack with n = len(x0) = {n}, "
                         f"got shape {ops.shape}")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if n_times < 1:
        raise ValueError(f"n_times must be positive, got {n_times}")
    if not (np.all(np.isfinite(ops)) and np.all(np.isfinite(x0))):
        raise ValueError("non-finite operator or initial state")

    # One batched LU solve builds every step map.  Non-finite values
    # propagate, so overflow is located after stepping.
    with np.errstate(all="ignore"):
        eye, half = np.eye(n), 0.5 * dt * ops
        phi = _step_maps(eye - half, eye + half)
        states = _cayley_states(phi, x0, n_times)
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():  # a power of a map can overflow before its state does
            bad = ~finite.all(axis=1)
            redo, maps = states[bad], phi[bad]
            for k in range(1, n_times):
                np.matmul(maps, redo[:, :, k - 1:k], out=redo[:, :, k:k + 1])
            states[bad] = redo
            finite[bad] = np.isfinite(redo).all(axis=1)
    return _trajectories(states, finite, dt, t0)


def implicit_midpoint(
    a: np.ndarray,
    y0: np.ndarray,
    dt: float,
    n_times: int,
    t0: float = 0.0,
) -> Trajectory:
    """Implicit-midpoint integration of the linear system ``ydot = A y``.

    For linear dynamics the midpoint rule is the Cayley map
    ``Phi = (I - dt/2 A)^{-1} (I + dt/2 A)``; it is symplectic and conserves
    every quadratic invariant of the flow, in particular the energy
    ``1/2 y^T S y`` of a canonical system ``A = J S`` with symmetric ``S``.
    It is also the trapezoidal rule: second-order accurate, and
    non-expansive in any inner-product norm in which ``A`` is dissipative.
    It is :func:`cayley_sweep` on the one-slice stack ``A[None]``: repeated
    squaring fills the trajectory, and a run that is not finite somewhere
    is stepped again one step at a time, so ``first_bad_step`` is where the
    state itself leaves float range.
    """
    return cayley_sweep(np.asarray(a, dtype=float)[None], y0, dt, n_times, t0)[0]


#: Crank-Nicolson (trapezoidal) integration of ``ydot = A y``: for linear
#: dynamics the same Cayley map as :func:`implicit_midpoint`.  A mass-form
#: system ``M qdot = A q`` is integrated as ``ydot = M^{-1} A y``.
crank_nicolson = implicit_midpoint

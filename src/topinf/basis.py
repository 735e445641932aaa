"""Reduced bases: weighted POD, block (cotangent-lift) variant, projection.

:func:`weighted_pod` computes a proper orthogonal decomposition that is
orthonormal in a mass-matrix inner product: with ``R`` the upper Cholesky
factor of ``M`` (``R^T R = M``), the basis is ``U = R^{-1} Utilde_r`` where
``Utilde_r`` holds the leading left singular vectors of the weighted
snapshot stack ``R [Q_1 ... Q_Ns]``, so ``U^T M U = I``.  The stack is
never formed: a tall-skinny QR reduces the snapshot sets group by group
to one ``N x N`` triangular factor ``F``, and one SVD of ``R F^T`` gives
the modes.

:func:`psd_cotangent_lift` builds a symplectic block basis for canonical
systems ``y = (q, p)``: one weighted POD basis ``Uw`` is fit to the
position and momentum snapshots together and the full basis is
``blockdiag(Uw, Uw)``, which commutes with the canonical symplectic matrix
in the sense ``(U^T M) J = Jhat (U^T M)``.

Time-derivative data for inference comes either from second-order finite
differences of the reduced trajectories (:func:`estimate_time_derivative`)
or from applying the projected generator to the reduced snapshots exactly
(:func:`exact_reduced_derivative`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import cholesky_upper, thin_svd

__all__ = [
    "ReducedBasis",
    "weighted_pod",
    "psd_cotangent_lift",
    "project_snapshots",
    "estimate_time_derivative",
    "exact_reduced_derivative",
]

#: Relative singular-value cutoff defining the numerical rank of a snapshot stack.
POD_RANK_RTOL = 1e-12

# A POD group gathers snapshot sets until it holds this many snapshots per
# state dimension; each group costs one QR (see _snapshot_factor).
_POD_GROUP_ROWS = 4


@dataclass(frozen=True)
class ReducedBasis:
    """A mass-orthonormal reduced basis.

    One ``(N, r)`` POD block (:attr:`block`) acts on each of the
    :attr:`blocks` state blocks: the whole state for kind ``"pod"``, the
    position and the momentum for kind ``"psd"`` (the cotangent lift).

    Attributes
    ----------
    u : ndarray
        The basis matrix: shape ``(N, r)`` for kind ``"pod"``; the full
        block-diagonal ``(2N, 2r)`` matrix for kind ``"psd"``.
    weight : ndarray
        Mass matrix the columns are orthonormal against.  For kind
        ``"psd"`` this is the single-block weight; orthonormality holds
        against ``blockdiag(weight, weight)``.
    kind : str
        ``"pod"`` or ``"psd"``.
    u_half : ndarray or None
        For kind ``"psd"``, the shared ``(N, r)`` block.
    singular_values : ndarray
        Singular values of the weighted snapshot stack (all of them, for
        diagnostics and projection-error accounting).
    """

    u: np.ndarray
    weight: np.ndarray
    kind: str
    u_half: np.ndarray | None = None
    singular_values: np.ndarray = field(default_factory=lambda: np.array([]))

    @property
    def block(self) -> np.ndarray:
        """The ``(N, r)`` POD block that acts on each state block."""
        return self.u_half if self.kind == "psd" else self.u

    @property
    def blocks(self) -> int:
        """Number of state blocks: 2 (``q``, ``p``) for kind ``"psd"``, else 1."""
        return 2 if self.kind == "psd" else 1

    @property
    def r(self) -> int:
        """Number of modes (per block for kind ``"psd"``)."""
        return self.block.shape[1]

    def _blockwise(self, array: np.ndarray, rows: int, what: str) -> np.ndarray:
        """``array`` as a ``(blocks, rows, -1)`` view; its leading dimension is blocks * rows."""
        array = np.asarray(array, dtype=float)
        if array.shape[0] != self.blocks * rows:
            raise ValueError(f"{what} must have leading dimension {self.blocks * rows}")
        return array.reshape(self.blocks, rows, array[0].size)

    def project(self, states: np.ndarray) -> np.ndarray:
        """Reduced coordinates ``U^T M states``: ``U^T M`` formed once, applied to each state block."""
        n = self.block.shape[0]
        reduced = (self.block.T @ self.weight) @ self._blockwise(states, n, "states")
        return reduced.reshape((self.blocks * self.r,) + np.shape(states)[1:])

    def lift(self, reduced: np.ndarray) -> np.ndarray:
        """Full-order reconstruction ``U reduced``, one block product per state block."""
        states = self.block @ self._blockwise(reduced, self.r, "reduced state")
        return states.reshape((self.blocks * self.block.shape[0],) + np.shape(reduced)[1:])

    def leading(self, reduced: np.ndarray, r: int) -> np.ndarray:
        """Coordinates, among ``reduced``, of the leading ``r`` modes of each block.

        The basis is nested, so ``leading(project(x), r)`` is
        ``truncate(r).project(x)``, but only to rounding: for a 1-D state
        or ``r = 1`` NumPy forms the two products with different kernels,
        and they can differ in the last bit.  ``simulate_rom`` starts each
        reduced run of size r from ``leading``, so a run started from
        ``truncate(r).project(x0)`` reproduces it to rounding, not bit for
        bit.
        """
        if not (1 <= r <= self.r):
            raise ValueError(f"r must be in [1, {self.r}], got {r}")
        view = self._blockwise(reduced, self.r, "reduced state")[:, :r]
        return view.reshape((self.blocks * r,) + np.shape(reduced)[1:])

    def truncate(self, r: int) -> "ReducedBasis":
        """Sub-basis of the leading ``r`` modes (bases are nested).

        ``truncate(r).project(x)`` matches ``leading(project(x), r)`` only to
        rounding: the two can differ in the last bit for a 1-D state or
        ``r = 1`` (see :meth:`leading`).
        """
        if not (1 <= r <= self.r):
            raise ValueError(f"r must be in [1, {self.r}], got {r}")
        pod = replace(self, u=self.block[:, :r], kind="pod", u_half=None)
        return _cotangent_lift(pod) if self.kind == "psd" else pod


def _cotangent_lift(pod: ReducedBasis) -> ReducedBasis:
    """The psd basis ``blockdiag(U, U)`` of the POD basis ``U``."""
    n, r = pod.u.shape
    u = np.zeros((2 * n, 2 * r))
    u[:n, :r] = pod.u
    u[n:, r:] = pod.u
    return replace(pod, u=u, kind="psd", u_half=pod.u)


def _state_list(snapshots) -> list[np.ndarray]:
    """Accept raw matrices or objects with a ``states`` attribute."""
    out = list(_snapshot_sets(snapshots))
    if not out:
        raise ValueError("no snapshot sets provided")
    return out


def _as_set(snapshot) -> np.ndarray:
    """One snapshot set as a float matrix: a matrix or an object exposing ``.states``."""
    states = np.asarray(getattr(snapshot, "states", snapshot), dtype=float)
    if states.ndim != 2:
        raise ValueError(f"snapshot sets must be matrices, got ndim={states.ndim}")
    return states


def _snapshot_sets(snapshots):
    """The snapshot sets of ``snapshots``, one at a time; a 2-D array is one set.

    Holds no set it has handed out, so a set lives only as long as its reader keeps it.
    """
    if isinstance(snapshots, np.ndarray) and snapshots.ndim == 2:
        snapshots = (snapshots,)
    return map(_as_set, snapshots)


def _snapshot_factor(snapshots, n: int) -> np.ndarray:
    """Upper-triangular ``R`` with ``R^T R = Q Q^T``, ``Q`` the sets side by side.

    A tall-skinny QR over groups of sets: sets are gathered until a group
    holds at least ``_POD_GROUP_ROWS * n`` snapshots, and each group is
    reduced by one QR of ``[R; Q_g^T]`` whose factor heads the next group,
    so one group is held at a time.  The sets are neither pooled nor
    written.
    """
    group, rows = [], 0  # the carried factor, then the group's transposed sets
    for states in _snapshot_sets(snapshots):
        if states.shape[0] != n:
            raise ValueError(f"snapshots have dimension {states.shape[0]}, mass is {n}")
        if not np.all(np.isfinite(states)):
            raise ValueError("non-finite entries in the snapshot stack")
        group.append(states.T)
        rows += states.shape[1]
        del states  # the group holds the set until it is factored
        if rows >= _POD_GROUP_ROWS * n:
            group, rows = [_stacked_factor(group)], 0
    if rows:
        group = [_stacked_factor(group)]
    if not group:
        raise ValueError("no snapshot sets provided")
    return group[0]


def _stacked_factor(group: list[np.ndarray]) -> np.ndarray:
    """The R factor of the rows of ``group`` stacked; empties ``group`` before the QR.

    The stack is built column-major, the layout LAPACK factors, so the QR's
    own copy of it is a plain copy whatever the layout of the sets.
    """
    stack = np.empty((sum(len(rows) for rows in group), group[0].shape[1]), order="F")
    np.concatenate(group, out=stack)
    group.clear()
    return np.linalg.qr(stack, mode="r")


def _weighted_left_vectors(snapshots, mass: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading r left singular vectors of ``W = R_M [Q_1 ... Q_Ns]``, pulled back by ``R_M``.

    ``R_M`` is the upper Cholesky factor of ``mass``.  With ``Q^T = O_1 F``
    (``F`` the ``N x N`` snapshot factor), the weighted stack has
    ``W^T = Q^T R_M^T = O_1 (F R_M^T)``, so ``W`` has the left singular
    vectors and singular values of the small ``R_M F^T``: the weight is
    applied once, at the end, and ``W`` is never formed.
    """
    factor = _snapshot_factor(snapshots, np.shape(mass)[0])
    chol = cholesky_upper(mass)
    # the right singular vectors of W (one entry per snapshot) are never
    # formed.  The Gram matrix W W^T would square the condition number that
    # the rank cut reads.
    u_tilde, svals, _ = thin_svd(chol @ factor.T)
    numerical_rank = int(np.count_nonzero(svals > POD_RANK_RTOL * svals[0])) if svals.size else 0
    if r > numerical_rank:
        raise ValueError(
            f"requested {r} modes but the snapshot stack has numerical rank "
            f"{numerical_rank}"
        )
    # deterministic sign: largest-magnitude entry of each mode is positive
    u_r = u_tilde[:, :r]
    u_r = u_r * np.where(u_r[np.argmax(np.abs(u_r), axis=0), np.arange(r)] < 0.0, -1.0, 1.0)
    basis = np.linalg.solve(chol, u_r)
    return basis, svals


def weighted_pod(snapshots, mass: np.ndarray, r: int) -> ReducedBasis:
    """Mass-weighted POD basis of rank ``r`` of snapshot sets taken side by side.

    Parameters
    ----------
    snapshots : iterable or ndarray
        Snapshot matrices (``N x Nt`` each) or objects exposing ``.states``,
        from any iterable (a generator is read once, set by set); a 2-D
        array is one set.  Sets are gathered into groups of at least
        ``4 N`` snapshots, and each group is reduced to an ``N x N`` QR
        factor before the next is read, so one group is held at a time.
        The inputs are neither pooled nor modified.
    mass : ndarray, shape (N, N)
        Symmetric positive definite weight matrix.
    r : int
        Number of modes; must not exceed the numerical rank of the stack.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    u, svals = _weighted_left_vectors(snapshots, mass, r)
    return ReducedBasis(u=u, weight=np.asarray(mass, dtype=float), kind="pod",
                        singular_values=svals)


def psd_cotangent_lift(q_snapshots, p_snapshots, mass: np.ndarray, r: int) -> ReducedBasis:
    """Block-diagonal symplectic basis from position and momentum data.

    The :func:`weighted_pod` basis ``Uw`` of rank ``r`` of the position
    and momentum snapshot sets taken together, acting on each state block:
    the returned basis is ``blockdiag(Uw, Uw)`` with ``u_half = Uw``.

    Both arguments are read as in :func:`weighted_pod`, positions first.
    The basis does not depend on the order of the sets (to rounding), so a
    caller may pass every set, in any order, as ``q_snapshots`` with no
    momentum sets (``p_snapshots=()``).
    """
    sets = itertools.chain(_snapshot_sets(q_snapshots), _snapshot_sets(p_snapshots))
    return _cotangent_lift(weighted_pod(sets, mass, r))


def project_snapshots(basis: ReducedBasis, snapshots) -> list[np.ndarray]:
    """Reduced coordinates of each snapshot set: ``U^T M Q_s``."""
    return [basis.project(states) for states in _state_list(snapshots)]


def estimate_time_derivative(reduced: np.ndarray, dt: float) -> np.ndarray:
    """Second-order finite-difference time derivative of a trajectory.

    Central differences in the interior and one-sided three-point stencils
    ``(-3 x_0 + 4 x_1 - x_2) / (2 dt)`` (mirrored on the right) at the two
    endpoints; exact for trajectories quadratic in time.
    """
    reduced = np.asarray(reduced, dtype=float)
    if reduced.ndim != 2:
        raise ValueError(f"expected a trajectory matrix, got ndim={reduced.ndim}")
    if reduced.shape[1] < 3:
        raise ValueError("need at least 3 time points for second-order stencils")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    return np.gradient(reduced, dt, axis=1, edge_order=2)


def exact_reduced_derivative(
    basis: ReducedBasis, mass_form_operator: np.ndarray, reduced: np.ndarray
) -> np.ndarray:
    """Derivative of the projected dynamics applied to reduced snapshots.

    ``mass_form_operator`` is the mass-carried generator ``A`` of the
    full-order system ``M xdot = A x``; for a mass-orthonormal basis the
    Galerkin reduced generator is ``U^T A U``, so the trajectory of reduced
    coordinates satisfies exactly ``d/dt (U^T M x) = (U^T A U)(U^T M x)``
    whenever the full dynamics is confined to the basis range.  Returns
    ``(U^T A U) @ reduced``.
    """
    reduced = np.asarray(reduced, dtype=float)
    a_hat = basis.u.T @ (np.asarray(mass_form_operator, dtype=float) @ basis.u)
    if reduced.shape[0] != a_hat.shape[0]:
        raise ValueError(
            f"reduced states have dimension {reduced.shape[0]}, basis gives {a_hat.shape[0]}"
        )
    return a_hat @ reduced

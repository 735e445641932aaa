"""Reduced bases: weighted POD, block (cotangent-lift) variant, projection.

:func:`weighted_pod` computes a proper orthogonal decomposition that is
orthonormal in a mass-matrix inner product: with ``R`` the upper Cholesky
factor of ``M`` (``R^T R = M``), the basis is ``U = R^{-1} Utilde_r`` where
``Utilde_r`` holds the leading left singular vectors of the weighted
snapshot stack ``R [Q_1 ... Q_Ns]``, so ``U^T M U = I``.

:func:`psd_cotangent_lift` builds a symplectic block basis for canonical
systems ``y = (q, p)``: one weighted POD basis ``Uw`` is fit to the pooled
position and momentum snapshots and the full basis is
``blockdiag(Uw, Uw)``, which commutes with the canonical symplectic matrix
in the sense ``(U^T M) J = Jhat (U^T M)``.

Time-derivative data for inference comes either from second-order finite
differences of the reduced trajectories (:func:`estimate_time_derivative`)
or from applying the projected generator to the reduced snapshots exactly
(:func:`exact_reduced_derivative`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ReducedBasis:
    """A mass-orthonormal reduced basis.

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
    def r(self) -> int:
        """Number of modes (per block for kind ``"psd"``)."""
        if self.kind == "psd":
            return self.u_half.shape[1]
        return self.u.shape[1]

    def project(self, states: np.ndarray) -> np.ndarray:
        """Reduced coordinates ``U^T M states`` (blockwise for ``"psd"``)."""
        states = np.asarray(states, dtype=float)
        if self.kind == "psd":
            n = self.u_half.shape[0]
            if states.shape[0] != 2 * n:
                raise ValueError(f"states must have leading dimension {2 * n}")
            wq = self.u_half.T @ (self.weight @ states[:n])
            wp = self.u_half.T @ (self.weight @ states[n:])
            return np.concatenate([wq, wp], axis=0)
        if states.shape[0] != self.u.shape[0]:
            raise ValueError(f"states must have leading dimension {self.u.shape[0]}")
        return self.u.T @ (self.weight @ states)

    def lift(self, reduced: np.ndarray) -> np.ndarray:
        """Full-order reconstruction ``U reduced``."""
        reduced = np.asarray(reduced, dtype=float)
        if self.kind == "psd":
            r = self.u_half.shape[1]
            if reduced.shape[0] != 2 * r:
                raise ValueError(f"reduced state must have leading dimension {2 * r}")
            return np.concatenate(
                [self.u_half @ reduced[:r], self.u_half @ reduced[r:]], axis=0
            )
        if reduced.shape[0] != self.u.shape[1]:
            raise ValueError(f"reduced state must have leading dimension {self.u.shape[1]}")
        return self.u @ reduced

    def truncate(self, r: int) -> "ReducedBasis":
        """Sub-basis of the leading ``r`` modes (bases are nested)."""
        if not (1 <= r <= self.r):
            raise ValueError(f"r must be in [1, {self.r}], got {r}")
        if self.kind == "psd":
            half = self.u_half[:, :r]
            return ReducedBasis(
                u=_blockdiag(half, half),
                weight=self.weight,
                kind="psd",
                u_half=half,
                singular_values=self.singular_values,
            )
        return ReducedBasis(
            u=self.u[:, :r],
            weight=self.weight,
            kind="pod",
            singular_values=self.singular_values,
        )


def _blockdiag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _state_list(snapshots) -> list[np.ndarray]:
    """Accept raw matrices or objects with a ``states`` attribute."""
    out = []
    for s in snapshots:
        states = np.asarray(getattr(s, "states", s), dtype=float)
        if states.ndim != 2:
            raise ValueError(f"snapshot sets must be matrices, got ndim={states.ndim}")
        out.append(states)
    if not out:
        raise ValueError("no snapshot sets provided")
    return out


def _weighted_left_vectors(
    stacks: list[np.ndarray], mass: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Leading r left singular vectors of R @ hstack(stacks), pulled back by R."""
    chol = cholesky_upper(mass)
    pooled = np.hstack(stacks)
    if pooled.shape[0] != mass.shape[0]:
        raise ValueError(
            f"snapshots have dimension {pooled.shape[0]}, mass is {mass.shape[0]}"
        )
    if not np.all(np.isfinite(pooled)):
        raise ValueError("non-finite entries in the snapshot stack")
    weighted = chol @ pooled
    # The QR factorization W^T = Q F gives W = F^T Q^T: the left singular
    # vectors and singular values of W are those of the small factor F^T,
    # and the right singular vectors (one entry per snapshot) are never
    # formed.  The Gram matrix W W^T would square the condition number that
    # the rank cut reads.
    u_tilde, svals, _ = thin_svd(np.linalg.qr(weighted.T, mode="r").T)
    numerical_rank = int(np.count_nonzero(svals > POD_RANK_RTOL * svals[0])) if svals.size else 0
    if r > numerical_rank:
        raise ValueError(
            f"requested {r} modes but the snapshot stack has numerical rank "
            f"{numerical_rank}"
        )
    u_r = u_tilde[:, :r].copy()
    # deterministic sign: largest-magnitude entry of each mode is positive
    for col in range(r):
        lead = np.argmax(np.abs(u_r[:, col]))
        if u_r[lead, col] < 0.0:
            u_r[:, col] = -u_r[:, col]
    # NumPy's solve: SciPy's runs in a second BLAS thread pool that stalls NumPy's.
    basis = np.linalg.solve(chol, u_r)
    return basis, svals


def weighted_pod(snapshots, mass: np.ndarray, r: int) -> ReducedBasis:
    """Mass-weighted POD basis of rank ``r`` from pooled snapshot sets.

    Parameters
    ----------
    snapshots : sequence
        Snapshot matrices (``N x Nt`` each) or objects exposing ``.states``.
    mass : ndarray, shape (N, N)
        Symmetric positive definite weight matrix.
    r : int
        Number of modes; must not exceed the numerical rank of the stack.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    stacks = _state_list(snapshots)
    u, svals = _weighted_left_vectors(stacks, mass, r)
    return ReducedBasis(u=u, weight=np.asarray(mass, dtype=float), kind="pod",
                        singular_values=svals)


def psd_cotangent_lift(q_snapshots, p_snapshots, mass: np.ndarray, r: int) -> ReducedBasis:
    """Block-diagonal symplectic basis from pooled position/momentum data.

    One weighted POD basis ``Uw`` of rank ``r`` is fit to the pooled columns
    of all position and momentum snapshot sets; the returned basis is
    ``blockdiag(Uw, Uw)`` with ``u_half = Uw``.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    stacks = _state_list(q_snapshots) + _state_list(p_snapshots)
    half, svals = _weighted_left_vectors(stacks, mass, r)
    return ReducedBasis(
        u=_blockdiag(half, half),
        weight=np.asarray(mass, dtype=float),
        kind="psd",
        u_half=half,
        singular_values=svals,
    )


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

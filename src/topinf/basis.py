"""Reduced bases: weighted POD, block (cotangent-lift) variant, projection.

:func:`weighted_pod` computes a proper orthogonal decomposition that is
orthonormal in a mass-matrix inner product: with ``R`` the upper Cholesky
factor of ``M`` (``R^T R = M``), the basis is ``U = R^{-1} Utilde_r`` where
``Utilde_r`` holds the leading left singular vectors of the weighted
snapshot stack ``R [Q_1 ... Q_Ns]``, so ``U^T M U = I``.  The stack is
never formed: a tall-skinny QR reduces the snapshot sets group by group
to one ``N x N`` triangular factor ``F``, and one SVD of ``R F^T`` gives
the modes.  The snapshots are a sized iterable of ``N x Nt`` matrices (a
sequence, or an iterator with a length), whose length fixes the groups
before any set is read: the groups' stacks, the carried factor included,
are as equal as whole sets allow.  An unsized iterable (a generator) is
refused with ``TypeError``, and a bare 2-D array, whose items are rows,
with ``ValueError``.

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

import contextlib
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import blas_threads, cholesky_upper, one_blas_thread

__all__ = [
    "ReducedBasis",
    "weighted_pod",
    "psd_cotangent_lift",
    "pod_threads",
    "project_snapshots",
    "estimate_time_derivative",
    "exact_reduced_derivative",
]

#: Relative singular-value cutoff defining the numerical rank of a snapshot stack.
POD_RANK_RTOL = 1e-12

# The sets are split into as many POD groups as gathering them until each
# holds this many snapshots per state dimension makes, their stacks balanced
# (see _group_ends).  Each group costs one QR (see _snapshot_factor).
_POD_GROUP_ROWS = 4

# Up to this state dimension N the POD's dense kernels (the groups' QRs, the
# Cholesky of the mass, the SVD and the closing solve) run on one OpenBLAS
# thread (see _pod), which also makes the basis the same bits at any thread
# count.  Below it OpenBLAS's threads cost more than they give.  A whole
# weighted_pod of 10 N snapshots in sets of 251, one thread against two
# (2 CPUs, medians of 5): N = 200: 29 vs 42 ms; 400: 134 vs 165; 600: 368 vs
# 405; 700: 552 vs 574; 800: 824 vs 796.  Larger sizes favour the threads
# more and more (QR of a 4N x N stack, best of 3: N = 1,600: 1.13 vs
# 0.85 s; 3,200: 8.8 vs 5.8 s), so the pin stops here.
_POD_ONE_THREAD_MAX_N = 700


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


def _as_set(snapshot) -> np.ndarray:
    """One snapshot set as a float matrix."""
    states = np.asarray(snapshot, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"snapshot sets must be matrices, got ndim={states.ndim}")
    return states


def _group_ends(count: int, width: int, n: int) -> set[int]:
    """How many of ``count`` sets, ``width`` snapshots wide, are read when each group closes.

    As many groups as gathering sets until each holds ``_POD_GROUP_ROWS *
    n`` snapshots makes.  Every group after the first stacks the carried
    ``n x n`` factor over its sets, so the first holds the number of sets
    that makes the tallest stack, and so the QR's three copies of it, the
    least, and the later groups share the rest equally (the last takes
    what is left): 8 sets of 251 snapshots at ``n = 399`` go 5 + 3, stacks
    of 1,255 and 1,152 rows, where 4 + 4 would stack 1,004 and 1,403.
    """
    groups = -(-count // -(-_POD_GROUP_ROWS * n // max(width, 1)))
    if groups == 1:
        return {count}

    def later(first):  # sets in each later group
        return -(-(count - first) // (groups - 1))

    first = min(range(1, count - groups + 2),
                key=lambda k: max(k * width, n + later(k) * width))
    return {min(first + j * later(first), count) for j in range(groups)}


def _snapshot_factor(sets, count: int, n: int) -> np.ndarray:
    """Upper-triangular ``R`` with ``R^T R = Q Q^T``, ``Q`` the ``count`` sets side by side.

    A tall-skinny QR over groups of sets, each reduced by one QR of ``[R;
    Q_g^T]`` whose factor heads the next group, so one group is held at a
    time.  The sets are split into groups whose stacks are as equal as
    whole sets allow (:func:`_group_ends`, from the first set's width).
    The sets are neither pooled nor written.
    """
    group, ends = [], set()  # the carried factor, then the group's transposed sets
    read = 0  # counted by hand: enumerate's reused result tuple would hold the last set
    for states in map(_as_set, sets):
        if states.shape[0] != n:
            raise ValueError(f"snapshots have dimension {states.shape[0]}, mass is {n}")
        if not np.all(np.isfinite(states)):
            raise ValueError("non-finite entries in the snapshot stack")
        read += 1
        if read == 1:
            ends = _group_ends(count, states.shape[1], n)
        group.append(states.T)
        del states  # the group holds the set until it is factored
        if read in ends:
            group = [_stacked_factor(group)]
    if not read:
        raise ValueError("no snapshot sets provided")
    if read != count:
        raise ValueError(f"read {read} snapshot sets from a sequence of length {count}")
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


def _weighted_left_vectors(sets, count: int, mass: np.ndarray,
                           r: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading r left singular vectors of ``W = R_M [Q_1 ... Q_Ns]``, pulled back by ``R_M``.

    ``R_M`` is the upper Cholesky factor of ``mass``.  With ``Q^T = O_1 F``
    (``F`` the ``N x N`` snapshot factor), the weighted stack has
    ``W^T = Q^T R_M^T = O_1 (F R_M^T)``, so ``W`` has the left singular
    vectors and singular values of the small ``R_M F^T``: the weight is
    applied once, at the end, and ``W`` is never formed.
    """
    factor = _snapshot_factor(sets, count, np.shape(mass)[0])
    chol = cholesky_upper(mass)
    # the right singular vectors of W (one entry per snapshot) are never
    # formed.  The Gram matrix W W^T would square the condition number that
    # the rank cut reads.
    u_tilde, svals, _ = np.linalg.svd(chol @ factor.T, full_matrices=False)
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
    snapshots : sized iterable
        Snapshot matrices, ``N x Nt`` each, read once, set by set: a
        sequence, or an iterator with ``__len__``.  Its length, read
        before any set, splits the sets into as many groups as gathering
        sets as wide as the first until each holds ``4 N`` snapshots
        makes, whose stacks, the carried factor included, are as equal as
        whole sets allow.  Each group is reduced to an ``N x N`` QR factor
        before the next is read, so one group is held at a time.  The
        inputs are neither pooled nor modified.  An input without a length
        (a generator) raises ``TypeError`` before any set is read; an item
        that is not a matrix, such as a row of a bare 2-D array, raises
        ``ValueError``, as does a sequence that yields other than its
        length of sets.
    mass : ndarray, shape (N, N)
        Symmetric positive definite weight matrix.
    r : int
        Number of modes; must not exceed the numerical rank of the stack.

    Up to ``N = _POD_ONE_THREAD_MAX_N`` the QRs, the SVD and the solves
    run on one OpenBLAS thread (:func:`~topinf.linalg.one_blas_thread`),
    where that is faster than the library's threads, so there the basis
    is the same bits at any thread count (:func:`pod_threads`).
    """
    return _pod(snapshots, len(snapshots), mass, r)


def pod_threads(n: int) -> int | None:
    """BLAS threads the POD of an ``n``-dimensional state runs on; ``None`` without OpenBLAS.

    One up to ``n = _POD_ONE_THREAD_MAX_N``, where :func:`weighted_pod`
    pins them, and the process's count above it.
    """
    threads = blas_threads()[1]
    return 1 if threads is not None and n <= _POD_ONE_THREAD_MAX_N else threads


def _pod(sets, count: int, mass: np.ndarray, r: int) -> ReducedBasis:
    """:func:`weighted_pod` of the ``count`` sets of the iterable ``sets``."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    small = np.shape(mass)[0] <= _POD_ONE_THREAD_MAX_N
    with one_blas_thread() if small else contextlib.nullcontext():
        u, svals = _weighted_left_vectors(sets, count, mass, r)
    return ReducedBasis(u=u, weight=np.asarray(mass, dtype=float), kind="pod",
                        singular_values=svals)


def psd_cotangent_lift(q_snapshots, p_snapshots, mass: np.ndarray, r: int) -> ReducedBasis:
    """Block-diagonal symplectic basis from position and momentum data.

    The :func:`weighted_pod` basis ``Uw`` of rank ``r`` of the position
    and momentum snapshot sets taken together, acting on each state block:
    the returned basis is ``blockdiag(Uw, Uw)`` with ``u_half = Uw``.

    Both arguments are sized iterables of ``N x Nt`` matrices, read as in
    :func:`weighted_pod`, positions first; their lengths are read before
    any set, and an argument without one (a generator) raises
    ``TypeError``.  The basis does not depend on the order of the sets (to
    rounding), so a caller may pass every set, in any order, as
    ``q_snapshots`` with no momentum sets (``p_snapshots=()``).
    """
    count = len(q_snapshots) + len(p_snapshots)
    return _cotangent_lift(_pod(itertools.chain(q_snapshots, p_snapshots), count, mass, r))


def project_snapshots(basis: ReducedBasis, snapshots) -> list[np.ndarray]:
    """Reduced coordinates ``U^T M Q_s`` of each snapshot matrix ``Q_s`` of the iterable ``snapshots``."""
    return [basis.project(_as_set(states)) for states in snapshots]


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

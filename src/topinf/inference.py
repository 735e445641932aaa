"""Learning affine parametric reduced operators from trajectory data.

Given reduced snapshots ``Y_s`` (r x Nt), their time derivatives ``Z_s``,
and per-sample feature vectors ``nu_s`` (p entries), the inference problem
is the least squares fit of an order-3 operator tensor ``T`` (r x r x p):

    minimize  L(T) = 1/2 sum_s || Z_s - (T nu_s) Y_s ||_F^2.

Three solvers are provided:

* :func:`infer_normal` assembles the dense normal-equations system for the
  partially vectorized unknown and solves it symmetrically;
* :func:`infer_lstsq` solves the equivalent tall least-squares problem
  row-block by row-block via the SVD (minimum-norm on rank deficiency);
* :func:`infer_symmetric` imposes the constraint ``(T nu)^T = T nu``
  exactly by fitting each slice in an orthonormal basis of the symmetric
  matrices: ``p*r*(r+1)/2`` unknowns.  Its system is :func:`infer_normal`'s
  normal equations restricted to that subspace, read off the same
  ``(B, C)``; it is sparse (only basis pairs sharing an index couple) but
  its lower triangle is stored dense; it is symmetric positive definite
  and solved by Cholesky.  The pipeline fits each block of the canonical
  Hamiltonian form with it.

Both normal-equations solvers hand the lower triangle of their freshly
assembled system to :func:`~topinf.linalg.solve_sym`, which equilibrates
and factors it in place, so a fit holds one system array, and refines the
solution once through the negated gradient of the objective on the data
(:func:`objective_gradient`), the system's residual ``c - A x`` computed
without the system.

The data enter the fit only through ``Y_s Y_s^T`` and ``Z_s Y_s^T`` and the
residual norm, so :func:`compress` replaces each sample by ``min(Nt, r) + 1``
columns from one thin QR ``Y_s^T = O_s R_s``: ``R_s^T`` against
``Z_s O_s``, plus one column that carries the part of ``Z_s`` no operator
can reach, ``||Z_s - Z_s O_s O_s^T||_F``, against zero snapshots.  Every
solver, diagnostic and check reads the compressed data as it reads the
original, and returns the same results to rounding, at a cost independent
of ``Nt``; the pipeline compresses each problem once and fits every method
to it.

The two unconstrained solvers minimize the same objective; their system
matrices satisfy ``D^T D = B`` exactly, so they agree to solver precision
whenever the problem has a unique minimizer.  That is exactly when the
design ``D`` has full column rank ``r*p``, which :func:`uniqueness_check`
tests, together with the two necessary conditions it implies (feature
matrix of rank ``p``, merged snapshot stack of rank ``r``), so that a
report names the factor at fault.  Full ranks of both factors are not
enough: the design is deficient, for example, when each sample's
snapshots span only the directions its own features weight.
:func:`infer_normal` raises :class:`~topinf.errors.NonUniqueSolutionError`
whenever the design is deficient, and
:class:`~topinf.errors.SingularMatrixError` only when a full-rank design's
normal equations are too ill-conditioned to solve; :func:`infer_lstsq`
returns the minimum-norm solution and flags ``rank_deficient``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensors
from .errors import NonUniqueSolutionError, ResourceLimitError
from .linalg import lower_index, lower_size, lstsq_min_norm, pack_lower, solve_sym

__all__ = [
    "InferenceData",
    "compress",
    "InferredTensor",
    "UniquenessReport",
    "uniqueness_check",
    "assemble_normal_system",
    "assemble_lstsq_system",
    "infer_normal",
    "infer_lstsq",
    "infer_symmetric",
    "objective",
    "objective_gradient",
]

#: Relative singular-value cutoff for the uniqueness rank checks.
UNIQUENESS_RANK_RTOL = 1e-10

#: Cap on the unknowns ``p*r*(r+1)/2`` of the symmetric solver, read at each
#: call; its system, the lower triangle in row strips
#: (:func:`~topinf.linalg.lower_size`), takes a little over
#: ``4 * unknowns**2`` bytes.
SYMMETRIC_UNKNOWN_CAP = 20_000

#: A symmetric fit's peak memory in multiples of its system's bytes: the
#: assembled lower triangle, which the solver equilibrates and factors in
#: place, and at most one tile of scratch and one diagonal block's factor
#: beside it.  Measured at r = 30, p = 3 (1,395 unknowns, 8.72 MiB of
#: strips): 1.20 in resident growth, 1.13 under tracemalloc; 0.70 and
#: 0.66 of the dense square's ``8 * unknowns**2`` bytes.
_SYMMETRIC_PEAK_SYSTEMS = 1.2


@dataclass(frozen=True)
class InferenceData:
    """Training data for operator inference.

    Attributes
    ----------
    nus : ndarray, shape (p, Ns)
        Feature vectors, one column per training sample.
    ys : ndarray, shape (r, Nt, Ns)
        Reduced state trajectories stacked along the last axis.
    zs : ndarray, shape (r, Nt, Ns)
        Time-derivative trajectories, same shape as ``ys``.
    """

    nus: np.ndarray
    ys: np.ndarray
    zs: np.ndarray

    def __post_init__(self):
        nus = np.asarray(self.nus, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        zs = np.asarray(self.zs, dtype=float)
        if nus.ndim != 2:
            raise ValueError(f"nus must be (p, Ns), got ndim={nus.ndim}")
        if ys.ndim != 3 or zs.ndim != 3:
            raise ValueError("ys and zs must be order-3 (state, time, sample) arrays")
        ns = nus.shape[1]
        if ys.shape[2] != ns or zs.shape[2] != ns:
            raise ValueError(
                f"sample counts disagree: nus has {ns}, ys has {ys.shape[2]}, "
                f"zs has {zs.shape[2]}"
            )
        if zs.shape[1] != ys.shape[1]:
            raise ValueError(
                f"time counts disagree: ys has {ys.shape[1]}, zs has {zs.shape[1]}"
            )
        if zs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"state dimensions disagree: ys has {ys.shape[0]}, zs has {zs.shape[0]}"
            )
        for name, arr in (("nus", nus), ("ys", ys), ("zs", zs)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        object.__setattr__(self, "nus", nus)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "zs", zs)

    @property
    def r(self) -> int:
        return self.ys.shape[0]

    @property
    def p(self) -> int:
        return self.nus.shape[0]

    @property
    def n_samples(self) -> int:
        return self.nus.shape[1]

    @property
    def n_times(self) -> int:
        return self.ys.shape[1]


@dataclass(frozen=True)
class UniquenessReport:
    """Rank diagnostics for the unconstrained inference problem.

    ``unique`` means that the design has full column rank, so the
    unconstrained minimizer is unique; the feature and snapshot ranks say
    which factor is at fault when it is not (see :func:`uniqueness_check`).
    """

    unique: bool
    feature_rank: int
    feature_required: int
    snapshot_rank: int
    snapshot_required: int
    design_rank: int
    design_required: int

    def __str__(self) -> str:
        return (
            f"unique={self.unique} "
            f"(features {self.feature_rank}/{self.feature_required}, "
            f"snapshots {self.snapshot_rank}/{self.snapshot_required}, "
            f"design {self.design_rank}/{self.design_required})"
        )


@dataclass(frozen=True)
class InferredTensor:
    """An inferred operator tensor with solver diagnostics.

    Attributes
    ----------
    tensor : ndarray, shape (r, r, p)
        The learned operator slices.
    method : str
        ``"normal"``, ``"lstsq"``, or ``"symmetric"``.
    structure : str
        ``"generic"`` or ``"symmetric"``.
    cond : float
        Condition estimate of the solved system (squared-data scale for
        the normal and symmetric routes; singular-value ratio for lstsq).
    residual : float
        Objective value ``L`` at the solution.
    stationarity : float
        Frobenius norm of the (structure-projected) objective gradient at
        the solution; near zero for an exact stationary point.
    unknowns : int
        Entries of the tensor the fit solves for: ``r*r*p``, or
        ``p*r*(r+1)/2`` for the symmetric fit.
    system_bytes : int
        Bytes of the system the fit solved: for the normal-equations
        routes the lower strips handed to :func:`~topinf.linalg.solve_sym`
        (the square up to order 256), for the least-squares one the design.
    rank_deficient : bool
        True when the least-squares route detected column-rank deficiency
        and returned the minimum-norm solution.
    """

    tensor: np.ndarray
    method: str
    structure: str
    cond: float
    residual: float
    stationarity: float
    unknowns: int
    system_bytes: int
    rank_deficient: bool = False


def uniqueness_check(data: InferenceData) -> UniquenessReport:
    """Rank test that the unconstrained minimizer is unique.

    The minimizer is unique exactly when the design ``D`` of
    :func:`assemble_lstsq_system` has full column rank ``r*p``, and only
    then is ``unique`` true.  That needs the feature matrix (one row per
    sample) to have full column rank ``p`` and the merged snapshot stack
    (time-sample rows by state columns) full column rank ``r``; both ranks
    are reported too, so a deficient fit names its deficient factor.
    Ranks are counted from singular values above ``UNIQUENESS_RANK_RTOL``
    times the largest.  On :func:`compress`-ed data the check costs the same
    whatever ``Nt`` is.
    """

    def _rank(a: np.ndarray) -> int:
        sv = np.linalg.svd(a, compute_uv=False)
        if sv.size == 0 or sv[0] == 0.0:
            return 0
        return int(np.count_nonzero(sv > UNIQUENESS_RANK_RTOL * sv[0]))

    feature_rank = _rank(data.nus.T)  # (Ns, p)
    snapshot_rank = _rank(tensors.cvec(data.ys, 1, 2).T)  # (Nt * Ns, r)
    design_rank = _rank(assemble_lstsq_system(data)[0])
    return UniquenessReport(
        unique=design_rank == data.r * data.p,
        feature_rank=feature_rank,
        feature_required=data.p,
        snapshot_rank=snapshot_rank,
        snapshot_required=data.r,
        design_rank=design_rank,
        design_required=data.r * data.p,
    )


def compress(data: InferenceData) -> InferenceData:
    """Data with ``min(Nt, r) + 1`` columns per sample that every fit reads as it reads ``data``.

    One thin Householder QR per sample, ``Y_s^T = O_s R_s`` (``O_s`` is
    ``Nt x k`` with orthonormal columns, ``k = min(Nt, r)``), gives
    ``Y_s Y_s^T = R_s^T R_s`` and ``Z_s Y_s^T = (Z_s O_s) R_s``, and splits
    each residual into orthogonal parts:

        ||Z_s - A Y_s||_F^2 = ||Z_s O_s - A R_s^T||_F^2 + ||Z_s - Z_s O_s O_s^T||_F^2.

    Sample ``s`` of the result has snapshots ``[R_s^T, 0]`` and derivatives
    ``[Z_s O_s, t_s e_1]``, with ``t_s`` the last norm above, measured from
    the difference itself so that the residual of exact data stays at
    roundoff.  The normal equations, the design's singular values, the
    objective and its gradient, the uniqueness report and each solver's
    results then equal those of ``data`` to rounding; no QR squares a
    condition number.  Compressing compressed data changes nothing beyond
    rounding.
    """
    r, nt, ns = data.ys.shape
    k = min(nt, r)
    ys = np.zeros((r, k + 1, ns))
    zs = np.zeros((r, k + 1, ns))
    # sample by sample: the only temporaries are one sample's O_s and tail
    for s in range(ns):
        o, rfac = np.linalg.qr(data.ys[:, :, s].T)
        zo = data.zs[:, :, s] @ o
        ys[:, :k, s] = rfac.T
        zs[:, :k, s] = zo
        zs[0, k, s] = np.linalg.norm(data.zs[:, :, s] - zo @ o.T)
    return InferenceData(nus=data.nus, ys=ys, zs=zs)


def assemble_normal_system(data: InferenceData) -> tuple[np.ndarray, np.ndarray]:
    """Dense normal-equations pair ``(B, C)`` for the unconstrained fit.

    ``B`` is ``(r*p, r*p)`` symmetric positive semidefinite and ``C`` is
    ``(r, r*p)``; the merged unknown ``cvec(T, 1, 2)`` solves
    ``cvec(T, 1, 2) @ B = C``.
    """
    r, p, nus = data.r, data.p, data.nus
    yts = data.ys.transpose(2, 1, 0)  # Y_s^T, (S, Nt, r)
    grams = (data.ys.transpose(2, 0, 1) @ yts).reshape(-1, r * r)  # Y_s Y_s^T
    crosses = (data.zs.transpose(2, 0, 1) @ yts).reshape(-1, r * r)  # Z_s Y_s^T
    weights = (nus[:, None] * nus[None]).reshape(p * p, -1)  # nu_xs nu_ys
    # B[(x, i), (y, j)] = sum_s nu_xs nu_ys H_s[i, j]; C[i, (x, j)] = sum_s nu_xs (Z_s Y_s^T)[i, j]
    bhat = (weights @ grams).reshape(p, p, r, r).transpose(0, 2, 1, 3).reshape(p * r, p * r)
    chat = (nus @ crosses).reshape(p, r, r).transpose(1, 0, 2).reshape(r, p * r)
    return bhat, chat


def assemble_lstsq_system(data: InferenceData) -> tuple[np.ndarray, np.ndarray]:
    """Tall least-squares pair ``(D, R)`` for the unconstrained fit.

    ``D`` is ``(Nt*Ns, r*p)`` and ``R`` is ``(r, Nt*Ns)``; row ``i`` of the
    merged unknown solves ``D @ row_i ~= R[i]``.  Satisfies
    ``D.T @ D == B`` from :func:`assemble_normal_system` exactly.
    """
    k = np.einsum("ias,xs->iaxs", data.ys, data.nus)
    d = tensors.cvec(tensors.cvec(k, 0, 2), 1, 2).T
    rstack = tensors.cvec(data.zs, 1, 2)
    return d, rstack


def _diagnostics(tensor: np.ndarray, data: InferenceData, structure: str) -> tuple[float, float]:
    resid = objective(tensor, data)
    grad = objective_gradient(tensor, data)
    if structure == "symmetric":
        grad = 0.5 * (grad + grad.transpose(1, 0, 2))
    return resid, float(np.sqrt(np.sum(grad**2)))


def infer_normal(data: InferenceData) -> InferredTensor:
    """Unconstrained fit via the dense normal equations.

    Raises
    ------
    NonUniqueSolutionError
        If the minimizer is not unique (the design is rank deficient); the
        exception carries the :class:`UniquenessReport`.
    SingularMatrixError
        If the design has full rank but its normal equations are too
        ill-conditioned to solve in floating point.
    """
    report = uniqueness_check(data)
    if not report.unique:
        raise NonUniqueSolutionError(
            f"inference problem has no unique solution: {report}", report=report
        )
    bhat, chat = assemble_normal_system(data)
    shape = (data.r, data.p)

    def residual(sol):  # C^T - B sol: column i is row i of the negated gradient
        return -tensors.cvec(objective_gradient(tensors.cmat(sol.T, 1, 2, shape), data), 1, 2).T

    # the solve overwrites the storage, bhat itself up to order 256: a fresh
    # C-contiguous array nothing else holds
    system = pack_lower(bhat)
    del bhat
    sol, cond = solve_sym(system, chat.T, residual)
    tensor = tensors.cmat(sol.T, 1, 2, shape)
    resid, stat = _diagnostics(tensor, data, "generic")
    return InferredTensor(
        tensor=tensor,
        method="normal",
        structure="generic",
        cond=cond,
        residual=resid,
        stationarity=stat,
        unknowns=tensor.size,
        system_bytes=system.nbytes,
    )


def infer_lstsq(data: InferenceData) -> InferredTensor:
    """Unconstrained fit via SVD least squares (minimum-norm on deficiency)."""
    d, rstack = assemble_lstsq_system(data)
    sol, rank, sv = lstsq_min_norm(d, rstack.T)
    tensor = tensors.cmat(sol.T, 1, 2, (data.r, data.p))
    rank_deficient = rank < d.shape[1]
    if sv.size and sv[-1] > 0.0 and not rank_deficient:
        cond = float(sv[0] / sv[-1])
    else:
        cond = float("inf")
    resid, stat = _diagnostics(tensor, data, "generic")
    return InferredTensor(
        tensor=tensor,
        method="lstsq",
        structure="generic",
        cond=cond,
        residual=resid,
        stationarity=stat,
        unknowns=tensor.size,
        system_bytes=d.nbytes,
        rank_deficient=rank_deficient,
    )


def infer_symmetric(data: InferenceData) -> InferredTensor:
    """Structure-constrained fit: every slice of ``T`` is symmetric.

    Solves the constrained least squares

        minimize L(T)  subject to  T[:, :, x].T == T[:, :, x],

    in the coordinates of the constraint: each slice is expanded in the
    orthonormal basis ``E_ab = w_ab (e_a e_b^T + e_b e_a^T)`` of the
    symmetric matrices, ``a <= b``, with ``w_ab = 1/sqrt(2)`` off the
    diagonal and ``w_aa = 1/2`` (so ``E_aa = e_a e_a^T``).  That leaves
    ``p*r*(r+1)/2`` unknowns.  The system is the unconstrained normal
    equations ``(B, C)`` of :func:`assemble_normal_system` restricted to the
    constraint subspace.  With ``G[x, i, y, j] = sum_s nu_xs nu_ys H_s[i, j]``
    read from ``B`` (``H_s = Y_s Y_s^T``), the entry for the pairs
    ``(a, b)`` and ``(c, d)`` of slices ``x`` and ``y`` is
    ``sum_s nu_xs nu_ys tr(E_ab^T E_cd H_s)``, that is

        w_ab w_cd [d_ac G[x, b, y, d] + d_bd G[x, a, y, c]
                   + d_ad G[x, b, y, c] + d_bc G[x, a, y, d]],

    with ``d`` the Kronecker delta: zero unless the two pairs share an
    index, so it is filled by four index-matched scatters of ``G``.  The
    right-hand side is ``w_ab (C_x[a, b] + C_x[b, a])``.  The system is
    symmetric positive definite whenever the constrained minimizer is
    unique and is solved by Cholesky, in place: its lower triangle is
    assembled one feature block at a time straight into the row strips
    :func:`~topinf.linalg.solve_sym` takes (:func:`_symmetric_system`), so
    the fit holds one system array of a little over ``4 * unknowns**2``
    bytes, and its peak is about 1.2 times that.  The refinement
    residual is the objective's gradient projected onto the basis,
    ``-w_ab (g_ab + g_ba)``, as the right-hand side is built.  A resource
    guard refuses problems with more than :data:`SYMMETRIC_UNKNOWN_CAP`
    unknowns, reporting that peak.  The solution is written back with exact
    symmetry.
    """
    r, p = data.r, data.p
    a, b = np.triu_indices(r)
    w = np.where(a == b, 0.5, np.sqrt(0.5))
    unknowns = a.size * p
    if unknowns > SYMMETRIC_UNKNOWN_CAP:
        system_mib = lower_size(unknowns) * 8 / 2**20
        raise ResourceLimitError(
            f"symmetric inference needs {unknowns} unknowns (lower-triangle system "
            f"{system_mib:.1f} MiB, factored in place: fit peak about "
            f"{_SYMMETRIC_PEAK_SYSTEMS * system_mib:.1f} MiB); cap is {SYMMETRIC_UNKNOWN_CAP}"
        )

    def symmetric(theta):  # the tensor of coordinates theta, (p * m,) in feature blocks
        half = np.zeros((r, r, p))
        half[a, b] = w[:, None] * theta.reshape(p, a.size).T
        return half + half.transpose(1, 0, 2)

    def residual(theta):  # c - A theta: the negated gradient in the basis E_ab
        grad = objective_gradient(symmetric(theta), data)
        return -(w[:, None] * (grad[a, b] + grad[b, a])).T.ravel()

    system, rhs = _symmetric_system(data, a, b, w)
    theta, cond = solve_sym(system, rhs, residual)
    system_bytes = system.nbytes
    del system  # the solve left it undefined; the diagnostics need the room
    tensor = symmetric(theta)
    resid, stat = _diagnostics(tensor, data, "symmetric")
    return InferredTensor(
        tensor=tensor,
        method="symmetric",
        structure="symmetric",
        cond=cond,
        residual=resid,
        stationarity=stat,
        unknowns=unknowns,
        system_bytes=system_bytes,
    )


def _symmetric_system(data: InferenceData, a: np.ndarray, b: np.ndarray,
                      w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower triangle and right-hand side of :func:`infer_symmetric`'s system, read off ``(B, C)``.

    ``E_k`` is ``w_k`` times the sum of the unit matrices ``e_a e_b^T`` and
    ``e_b e_a^T``; ``e_u e_v^T`` and ``e_s e_t^T`` couple through
    ``delta_us gram[., v, ., t]``.  Each of the four terms is scattered one
    feature block ``(x, y)``, ``x >= y``, at a time, into the lower-strip
    storage of :func:`~topinf.linalg.solve_sym` (in a diagonal block, the
    pairs ``k >= l``), so that no temporary outgrows one term of one block
    and the storage is the one large array.
    """
    r, p, m = data.r, data.p, a.size
    # B is G of the docstring as gram[x, i, y, j]; C holds C_x[i, j] at cross[i, x, j]
    bfull, cfull = assemble_normal_system(data)
    gram = bfull.reshape(p, r, p, r)
    cross = cfull.reshape(r, p, r)
    system = np.zeros(lower_size(p * m))
    for ku, kv in ((a, b), (b, a)):
        for lu, lv in ((a, b), (b, a)):
            k, l = np.nonzero(ku[:, None] == lu[None, :])
            on = k >= l
            for x in range(p):
                for y in range(x + 1):
                    pick = on if x == y else slice(None)
                    kk, ll = k[pick], l[pick]
                    system[lower_index(x * m + kk, y * m + ll, p * m)] += (
                        w[kk] * w[ll] * gram[x, :, y][kv[kk], lv[ll]])
    rhs = (w[:, None] * (cross[a, :, b] + cross[b, :, a])).T.ravel()
    return system, rhs


def _residuals(tensor: np.ndarray, data: InferenceData) -> np.ndarray:
    """The residuals ``(T nu_s) Y_s - Z_s`` of every sample, ``(S, r, Nt)``."""
    tensor = np.asarray(tensor, dtype=float)
    if tensor.shape != (data.r, data.r, data.p):
        raise ValueError(
            f"tensor must have shape {(data.r, data.r, data.p)}, got {tensor.shape}"
        )
    ops = tensors.mode3_product(tensor, data.nus)
    return ops @ data.ys.transpose(2, 0, 1) - data.zs.transpose(2, 0, 1)


def objective(tensor: np.ndarray, data: InferenceData) -> float:
    """Objective value ``1/2 sum_s ||Z_s - (T nu_s) Y_s||_F^2``."""
    return 0.5 * float(np.sum(_residuals(tensor, data) ** 2))


def objective_gradient(tensor: np.ndarray, data: InferenceData) -> np.ndarray:
    """Gradient of :func:`objective` with respect to the tensor entries.

    Equals ``sum_s [(T nu_s) Y_s - Z_s] Y_s^T (x) nu_s`` where ``(x)``
    appends the feature axis.
    """
    r = data.r
    products = _residuals(tensor, data) @ data.ys.transpose(2, 1, 0)  # (S, r, r)
    return (products.reshape(-1, r * r).T @ data.nus.T).reshape(r, r, data.p)

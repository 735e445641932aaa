"""Dense linear-algebra wrappers with explicit failure contracts.

Thin layers over LAPACK (through NumPy/SciPy) that pin down the behaviors
the rest of the package relies on:

* :func:`cholesky_upper` -- upper-triangular factor with a relative pivot
  tolerance, raising :class:`~topinf.errors.NotPositiveDefiniteError` with
  the offending pivot index;
* :func:`solve_sym` -- symmetric positive definite solve by Cholesky with
  symmetric diagonal equilibration, one step of iterative refinement, and
  a condition estimate, raising :class:`~topinf.errors.SingularMatrixError`
  with a rank estimate when the matrix is singular to working precision
  and :class:`~topinf.errors.NotPositiveDefiniteError` when it is
  indefinite;
* :func:`lstsq_min_norm` -- SVD-based minimum-norm least squares with a
  fixed relative singular-value cutoff;
* :func:`thin_svd` -- economy-size SVD;
* :func:`factor_tridiagonals` -- one ``LDL^T`` factorization of a stack of
  symmetric positive definite tridiagonals, raising
  :class:`~topinf.errors.NotPositiveDefiniteError` with the sample and
  pivot index of a breakdown; its :meth:`TridiagonalFactor.solve` solves
  every sample's system with one LAPACK call.

Equilibration and refinement are exact algebraic reformulations; they do
not change the solution being computed, only its floating-point accuracy.

Every O(n^3) factorization runs in NumPy.  NumPy and SciPy link separate
BLAS builds with separate thread pools, and a threaded SciPy factorization
next to NumPy products stalls the latter; SciPy's LAPACK is called only
for the O(n^2) Cholesky follow-ups (condition estimate, triangular solves)
and, on the failure path, to locate the breakdown pivot.  The O(n)
tridiagonal routines (``dpttrf``/``dpttrs``) call no BLAS at all.  SciPy
is imported where its LAPACK is first called, so importing the package
and building a model do not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, SingularMatrixError

__all__ = [
    "cholesky_upper",
    "solve_sym",
    "lstsq_min_norm",
    "thin_svd",
    "TridiagonalFactor",
    "factor_tridiagonals",
]

#: Relative pivot tolerance for Cholesky (pivot^2 vs. largest diagonal entry).
CHOLESKY_PIVOT_RTOL = 1e-13

#: Reciprocal-condition threshold below which a symmetric solve is refused.
SOLVE_RCOND_FLOOR = 1e-14

#: Relative singular-value cutoff for minimum-norm least squares.
LSTSQ_RCOND = 1e-12


def _require_square(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")


#: Rows per strip of the symmetry check and of the row reductions of ``|a|``.
_SYMMETRY_BLOCK = 64


def _abs_rows(a: np.ndarray, reduce) -> np.ndarray:
    """``reduce(np.abs(a), axis=1)`` read a strip of rows at a time, with no full-size ``|a|``."""
    out = np.empty(a.shape[0])
    for i in range(0, a.shape[0], _SYMMETRY_BLOCK):
        out[i:i + _SYMMETRY_BLOCK] = reduce(np.abs(a[i:i + _SYMMETRY_BLOCK]), axis=1)
    return out


def _require_symmetric(a: np.ndarray, name: str, rtol: float = 1e-8) -> None:
    scale = np.max(_abs_rows(a, np.max)) if a.size else 0.0
    if scale == 0.0:
        return
    # max |a - a^T| over strips a[i:j, i:] of the upper triangle: every pair
    # (row <= col) once, and each transposed strip is a short-strided read,
    # where a full ``a - a.T`` walks the transpose a column at a time
    n = a.shape[0]
    worst = 0.0
    for i in range(0, n, _SYMMETRY_BLOCK):
        j = min(i + _SYMMETRY_BLOCK, n)
        worst = max(worst, float(np.max(np.abs(a[i:j, i:] - a[i:, i:j].T))))
    if worst > rtol * scale:
        raise ValueError(f"{name} is not symmetric to relative tolerance {rtol}")


def _upper_factor(m: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor of ``m`` from NumPy, or None on breakdown."""
    try:
        return np.linalg.cholesky(m).T
    except np.linalg.LinAlgError:
        return None


def _breakdown_pivot(m: np.ndarray) -> int:
    """0-based index of the pivot at which LAPACK's Cholesky of ``m`` fails.

    Failure path only.  Should SciPy's factorization get through where
    NumPy's broke down (the two BLAS builds round differently), the
    smallest pivot of its factor is reported.
    """
    from scipy.linalg import lapack
    c, info = lapack.dpotrf(m, lower=0, overwrite_a=0)
    if info > 0:
        return int(info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return int(np.argmin(np.abs(np.diag(c))))


def cholesky_upper(m: np.ndarray) -> np.ndarray:
    """Upper-triangular ``R`` with ``R.T @ R == m`` for symmetric ``m``.

    Parameters
    ----------
    m : ndarray, shape (n, n)
        Symmetric positive definite matrix.  A factorization is rejected
        when any squared pivot falls at or below
        :data:`CHOLESKY_PIVOT_RTOL` times the largest diagonal entry.

    Raises
    ------
    NotPositiveDefiniteError
        If factorization breaks down or produces a negligible pivot; the
        exception carries the 0-based index of the first bad pivot.
    """
    m = np.asarray(m, dtype=float)
    _require_square(m, "m")
    _require_symmetric(m, "m")
    r = _upper_factor(m)
    if r is None:
        pivot = _breakdown_pivot(m)
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {pivot} failed)",
            pivot_index=pivot,
        )
    pivots = np.diag(r) ** 2
    floor = CHOLESKY_PIVOT_RTOL * float(np.max(np.diag(m)))
    bad = np.nonzero(pivots <= floor)[0]
    if bad.size:
        raise NotPositiveDefiniteError(
            f"pivot {bad[0]} is negligible relative to the diagonal "
            f"(pivot^2={pivots[bad[0]]:.3e} <= {floor:.3e})",
            pivot_index=int(bad[0]),
        )
    return r


def _singular(eigvals: np.ndarray, rcond: float, rtol: float = 1e-12) -> SingularMatrixError:
    """The error for a matrix singular to working precision.

    ``eigvals`` are the matrix's eigenvalues; the rank estimate counts those
    above ``rtol`` times the largest in magnitude.
    """
    eigvals = np.abs(eigvals)
    top = float(np.max(eigvals)) if eigvals.size else 0.0
    rank = 0 if top == 0.0 else int(np.count_nonzero(eigvals > rtol * top))
    return SingularMatrixError(
        f"matrix is singular to working precision (rcond={float(rcond):.3e})",
        rank_estimate=rank,
        cond_estimate=float("inf") if rcond <= 0.0 else 1.0 / float(rcond),
    )


def solve_sym(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``b @ x = c`` for symmetric positive definite ``b``.

    Returns ``(x, cond_estimate)``.  The system is symmetrically
    equilibrated by the square roots of its row infinity-norms, factorized
    once by Cholesky, and the solution is polished with a single
    iterative-refinement step.  The reported condition number is a
    reciprocal 1-norm LAPACK estimate of the equilibrated matrix.

    Raises
    ------
    SingularMatrixError
        If the equilibrated matrix has an estimated reciprocal condition
        number at or below :data:`SOLVE_RCOND_FLOOR`, or is positive
        semidefinite to within that margin so that the factorization
        breaks down.  The
        exception carries a rank estimate obtained from the eigenvalues of
        the equilibrated matrix.
    NotPositiveDefiniteError
        If the equilibrated matrix has an eigenvalue below
        ``-SOLVE_RCOND_FLOOR`` times its largest one; the exception carries
        the index of the pivot at which the factorization broke down.
    """
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    _require_square(b, "b")
    _require_symmetric(b, "b")
    if c.shape[0] != b.shape[0]:
        raise ValueError(
            f"right-hand side has leading dimension {c.shape[0]}, expected {b.shape[0]}"
        )
    if not np.all(np.isfinite(b)) or not np.all(np.isfinite(c)):
        raise ValueError("non-finite entries in the linear system")

    row_max = _abs_rows(b, np.max)
    scale = np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    # one division: dividing rows, then columns, in place rounds differently
    bs = b / np.outer(scale, scale)
    cs = c.reshape(b.shape[0], -1) / scale[:, None]

    factor = _upper_factor(bs)
    if factor is None:
        eigvals = np.linalg.eigvalsh(bs)
        if eigvals[0] < -SOLVE_RCOND_FLOOR * abs(eigvals[-1]):
            pivot = _breakdown_pivot(bs)
            raise NotPositiveDefiniteError(
                f"matrix is indefinite (Cholesky pivot {pivot} failed)",
                pivot_index=pivot,
            )
        raise _singular(eigvals, 0.0)
    from scipy.linalg import lapack
    # bs is symmetric, so its 1-norm is its largest absolute row sum
    anorm = float(np.max(_abs_rows(bs, np.sum)))
    rcond, info = lapack.dpocon(factor, anorm)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpocon")
    if not np.isfinite(rcond) or rcond <= SOLVE_RCOND_FLOOR:
        raise _singular(np.linalg.eigvalsh(bs), rcond)

    y, _ = lapack.dpotrs(factor, cs)
    y += lapack.dpotrs(factor, cs - bs @ y)[0]
    x = (y / scale[:, None]).reshape(c.shape)
    return x, 1.0 / float(rcond)


def lstsq_min_norm(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Minimum-norm least-squares solution of ``a @ x ~= b``.

    SVD-based; singular values at or below :data:`LSTSQ_RCOND` times the
    largest are treated as zero.  Returns ``(x, rank, singular_values)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"right-hand side has leading dimension {b.shape[0]}, expected {a.shape[0]}"
        )
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValueError("non-finite entries in the least-squares system")
    x, _, rank, sv = np.linalg.lstsq(a, b, rcond=LSTSQ_RCOND)
    return x, int(rank), sv


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy-size SVD ``a = u @ diag(s) @ vt`` with descending ``s``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in the matrix")
    return np.linalg.svd(a, full_matrices=False)


@dataclass(frozen=True)
class TridiagonalFactor:
    """``LDL^T`` factor of ``S`` SPD tridiagonals of order ``n``, laid end to end.

    The matrices form one tridiagonal of order ``S * n`` whose couplings
    across the seams between samples are zero, so one LAPACK call factors
    or solves all of them.  ``d`` holds the pivots of ``D`` and ``e`` the
    subdiagonal of the unit bidiagonal ``L``, as ``dpttrf`` returns them.
    Built by :func:`factor_tridiagonals`.
    """

    d: np.ndarray
    e: np.ndarray
    samples: int
    n: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Overwrite ``b`` with the solution of every sample's system; return it.

        ``b`` is a C-contiguous float64 array of shape ``(..., S, n)``: entry
        ``[..., s, :]`` is a right-hand side of sample ``s``, and the leading
        axes index independent right-hand sides.  A non-finite entry of one
        sample turns the next sample's solution to NaN (``0 * inf`` at the
        seam); callers that need per-sample isolation re-solve that case.
        """
        if b.shape[-2:] != (self.samples, self.n):
            raise ValueError(
                f"right-hand side {b.shape} does not end in ({self.samples}, {self.n})"
            )
        if b.dtype != np.float64 or not b.flags.c_contiguous:
            raise ValueError("right-hand side must be a C-contiguous float64 array")
        from scipy.linalg import lapack
        # rows of the C-ordered (k, S*n) view are the Fortran columns dpttrs
        # solves in place
        x, info = lapack.dpttrs(self.d, self.e, b.reshape(-1, self.samples * self.n).T,
                                overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpttrs")
        if not np.may_share_memory(x, b):
            b[...] = x.T.reshape(b.shape)
        return b


def factor_tridiagonals(diag: np.ndarray, off: np.ndarray) -> TridiagonalFactor:
    """Factor the SPD tridiagonals with diagonals ``diag`` (S, n) and off-diagonals ``off`` (S, n-1).

    Raises
    ------
    NotPositiveDefiniteError
        If a matrix is not positive definite; the exception carries the
        0-based ``sample`` and the 0-based ``pivot_index`` within it.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.ndim != 2 or diag.shape[1] < 1 or off.shape != (diag.shape[0], diag.shape[1] - 1):
        raise ValueError(f"diagonals {diag.shape} and off-diagonals {off.shape} do not conform")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError("non-finite entries in the tridiagonals")
    from scipy.linalg import lapack
    samples, n = diag.shape
    seams = np.zeros((samples, n))
    seams[:, :-1] = off  # zero coupling between consecutive samples
    d, e, info = lapack.dpttrf(diag.ravel(), seams.ravel()[:-1])
    if info > 0:
        sample, pivot = divmod(int(info) - 1, n)
        raise NotPositiveDefiniteError(
            f"tridiagonal {sample} is not positive definite (pivot {pivot} failed)",
            pivot_index=pivot,
            sample=sample,
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpttrf")
    return TridiagonalFactor(d=d, e=e, samples=samples, n=n)

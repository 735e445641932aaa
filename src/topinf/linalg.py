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
* :func:`thin_svd` -- economy-size SVD.

Equilibration and refinement are exact algebraic reformulations; they do
not change the solution being computed, only its floating-point accuracy.

Every O(n^3) factorization runs in NumPy.  NumPy and SciPy link separate
BLAS builds with separate thread pools, and a threaded SciPy factorization
next to NumPy products stalls the latter; SciPy's LAPACK is called only
for the O(n^2) Cholesky follow-ups (condition estimate, triangular solves)
and, on the failure path, to locate the breakdown pivot.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError, SingularMatrixError

__all__ = ["cholesky_upper", "solve_sym", "lstsq_min_norm", "thin_svd"]

#: Relative pivot tolerance for Cholesky (pivot^2 vs. largest diagonal entry).
CHOLESKY_PIVOT_RTOL = 1e-13

#: Reciprocal-condition threshold below which a symmetric solve is refused.
SOLVE_RCOND_FLOOR = 1e-14

#: Relative singular-value cutoff for minimum-norm least squares.
LSTSQ_RCOND = 1e-12


def _require_square(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")


#: Rows per strip of the symmetry check.
_SYMMETRY_BLOCK = 64


def _require_symmetric(a: np.ndarray, name: str, rtol: float = 1e-8) -> None:
    scale = np.max(np.abs(a)) if a.size else 0.0
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
    c, info = lapack.dpotrf(m, lower=0, overwrite_a=0)
    if info > 0:
        return int(info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return int(np.argmin(np.abs(np.diag(c))))


def cholesky_upper(m: np.ndarray, pivot_rtol: float = CHOLESKY_PIVOT_RTOL) -> np.ndarray:
    """Upper-triangular ``R`` with ``R.T @ R == m`` for symmetric ``m``.

    Parameters
    ----------
    m : ndarray, shape (n, n)
        Symmetric positive definite matrix.
    pivot_rtol : float
        A factorization is rejected when any squared pivot falls at or
        below ``pivot_rtol`` times the largest diagonal entry of ``m``.

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
    floor = pivot_rtol * float(np.max(np.diag(m)))
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


def solve_sym(
    b: np.ndarray,
    c: np.ndarray,
    rcond_floor: float = SOLVE_RCOND_FLOOR,
) -> tuple[np.ndarray, float]:
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
        number at or below ``rcond_floor``, or is positive semidefinite to
        within that margin so that the factorization breaks down.  The
        exception carries a rank estimate obtained from the eigenvalues of
        the equilibrated matrix.
    NotPositiveDefiniteError
        If the equilibrated matrix has an eigenvalue below
        ``-rcond_floor`` times its largest one; the exception carries the
        index of the pivot at which the factorization broke down.
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

    row_max = np.max(np.abs(b), axis=1)
    scale = np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    bs = b / np.outer(scale, scale)
    cs = c.reshape(b.shape[0], -1) / scale[:, None]

    factor = _upper_factor(bs)
    if factor is None:
        eigvals = np.linalg.eigvalsh(bs)
        if eigvals[0] < -rcond_floor * abs(eigvals[-1]):
            pivot = _breakdown_pivot(bs)
            raise NotPositiveDefiniteError(
                f"matrix is indefinite (Cholesky pivot {pivot} failed)",
                pivot_index=pivot,
            )
        raise _singular(eigvals, 0.0)
    anorm = float(np.max(np.abs(bs).sum(axis=0)))
    rcond, info = lapack.dpocon(factor, anorm)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpocon")
    if not np.isfinite(rcond) or rcond <= rcond_floor:
        raise _singular(np.linalg.eigvalsh(bs), rcond)

    y, _ = lapack.dpotrs(factor, cs)
    y += lapack.dpotrs(factor, cs - bs @ y)[0]
    x = (y / scale[:, None]).reshape(c.shape)
    return x, 1.0 / float(rcond)


def lstsq_min_norm(
    a: np.ndarray,
    b: np.ndarray,
    rcond: float = LSTSQ_RCOND,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Minimum-norm least-squares solution of ``a @ x ~= b``.

    SVD-based; singular values at or below ``rcond`` times the largest are
    treated as zero.  Returns ``(x, rank, singular_values)``.
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
    x, _, rank, sv = np.linalg.lstsq(a, b, rcond=rcond)
    return x, int(rank), sv


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy-size SVD ``a = u @ diag(s) @ vt`` with descending ``s``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in the matrix")
    return np.linalg.svd(a, full_matrices=False)

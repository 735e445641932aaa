"""Dense and tridiagonal linear algebra with explicit failure contracts.

Layers over NumPy's LAPACK, and NumPy's elementwise arithmetic for
tridiagonals, that pin down the behaviors the rest of the package relies
on:

* :func:`cholesky_upper` -- upper-triangular factor with a relative pivot
  tolerance, raising :class:`~topinf.errors.NotPositiveDefiniteError` with
  the offending pivot index;
* :func:`solve_sym` -- symmetric positive definite solve by Cholesky with
  symmetric diagonal equilibration, one step of iterative refinement, and
  a condition estimate, raising :class:`~topinf.errors.SingularMatrixError`
  with a rank estimate when the matrix is singular to working precision
  and :class:`~topinf.errors.NotPositiveDefiniteError` when it is
  indefinite.  It works in the caller's array, which is then the one
  full-size array held: the system is equilibrated in place, a blocked
  Cholesky (:func:`_cholesky_in_place`) writes its factor into the lower
  triangle and the upper triangle keeps the equilibrated system for the
  refinement residual and the failure paths.  The solves go through the
  inverses of the factor's diagonal blocks (:func:`_cholesky_solve`), and
  the condition estimate is a port of LAPACK's ``dpocon``
  (:func:`_inverse_norm_estimate`);
* :func:`lstsq_min_norm` -- SVD-based minimum-norm least squares with a
  fixed relative singular-value cutoff;
* :func:`thin_svd` -- economy-size SVD;
* :func:`factor_tridiagonals` -- one ``LDL^T`` factorization of a stack of
  symmetric positive definite tridiagonals, raising
  :class:`~topinf.errors.NotPositiveDefiniteError` with the sample and
  pivot index of a breakdown; its :meth:`TridiagonalFactor.solve` solves
  every sample's system at once.

Equilibration and refinement are exact algebraic reformulations; they do
not change the solution being computed, only its floating-point accuracy.
NumPy has no triangular solve, so :func:`solve_sym` blocks its
factorization over NumPy's Cholesky and products, solves through the
diagonal blocks' inverses, estimates its condition number with NumPy, and
locates a breakdown pivot by bisection over NumPy's Cholesky.

The tridiagonal stacks are held positions first, ``(n, ..., S)`` for S
samples, so that each step of a factorization or solve is one contiguous
elementwise pass over every sample and no sample's arithmetic reads
another's: a sample solved in a stack gets the bits it gets alone.  The
factorization is ``dpttrf``'s recurrence, one position at a time.  A solve
is two recursive-doubling scans of ``ceil(log2 n)`` levels each, about
``4 log2 n`` NumPy calls over every sample at once, and O(n log n) work
per right-hand side against the O(n) of a sequential substitution.  The
scan coefficients are products of consecutive multipliers, the entries of
``L^-1``.  In a diagonally dominant tridiagonal every multiplier is below
1 in magnitude, so no coefficient can overflow; every step matrix the
package builds is of that kind.
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


def _require_symmetric(a: np.ndarray, name: str, rtol: float = 1e-8,
                       row_max: np.ndarray | None = None) -> None:
    # row_max: the rows' largest absolute entries, when the caller has them
    if row_max is None:
        row_max = _abs_rows(a, np.max)
    scale = np.max(row_max) if a.size else 0.0
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


def _breakdown_pivot(m: np.ndarray) -> int:
    """0-based index of the pivot at which the Cholesky factorization of ``m`` fails.

    Failure path only: the order of the smallest leading principal block
    that ``np.linalg.cholesky`` does not factor, less one, found by
    bisection over the block order (about ``log2(n)`` factorizations).
    Only the lower triangle of ``m`` is read.
    """
    good, bad = 0, m.shape[0]  # orders known to factor and to fail
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(m[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad - 1


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
    try:
        r = np.linalg.cholesky(m).T
    except np.linalg.LinAlgError:
        pivot = _breakdown_pivot(m)
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {pivot} failed)",
            pivot_index=pivot,
        ) from None
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


#: Order of the diagonal blocks of :func:`solve_sym`'s in-place Cholesky.
_CHOLESKY_BLOCK = 256


def _equilibrate(b: np.ndarray, scale: np.ndarray) -> float:
    """Overwrite ``b`` with ``b / outer(scale, scale)`` a strip of rows at a time; return its 1-norm.

    Strip by strip, these are the bits of the one full-size division,
    computed with no temporary larger than a strip.  The result is
    symmetric, so its 1-norm is its largest absolute row sum, taken from
    each strip as it is written.
    """
    norm = 0.0
    for i in range(0, b.shape[0], _SYMMETRY_BLOCK):
        rows = b[i:i + _SYMMETRY_BLOCK]
        rows /= np.multiply.outer(scale[i:i + _SYMMETRY_BLOCK], scale)
        norm = max(norm, float(np.max(np.sum(np.abs(rows), axis=1))))
    return norm


def _cholesky_in_place(a: np.ndarray) -> list[np.ndarray]:
    """Overwrite the lower triangle of ``a`` with its Cholesky factor ``L``.

    Returns the inverses of the diagonal blocks of ``L``, in order, which
    :func:`_cholesky_solve` applies.  Right-looking and blocked: each
    diagonal block of order :data:`_CHOLESKY_BLOCK` is factored by
    ``np.linalg.cholesky`` and inverted, the panel below it is solved
    through that inverse, and the trailing lower triangle is updated in
    row strips that each cover one later diagonal block whole.  Only the
    lower triangle is read; the upper triangle off the diagonal blocks
    keeps its entries, the diagonal blocks' is zeroed.  A matrix of at
    most one block makes exactly the one ``np.linalg.cholesky`` call of an
    unblocked factorization.  No temporary is larger than one row strip,
    so ``a`` is the only full-size array.

    Raises
    ------
    NotPositiveDefiniteError
        If a diagonal block does not factor; the exception carries the
        0-based index, in ``a``, of the pivot at which LAPACK's Cholesky of
        that block fails.
    """
    n = a.shape[0]
    inverses = []
    for k in range(0, n, _CHOLESKY_BLOCK):
        e = min(k + _CHOLESKY_BLOCK, n)
        try:
            a[k:e, k:e] = np.linalg.cholesky(a[k:e, k:e])
        except np.linalg.LinAlgError:
            pivot = k + _breakdown_pivot(a[k:e, k:e])
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (pivot {pivot} failed)",
                pivot_index=pivot,
            ) from None
        # NumPy has no triangular solve: every solve through this block goes
        # through its inverse
        inverses.append(np.linalg.inv(a[k:e, k:e]))
        # L21 = A21 L11^-T; a strip's update reads only the panel rows
        # solved up to it
        inv_t = inverses[-1].T
        for i in range(e, n, _CHOLESKY_BLOCK):
            j = min(i + _CHOLESKY_BLOCK, n)
            a[i:j, k:e] = a[i:j, k:e] @ inv_t
            a[i:j, e:j] -= a[i:j, k:e] @ a[e:j, k:e].T
    return inverses


def _cholesky_solve(factor: np.ndarray, inverses: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = rhs`` by blocked forward and back substitution.

    ``factor`` holds ``L`` in its lower triangle and ``inverses`` the
    inverses of its diagonal blocks, as :func:`_cholesky_in_place` leaves
    them; ``rhs`` (n,) or (n, k) is not modified.  Each block row is one
    product with the rows already solved and one with its block's inverse,
    so only the lower triangle of ``factor`` is read.
    """
    x = np.array(rhs, dtype=float)
    n = factor.shape[0]
    starts = range(0, n, _CHOLESKY_BLOCK)
    for k, inv in zip(starts, inverses):  # L y = rhs
        e = min(k + _CHOLESKY_BLOCK, n)
        if k:
            x[k:e] -= factor[k:e, :k] @ x[:k]
        x[k:e] = inv @ x[k:e]
    for k, inv in zip(reversed(starts), reversed(inverses)):  # L^T x = y
        e = min(k + _CHOLESKY_BLOCK, n)
        if e < n:
            x[k:e] -= factor[e:, k:e].T @ x[e:]
        x[k:e] = inv.T @ x[k:e]
    return x


def _cholesky_keeping_upper(a: np.ndarray) -> list[np.ndarray]:
    """:func:`_cholesky_in_place`, with the diagonal blocks of ``a`` put back on return.

    The factorization overwrites the diagonal blocks whole and, in the
    upper triangle, nothing else.  Their copies, taken first, are written
    back whether it succeeds or raises, so that the upper triangle of
    ``a`` keeps the matrix (for :func:`_upper_product` and the failure
    paths' eigenvalues) and its lower triangle off the diagonal blocks
    holds the factor, whose diagonal blocks :func:`_cholesky_solve` reads
    only through the returned inverses.
    """
    n = a.shape[0]
    blocks = [slice(k, k + _CHOLESKY_BLOCK) for k in range(0, n, _CHOLESKY_BLOCK)]
    saved = [a[block, block].copy() for block in blocks]
    try:
        return _cholesky_in_place(a)
    finally:
        for block, entries in zip(blocks, saved):
            a[block, block] = entries


def _upper_product(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``A @ y`` for the symmetric ``A`` whose upper triangle and diagonal blocks ``a`` holds.

    ``y`` is (n, k).  Block row ``k`` of ``A`` is the transposed
    column strip above its diagonal block, then the row strip from that
    block on, so the lower triangle off the diagonal blocks, where
    :func:`_cholesky_keeping_upper` leaves the factor, is not read.
    """
    out = np.empty(y.shape)
    for k in range(0, a.shape[0], _CHOLESKY_BLOCK):
        e = k + _CHOLESKY_BLOCK
        out[k:e] = a[k:e, k:] @ y[k:]
        if k:
            out[k:e] += a[:k, k:e].T @ y[:k]
    return out


#: Iteration limit of the 1-norm estimator (``ITMAX`` of LAPACK's ``dlacn2``).
_NORM_ESTIMATE_STEPS = 5


def _inverse_norm_estimate(solve, n: int) -> float:
    """Lower estimate of ``||A^-1||_1`` for symmetric ``A``; ``solve(v)`` returns ``A^-1 v``.

    A port of LAPACK's ``dlacn2`` (Hager's method as refined by Higham,
    ACM TOMS 14(4), 1988), the estimator behind ``dpocon``: at most
    :data:`_NORM_ESTIMATE_STEPS` iterations over sign and unit vectors,
    then one solve with the alternating-sign vector
    ``(-1)^i (1 + i / (n - 1))``, whose scaled 1-norm is taken when it is
    larger.  ``A`` is symmetric, so the solves with ``A^-T`` that
    ``dlacn2`` asks for are solves with ``A``.
    """
    x = solve(np.full(n, 1.0 / n))
    if n == 1:
        return abs(float(x[0]))
    est = float(np.sum(np.abs(x)))
    signs = np.where(x >= 0.0, 1.0, -1.0)
    x = solve(signs)
    j = int(np.argmax(np.abs(x)))
    for _ in range(2, _NORM_ESTIMATE_STEPS + 1):
        unit = np.zeros(n)
        unit[j] = 1.0
        x = solve(unit)
        est_old, est = est, float(np.sum(np.abs(x)))
        new_signs = np.where(x >= 0.0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or est <= est_old:
            break  # converged, or cycling
        signs = new_signs
        x = solve(signs)
        j_last, j = j, int(np.argmax(np.abs(x)))
        if x[j_last] == abs(x[j]):
            break
    alternating = 1.0 + np.arange(n) / (n - 1)
    alternating[1::2] *= -1.0
    return max(est, 2.0 * (float(np.sum(np.abs(solve(alternating)))) / (3 * n)))


def solve_sym(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``b @ x = c`` for symmetric positive definite ``b``, overwriting ``b``.

    Returns ``(x, cond_estimate)``.  The system is symmetrically
    equilibrated by the square roots of its row infinity-norms, factorized
    once by Cholesky, and the solution is polished with a single
    iterative-refinement step.  The reported condition number is the
    reciprocal of LAPACK's ``dpocon`` estimate for the equilibrated matrix,
    ``1 / (||A||_1 est(||A^-1||_1))``, computed by
    :func:`_inverse_norm_estimate`.

    ``b`` must be a writeable C-contiguous float64 array, and it is the
    one full-size array held: it is equilibrated in place, row strip by
    row strip, and the blocked Cholesky (:func:`_cholesky_keeping_upper`)
    overwrites its lower triangle with the factor while the upper triangle
    keeps the equilibrated system.  The refinement residual
    (:func:`_upper_product`) and the eigenvalues of the failure paths are
    read from that upper triangle.  The contents of ``b`` are undefined on
    return; ``c`` is not modified.  Every solve with the factor, and every
    product, runs in NumPy.

    Raises
    ------
    ValueError
        If ``b`` is not a writeable C-contiguous float64 square matrix,
        the shapes do not conform, an entry is not finite, or ``b`` is not
        symmetric.
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
    if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.flags.c_contiguous
            and b.flags.writeable):
        raise ValueError("b must be a writeable C-contiguous float64 array")
    c = np.asarray(c, dtype=float)
    _require_square(b, "b")
    if c.shape[0] != b.shape[0]:
        raise ValueError(
            f"right-hand side has leading dimension {c.shape[0]}, expected {b.shape[0]}"
        )
    # a row's largest absolute entry is finite exactly when the row is
    row_max = _abs_rows(b, np.max)
    if not np.all(np.isfinite(row_max)) or not np.all(np.isfinite(c)):
        raise ValueError("non-finite entries in the linear system")
    _require_symmetric(b, "b", row_max=row_max)

    n = b.shape[0]
    scale = np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    anorm = _equilibrate(b, scale)
    try:
        inverses = _cholesky_keeping_upper(b)
    except NotPositiveDefiniteError as exc:
        eigvals = np.linalg.eigvalsh(b, UPLO="U")
        if eigvals[0] < -SOLVE_RCOND_FLOOR * abs(eigvals[-1]):
            raise NotPositiveDefiniteError(
                f"matrix is indefinite (Cholesky pivot {exc.pivot_index} failed)",
                pivot_index=exc.pivot_index,
            ) from None
        raise _singular(eigvals, 0.0) from None

    def solve(v):
        return _cholesky_solve(b, inverses, v)

    ainvnm = _inverse_norm_estimate(solve, n)
    rcond = (1.0 / ainvnm) / anorm if ainvnm != 0.0 else 0.0
    if not np.isfinite(rcond) or rcond <= SOLVE_RCOND_FLOOR:
        raise _singular(np.linalg.eigvalsh(b, UPLO="U"), rcond)

    # in the equilibrated unknowns y = scale * x the system is b_s y = c / scale,
    # b_s = b / outer(scale, scale), which the upper triangle of b now holds
    column = scale[:, None]
    rhs = c.reshape(n, -1) / column
    y = solve(rhs)
    y += solve(rhs - _upper_product(b, y))
    return (y / column).reshape(c.shape), 1.0 / rcond


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
    """``LDL^T`` factor of ``S`` SPD tridiagonals of order ``n``, positions first.

    ``d`` (n, 1, S) holds the pivots of ``D``.  ``levels[k]`` (n - 2^k,
    1, S) holds, at ``[j, 0, s]``, the product of the negated multipliers
    ``-l_j ... -l_{j+2^k-1}`` of sample ``s`` (``l_i`` is the subdiagonal
    entry ``(i + 1, i)`` of the unit bidiagonal ``L``): the coefficients of
    level ``k`` of the recursive-doubling scan, which serve the forward and
    the backward substitution alike.  Built by :func:`factor_tridiagonals`.
    """

    d: np.ndarray
    levels: tuple[np.ndarray, ...]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Overwrite ``b`` with the solution of every sample's system; return it.

        ``b`` is a C-contiguous float64 array of shape ``(n, ..., S)``:
        entry ``[:, ..., s]`` is a right-hand side of sample ``s``, and the
        middle axes index independent right-hand sides.  The substitutions
        ``y_i = b_i - l_{i-1} y_{i-1}`` and ``x_i = y_i / d_i - l_i x_{i+1}``
        run as recursive-doubling scans (Kogge & Stone, 1973): level ``k``
        adds to each position the partial result ``2^k`` positions back
        (forward) or ahead (backward), times its coefficient.  Each level is
        two elementwise passes over ``b``, and no sample's arithmetic reads
        another sample's entries.
        """
        n, samples = self.d.shape[0], self.d.shape[2]
        if b.ndim < 2 or (b.shape[0], b.shape[-1]) != (n, samples):
            raise ValueError(f"right-hand side {b.shape} is not ({n}, ..., {samples})")
        if b.dtype != np.float64 or not b.flags.c_contiguous:
            raise ValueError("right-hand side must be a C-contiguous float64 array")
        x = b.reshape(n, -1, samples)
        work = np.empty((n - 1,) + x.shape[1:])
        # each update is bound to a view first: ``x[s:] += ...`` would add a
        # no-op self-assignment per level
        for level in self.levels:  # L y = b
            s = n - level.shape[0]
            ahead = x[s:]
            ahead += np.multiply(level, x[:-s], out=work[:n - s])
        x /= self.d
        for level in self.levels:  # L^T x = D^-1 y
            s = n - level.shape[0]
            behind = x[:-s]
            behind += np.multiply(level, x[s:], out=work[:n - s])
        return b


def factor_tridiagonals(diag: np.ndarray, off: np.ndarray) -> TridiagonalFactor:
    """Factor the SPD tridiagonals with diagonals ``diag`` (n, S) and off-diagonals ``off`` (n-1, S).

    Column ``s`` of each array holds the bands of sample ``s``.  The pivots
    and multipliers follow LAPACK ``dpttrf``'s recurrence,
    ``l_{i-1} = off_{i-1} / d_{i-1}``, ``d_i = diag_i - l_{i-1} off_{i-1}``,
    one position at a time for every sample at once; the scan coefficients
    of :class:`TridiagonalFactor` are then products of multipliers, with
    no division.

    Raises
    ------
    NotPositiveDefiniteError
        If a matrix is not positive definite: a pivot is not positive or
        not finite.  The exception names the first such sample, in sample
        order, as its 0-based ``sample``, and the 0-based ``pivot_index``
        of its first failing pivot.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.ndim != 2 or diag.shape[0] < 1 or off.shape != (diag.shape[0] - 1, diag.shape[1]):
        raise ValueError(f"diagonals {diag.shape} and off-diagonals {off.shape} do not conform")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError("non-finite entries in the tridiagonals")
    n = diag.shape[0]
    d, mult = diag.copy(), np.empty(off.shape)
    with np.errstate(all="ignore"):  # a failing sample's later pivots are not used
        for i in range(1, n):
            np.divide(off[i - 1], d[i - 1], out=mult[i - 1])
            d[i] -= mult[i - 1] * off[i - 1]
    # a pivot never exceeds its diagonal entry, so a NaN or -inf is the only
    # non-finite one, and it fails this test as a non-positive pivot does
    failed = ~(d > 0.0)
    if failed.any():
        sample = int(np.argmax(failed.any(axis=0)))
        pivot = int(np.argmax(failed[:, sample]))
        raise NotPositiveDefiniteError(
            f"tridiagonal {sample} is not positive definite (pivot {pivot} failed)",
            pivot_index=pivot,
            sample=sample,
        )
    levels = [-mult[:, None, :]] if n > 1 else []
    while 2 ** len(levels) < n:  # level k + 1 from level k, whose windows are s long
        s = 2 ** (len(levels) - 1)
        levels.append(levels[-1][s:] * levels[-1][:-s])
    return TridiagonalFactor(d=d[:, None, :], levels=tuple(levels))

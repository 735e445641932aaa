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
  array of its size held; every other temporary that grows with the order
  is a view of one scratch tile.  One read checks the system
  (:func:`_symmetric_row_max`) and one write equilibrates it
  (:func:`_equilibrate`).  A blocked Cholesky
  (:func:`_cholesky_in_place`) writes the factor below the diagonal, with
  each diagonal block's inverse in place of that block of the factor; the
  strict upper triangle and a copy of the diagonal keep the equilibrated
  system for the refinement residual (:func:`_upper_product`) and the
  failure paths.  The solves (:func:`_cholesky_solve`) go through the
  diagonal blocks' inverses, and the condition estimate is a port of
  LAPACK's ``dpocon`` (:func:`_inverse_norm_estimate`);
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
factorization over NumPy's Cholesky and products, inverts the diagonal
blocks of the factor by halves (:func:`_invert_lower`), solves through
those inverses, estimates its condition number with NumPy, and locates a
breakdown pivot by bisection over NumPy's Cholesky.  At 1,395 unknowns
(a 14.8 MiB system, six diagonal blocks) the solve adds 0.07 of its
system's bytes under ``tracemalloc`` and 0.04 in resident growth.

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

import math
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


#: Order of the diagonal blocks of :func:`solve_sym`'s in-place Cholesky,
#: and of the tiles of its trailing update.
_CHOLESKY_BLOCK = 256

#: ``_LOWER[:m, :m]`` marks the lower triangle, diagonal included, of an
#: ``m x m`` tile, for every ``m`` up to :data:`_CHOLESKY_BLOCK`.
_LOWER = np.tri(_CHOLESKY_BLOCK, dtype=bool)
_LOWER.flags.writeable = False

#: Rows per strip of :func:`_upper_product`, and of the applies of the
#: diagonal blocks' inverses in :func:`_cholesky_solve`.
_STRIP = 64

#: Order at and below which :func:`_invert_lower` calls ``np.linalg.inv``.
_INVERSE_LEAF = 32


def _work_buffer(n: int) -> np.ndarray:
    """The one scratch array of :func:`solve_sym` at order ``n``: a tile of order ``min(n, nb)``.

    Every temporary of the solve that grows with ``n`` is a view of it.  It
    grows past :data:`_CHOLESKY_BLOCK` only for an ``n`` above ``nb**2``
    (65,536), so that it still holds one row.
    """
    side = max(min(n, _CHOLESKY_BLOCK), math.ceil(math.sqrt(n)))
    return np.empty((side, side))


def _strips(n: int, work: np.ndarray):
    """``(i, j)`` bounds of the row strips of an order-``n`` matrix that ``work`` holds whole."""
    step = max(1, work.size // max(n, 1))
    return ((i, min(i + step, n)) for i in range(0, n, step))


def _symmetric_row_max(a: np.ndarray, name: str, rtol: float = 1e-8,
                       work: np.ndarray | None = None) -> np.ndarray:
    """The largest absolute entry of each row of ``a``, which must be symmetric.

    One read of ``a``, a strip of rows at a time: each strip gives its rows'
    maxima of ``|a|`` and ``max |a - a^T|`` over its part ``a[i:j, i:]`` of
    the upper triangle, so every pair (row <= col) is compared once, and each
    transposed strip is a short-strided read where a full ``a - a.T`` walks
    the transpose a column at a time.  The differences are formed in
    ``work``.  A matrix with a non-finite entry is not refused here: its
    maxima are not all finite, which the caller checks.

    Raises
    ------
    ValueError
        If ``max |a - a^T|`` exceeds ``rtol`` times the largest ``|a|``.
    """
    n = a.shape[0]
    if work is None:
        work = _work_buffer(n)
    row_max, flat = np.empty(n), work.reshape(-1)
    worst = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf in a system refused as non-finite
        for i, j in _strips(n, work):
            rows = a[i:j]
            np.maximum(np.max(rows, axis=1), -np.min(rows, axis=1), out=row_max[i:j])
            diff = np.subtract(a[i:j, i:], a[i:, i:j].T,
                               out=flat[:(j - i) * (n - i)].reshape(j - i, n - i))
            worst = max(worst, float(np.max(diff)), -float(np.min(diff)))
    scale = float(np.max(row_max)) if n else 0.0
    if scale != 0.0 and worst > rtol * scale:
        raise ValueError(f"{name} is not symmetric to relative tolerance {rtol}")
    return row_max


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
    _symmetric_row_max(m, "m")
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


def _equilibrate(b: np.ndarray, scale: np.ndarray, work: np.ndarray) -> float:
    """Overwrite ``b`` with ``b / outer(scale, scale)`` a strip of rows at a time; return its 1-norm.

    Strip by strip, these are the bits of the one full-size division; each
    strip's divisors and absolute values are formed in ``work``.  The
    result is symmetric, so its 1-norm is its largest absolute row sum,
    taken from each strip as it is written.
    """
    n, flat = b.shape[0], work.reshape(-1)
    norm = 0.0
    for i, j in _strips(n, work):
        rows = b[i:j]
        strip = flat[:(j - i) * n].reshape(j - i, n)
        rows /= np.multiply.outer(scale[i:j], scale, out=strip)
        norm = max(norm, float(np.max(np.sum(np.abs(rows, out=strip), axis=1))))
    return norm


def _invert_lower(l: np.ndarray, work: np.ndarray) -> None:
    """Overwrite the lower-triangular ``l``, zero above its diagonal, with its inverse.

    By halves, as LAPACK's ``dtrtri`` blocks it:
    ``[[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]``, down to
    orders of at most :data:`_INVERSE_LEAF`, which ``np.linalg.inv``
    inverts; the rounding it leaves above the diagonal is zeroed.  The two
    products of each halving are formed in ``work``.
    """
    m = l.shape[0]
    if m <= _INVERSE_LEAF:
        np.multiply(np.linalg.inv(l), _LOWER[:m, :m], out=l)
        return
    h = m // 2
    _invert_lower(l[:h, :h], work)
    _invert_lower(l[h:, h:], work)
    flat = work.reshape(-1)
    size = (m - h) * h
    ca = np.matmul(l[h:, :h], l[:h, :h], out=flat[:size].reshape(m - h, h))
    np.negative(np.matmul(l[h:, h:], ca, out=flat[size:2 * size].reshape(m - h, h)),
                out=l[h:, :h])


def _cholesky_in_place(a: np.ndarray, work: np.ndarray) -> None:
    """Overwrite ``a`` on and below its diagonal with ``L``, ``L L^T = a``, diagonal blocks inverted.

    Right-looking and blocked over diagonal blocks of order
    :data:`_CHOLESKY_BLOCK`.  Each is factored by ``np.linalg.cholesky``,
    which reads only its lower triangle, and inverted
    (:func:`_invert_lower`): the block's lower triangle then holds
    ``L_kk^-1``, all that the panel solve and :func:`_cholesky_solve` need
    of it.  The panel below is solved through it, ``L_ik = A_ik L_kk^-T``,
    and the trailing matrix updated, ``A_it -= L_ik L_tk^T``, one tile at a
    time through the tile ``work``; in a diagonal tile only the lower
    triangle is written.  Nothing above the diagonal is read or written, so
    the strict upper triangle keeps the matrix.  A matrix of at most one
    block makes exactly the one ``np.linalg.cholesky`` call of an unblocked
    factorization.

    Raises
    ------
    NotPositiveDefiniteError
        If a diagonal block does not factor; the exception carries the
        0-based index, in ``a``, of the pivot at which LAPACK's Cholesky of
        that block fails.
    """
    n = a.shape[0]
    for k in range(0, n, _CHOLESKY_BLOCK):
        e = min(k + _CHOLESKY_BLOCK, n)
        block = a[k:e, k:e]
        try:
            inverse = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            pivot = k + _breakdown_pivot(block)
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (pivot {pivot} failed)",
                pivot_index=pivot,
            ) from None
        # NumPy has no triangular solve: every solve through this block goes
        # through its inverse
        _invert_lower(inverse, work)
        np.copyto(block, inverse, where=_LOWER[:e - k, :e - k])
        for i in range(e, n, _CHOLESKY_BLOCK):  # the panel, L_ik = A_ik L_kk^-T
            panel = a[i:i + _CHOLESKY_BLOCK, k:e]
            panel[...] = np.matmul(panel, inverse.T, out=work[:panel.shape[0], :e - k])
        del inverse  # so that neither the next block's factor nor the updates' buffers meet it
        for i in range(e, n, _CHOLESKY_BLOCK):  # the trailing matrix, A_it -= L_ik L_tk^T
            j = min(i + _CHOLESKY_BLOCK, n)
            panel = a[i:j, k:e]
            for t in range(e, i, _CHOLESKY_BLOCK):  # the tiles of row i left of its diagonal one
                tile = a[i:j, t:t + _CHOLESKY_BLOCK]
                tile -= np.matmul(panel, a[t:t + _CHOLESKY_BLOCK, k:e].T,
                                  out=work[:j - i, :_CHOLESKY_BLOCK])
            # the diagonal tile's lower triangle, from the products of its upper
            # half-rows with themselves and of its lower half-rows with all
            h = (j - i) // 2
            np.matmul(panel[:h], panel[:h].T, out=work[:h, :h])
            np.matmul(panel[h:], panel.T, out=work[h:j - i, :j - i])
            tile = a[i:j, i:j]
            np.subtract(tile, work[:j - i, :j - i], out=tile, where=_LOWER[:j - i, :j - i])


def _cholesky_solve(a: np.ndarray, rhs: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = rhs`` by blocked forward and back substitution.

    ``a`` holds ``L`` as :func:`_cholesky_in_place` leaves it: the factor
    below the diagonal blocks, the inverses of its diagonal blocks in
    their lower triangles.  ``rhs`` (n,) or (n, k) is not modified.  Each
    block row is one product with the rows already solved, then one with
    its block's inverse, :data:`_STRIP` rows at a time: the part of a strip
    left of its diagonal tile (right of it, transposed, for ``L^T``) is read
    in place, and the tile's lower triangle is copied into ``work`` over
    zeros, so nothing above the diagonal of ``a`` is read.
    """
    x = np.array(rhs, dtype=float)
    n = a.shape[0]
    tile = work[:_STRIP, :_STRIP]
    tile.fill(0.0)

    def lower(block, p, q):  # the lower triangle of block[p:q, p:q], zeros above
        np.copyto(tile[:q - p, :q - p], block[p:q, p:q], where=_LOWER[:q - p, :q - p])
        return tile[:q - p, :q - p]

    starts = range(0, n, _CHOLESKY_BLOCK)
    for k in starts:  # L y = rhs; each strip reads the rows above it, so the last goes first
        e = min(k + _CHOLESKY_BLOCK, n)
        if k:
            x[k:e] -= a[k:e, :k] @ x[:k]
        block, xk = a[k:e, k:e], x[k:e]
        for p in reversed(range(0, e - k, _STRIP)):
            q = min(p + _STRIP, e - k)
            y = lower(block, p, q) @ xk[p:q]
            if p:
                y += block[p:q, :p] @ xk[:p]
            xk[p:q] = y
    for k in reversed(starts):  # L^T x = y; each strip reads the rows below it
        e = min(k + _CHOLESKY_BLOCK, n)
        if e < n:
            x[k:e] -= a[e:, k:e].T @ x[e:]
        block, xk = a[k:e, k:e], x[k:e]
        for p in range(0, e - k, _STRIP):
            q = min(p + _STRIP, e - k)
            y = lower(block, p, q).T @ xk[p:q]
            if q < e - k:
                y += block[q:, p:q].T @ xk[q:]
            xk[p:q] = y
    return x


def _upper_product(a: np.ndarray, diag: np.ndarray, y: np.ndarray,
                   work: np.ndarray) -> np.ndarray:
    """``A @ y`` for the symmetric ``A`` with strict upper triangle that of ``a`` and diagonal ``diag``.

    ``y`` is (n, k).  Row strip ``i:j`` of ``A``, :data:`_STRIP` rows, is
    the transposed column strip above its diagonal tile, the diagonal
    tile, rebuilt in ``work`` from its strict upper triangle and ``diag``,
    and the row strip right of it.  Nothing on or below the diagonal of
    ``a``, where :func:`_cholesky_in_place` leaves the factor, is read.
    """
    n = a.shape[0]
    out = np.empty(y.shape)
    for i in range(0, n, _STRIP):
        j = min(i + _STRIP, n)
        tile = work[:j - i, :j - i]
        np.copyto(tile, a[i:j, i:j].T)
        np.copyto(tile, a[i:j, i:j], where=_LOWER[:j - i, :j - i].T)
        np.fill_diagonal(tile, diag[i:j])
        out[i:j] = tile @ y[i:j]
        if j < n:
            out[i:j] += a[i:j, j:] @ y[j:]
        if i:
            out[i:j] += a[:i, i:j].T @ y[:i]
    return out


def _eigvalsh(a: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric matrix with strict upper triangle that of ``a`` and diagonal ``diag``.

    Failure paths only: ``diag`` is written onto the diagonal of ``a``.
    """
    np.fill_diagonal(a, diag)
    return np.linalg.eigvalsh(a, UPLO="U")


#: Iteration limit of the 1-norm estimator (``ITMAX`` of LAPACK's ``dlacn2``).
_NORM_ESTIMATE_STEPS = 5


def _inverse_norm_estimate(solve, x: np.ndarray) -> float:
    """Lower estimate of ``||A^-1||_1`` for symmetric ``A``; ``solve(v)`` returns ``A^-1 v``.

    ``x`` is the estimator's first solve, ``A^-1`` applied to the vector of
    entries ``1 / n``, which the caller may batch with its own.

    A port of LAPACK's ``dlacn2`` (Hager's method as refined by Higham,
    ACM TOMS 14(4), 1988), the estimator behind ``dpocon``: at most
    :data:`_NORM_ESTIMATE_STEPS` iterations over sign and unit vectors,
    then one solve with the alternating-sign vector
    ``(-1)^i (1 + i / (n - 1))``, whose scaled 1-norm is taken when it is
    larger.  ``A`` is symmetric, so the solves with ``A^-T`` that
    ``dlacn2`` asks for are solves with ``A``.
    """
    n = x.shape[0]
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
    one full-size array held: one strip-wise read finds its row maxima and
    checks its symmetry, one strip-wise write equilibrates it, and the
    blocked Cholesky (:func:`_cholesky_in_place`) overwrites it on and
    below the diagonal while the strict upper triangle keeps the
    equilibrated system, whose diagonal is kept in one n-vector.  The
    refinement residual (:func:`_upper_product`) and the eigenvalues of the
    failure paths are read from those two.  Beside ``b`` the solve holds
    one ``nb x nb`` scratch tile (:func:`_work_buffer`), one diagonal
    block's factor while it is inverted and its panel solved, and vectors:
    0.07 of ``b``'s bytes at 1,395 unknowns.  The solve for ``x`` and its
    refinement's go as second columns of the condition estimate's first two
    solves.  The contents of ``b`` are undefined on return; ``c`` is not
    modified.  Every solve with the factor, and every product, runs in
    NumPy.

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
    n = b.shape[0]
    work = _work_buffer(n)
    # a row's largest absolute entry is finite exactly when the row is
    row_max = _symmetric_row_max(b, "b", work=work)
    if not np.all(np.isfinite(row_max)) or not np.all(np.isfinite(c)):
        raise ValueError("non-finite entries in the linear system")

    scale = np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    anorm = _equilibrate(b, scale, work)
    diag = b.diagonal().copy()
    try:
        _cholesky_in_place(b, work)
    except NotPositiveDefiniteError as exc:
        eigvals = _eigvalsh(b, diag)
        if eigvals[0] < -SOLVE_RCOND_FLOOR * abs(eigvals[-1]):
            raise NotPositiveDefiniteError(
                f"matrix is indefinite (Cholesky pivot {exc.pivot_index} failed)",
                pivot_index=exc.pivot_index,
            ) from None
        raise _singular(eigvals, 0.0) from None

    # in the equilibrated unknowns y = scale * x the system is b_s y = c / scale,
    # b_s = b / outer(scale, scale), whose strict upper triangle b still holds.
    # Its solve and its refinement's ride along with the condition estimate's
    # first two solves
    column = scale[:, None]
    rhs = c.reshape(n, -1) / column
    first = _cholesky_solve(b, np.column_stack((np.full(n, 1.0 / n), rhs)), work)
    y = first[:, 1:]
    residual = [rhs - _upper_product(b, diag, y, work)]

    def solve(v):
        if not residual:
            return _cholesky_solve(b, v, work)
        both = _cholesky_solve(b, np.column_stack((v, residual.pop())), work)
        y[...] += both[:, 1:]
        return both[:, 0]

    ainvnm = _inverse_norm_estimate(solve, first[:, 0])
    rcond = (1.0 / ainvnm) / anorm if ainvnm != 0.0 else 0.0
    if not np.isfinite(rcond) or rcond <= SOLVE_RCOND_FLOOR:
        raise _singular(_eigvalsh(b, diag), rcond)
    if residual:  # the estimate of order 1 makes no second solve
        y += _cholesky_solve(b, residual.pop(), work)
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

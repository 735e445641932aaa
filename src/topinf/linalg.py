"""Dense and tridiagonal linear algebra with explicit failure contracts.

Layers over NumPy's LAPACK, and NumPy's elementwise arithmetic for
tridiagonals, that pin down the behaviors the rest of the package relies
on:

* :func:`cholesky_upper` -- upper-triangular factor with a relative pivot
  tolerance, raising :class:`~topinf.errors.NotPositiveDefiniteError` with
  the offending pivot index;
* :func:`solve_sym` -- symmetric positive definite solve by Cholesky with
  symmetric diagonal equilibration, one step of iterative refinement on
  the caller's residual, and a condition estimate, raising
  :class:`~topinf.errors.SingularMatrixError` with a rank estimate when
  the matrix is singular to working precision and
  :class:`~topinf.errors.NotPositiveDefiniteError` when it is indefinite.
  It takes the lower triangle only, as row strips of 256 rows in one
  array (:func:`lower_size`, :func:`lower_index`, :func:`pack_lower`),
  and works in it, so the caller's array is the one array of its size
  held: 0.59 of the square's bytes at 1,395 unknowns.  One read finds the
  row maxima (:func:`_row_max`) and one write equilibrates
  (:func:`_equilibrate`), a tile at a time.  A blocked Cholesky
  (:func:`_cholesky_in_place`) writes the factor over the strips, with
  each diagonal block's inverse in place of that block; the solves
  (:func:`_cholesky_solve`) apply the strips as they are, two products per
  strip and sweep, and the condition estimate is a port of LAPACK's
  ``dpocon`` (:func:`_inverse_norm_estimate`);
* :func:`lstsq_min_norm` -- SVD-based minimum-norm least squares with a
  fixed relative singular-value cutoff;
* :func:`factor_tridiagonals` -- one ``LDL^T`` factorization of a stack of
  symmetric positive definite tridiagonals, raising
  :class:`~topinf.errors.NotPositiveDefiniteError` with the sample and
  pivot index of a breakdown; its :meth:`TridiagonalFactor.solve` solves
  every sample's system at once;
* :func:`one_blas_thread` -- runs a block on one thread of the OpenBLAS
  that NumPy loaded, and :func:`blas_threads` reads that library's name
  and thread count; both do nothing where NumPy loaded another BLAS.

Equilibration and refinement are exact algebraic reformulations; they do
not change the solution being computed, only its floating-point accuracy.
NumPy has no triangular solve, so :func:`solve_sym` blocks its
factorization over NumPy's Cholesky and products, inverts the diagonal
blocks of the factor by halves (:func:`_invert_lower`), solves through
those inverses, estimates its condition number with NumPy, and locates a
breakdown pivot by bisection over NumPy's Cholesky.  At 1,395 unknowns
(8.7 MiB of strips against a 14.8 MiB square, six diagonal blocks) the
solve adds one 0.5 MiB tile of scratch and one diagonal block's factor.

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

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NotPositiveDefiniteError, SingularMatrixError

__all__ = [
    "cholesky_upper",
    "solve_sym",
    "lower_size",
    "lower_index",
    "pack_lower",
    "lstsq_min_norm",
    "TridiagonalFactor",
    "factor_tridiagonals",
    "blas_threads",
    "one_blas_thread",
]

#: Relative pivot tolerance for Cholesky (pivot^2 vs. largest diagonal entry).
CHOLESKY_PIVOT_RTOL = 1e-13

#: Reciprocal-condition threshold below which a symmetric solve is refused.
SOLVE_RCOND_FLOOR = 1e-14

#: Relative eigenvalue cutoff of the rank estimate a refused symmetric solve reports.
SINGULAR_RANK_RTOL = 1e-12

#: Relative singular-value cutoff for minimum-norm least squares.
LSTSQ_RCOND = 1e-12


@functools.cache
def _openblas():
    """``(file name, get, set)`` of the OpenBLAS that NumPy loaded, or ``None``.

    Looked up on first use, not at import, among the libraries of NumPy's
    wheel (``numpy.libs``), under the thread-count symbols of NumPy 2's
    ``scipy_openblas``, NumPy 1's 64-bit-integer OpenBLAS and a plain one.
    Opening a library NumPy already loaded hands back the loaded one.
    """
    libs = Path(np.__file__).resolve().parent.with_name("numpy.libs")
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return path.name, get, put
    return None


def blas_threads() -> tuple[str | None, int | None]:
    """File name and thread count of the OpenBLAS NumPy loaded; ``(None, None)`` without one."""
    found = _openblas()
    return (None, None) if found is None else (found[0], found[1]())


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count.

    The setting is process-wide while the block runs: BLAS calls that other
    threads of the process make meanwhile run on one thread too.  The
    previous count is restored however the block exits.  Where NumPy loaded
    no OpenBLAS (MKL, Accelerate, a system BLAS), it does nothing.
    """
    found = _openblas()
    if found is None:
        yield
        return
    _, get, put = found
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def _require_square(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")


#: Order of the diagonal blocks of :func:`solve_sym`'s in-place Cholesky,
#: of the tiles of its trailing update, and rows per strip of its storage.
_CHOLESKY_BLOCK = 256

#: ``_LOWER[:m, :m]`` marks the lower triangle, diagonal included, of an
#: ``m x m`` tile, for every ``m`` up to :data:`_CHOLESKY_BLOCK`.
_LOWER = np.tri(_CHOLESKY_BLOCK, dtype=bool)
_LOWER.flags.writeable = False

#: Order at and below which :func:`_invert_lower` calls ``np.linalg.inv``.
_INVERSE_LEAF = 32


def lower_size(n: int) -> int:
    """Entries of the lower-strip storage of an order-``n`` symmetric matrix.

    Strip ``s`` holds rows ``s*nb`` to ``min((s+1)*nb, n)`` and the columns
    left of its end, ``nb = 256``, so every strip but the last is ``nb``
    rows; a matrix of order ``nb`` or less is one strip, its square.
    """
    full, last = divmod(n, _CHOLESKY_BLOCK)
    return _CHOLESKY_BLOCK * _CHOLESKY_BLOCK * full * (full + 1) // 2 + last * n


def lower_index(rows, cols, n: int):
    """Positions of the entries ``(rows, cols)`` in the lower-strip storage of order ``n``.

    An entry is stored when its column is left of the end of its row's
    strip, ``cols < min((rows // 256 + 1) * 256, n)``: every entry on and
    below the diagonal, and those above it inside a diagonal block.
    """
    strip = np.asarray(rows) // _CHOLESKY_BLOCK
    start = strip * _CHOLESKY_BLOCK
    return (_CHOLESKY_BLOCK * start * (strip + 1) // 2
            + (rows - start) * np.minimum(start + _CHOLESKY_BLOCK, n) + cols)


def pack_lower(a: np.ndarray) -> np.ndarray:
    """The lower-strip storage of the square ``a``, read from its lower triangle, for :func:`solve_sym`.

    A matrix of order at most 256 is its own storage: a writeable
    C-contiguous float64 ``a`` of that order is returned as it is, not
    copied.  Otherwise a new flat array is filled one strip at a time.
    """
    a = np.asarray(a)
    _require_square(a, "a")
    n = a.shape[0]
    if n <= _CHOLESKY_BLOCK:
        return np.require(a, np.float64, ["C", "W"])
    b = np.empty(lower_size(n))
    for s, strip in enumerate(_strips(b, n)):
        strip[...] = a[s * _CHOLESKY_BLOCK:(s + 1) * _CHOLESKY_BLOCK, :strip.shape[1]]
    return b


def _strips(b: np.ndarray, n: int) -> list[np.ndarray]:
    """The row strips of the lower-strip storage ``b`` of order ``n``, views of ``b``."""
    flat, strips, offset = b.reshape(-1), [], 0
    for k in range(0, n, _CHOLESKY_BLOCK):
        e = min(k + _CHOLESKY_BLOCK, n)
        strips.append(flat[offset:offset + (e - k) * e].reshape(e - k, e))
        offset += (e - k) * e
    return strips


def _tiles(strips: list[np.ndarray]):
    """``(rows, cols, tile)`` for every tile of the strips, row strip by row strip.

    A tile is a view of its strip, at most ``nb x nb``; ``rows`` and
    ``cols`` are its slices of the matrix, and ``rows == cols`` for the
    diagonal tiles, of which only the lower triangle is the matrix's.
    """
    for s, strip in enumerate(strips):
        rows = slice(s * _CHOLESKY_BLOCK, s * _CHOLESKY_BLOCK + strip.shape[0])
        for t in range(0, strip.shape[1], _CHOLESKY_BLOCK):
            cols = slice(t, min(t + _CHOLESKY_BLOCK, strip.shape[1]))
            yield rows, cols, strip[:, cols]


def _abs(tile: np.ndarray, diagonal: bool, work: np.ndarray) -> np.ndarray:
    """``|tile|`` in ``work``; zeros above the diagonal of a diagonal tile, whose upper triangle is not read."""
    out = work[:tile.shape[0], :tile.shape[1]]
    if not diagonal:
        return np.abs(tile, out=out)
    out.fill(0.0)
    return np.abs(tile, out=out, where=_LOWER[:tile.shape[0], :tile.shape[1]])


def _row_max(strips: list[np.ndarray], work: np.ndarray) -> np.ndarray:
    """The largest absolute entry of each row of the symmetric matrix in ``strips``.

    One read of the lower triangle, a tile at a time: a tile's row maxima
    are its rows', and its column maxima those of the rows of the upper
    triangle that mirror it.  A non-finite entry makes its row's maximum
    non-finite, which the caller checks.
    """
    row_max = np.zeros(strips[-1].shape[1])
    for rows, cols, tile in _tiles(strips):
        a = _abs(tile, rows == cols, work)
        np.maximum(row_max[rows], np.max(a, axis=1), out=row_max[rows])
        np.maximum(row_max[cols], np.max(a, axis=0), out=row_max[cols])
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
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-8 * np.max(np.abs(m), initial=0.0):
        raise ValueError("m is not symmetric to relative tolerance 1e-08")
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


def _singular(eigvals: np.ndarray, rcond: float) -> SingularMatrixError:
    """The error for a matrix singular to working precision.

    ``eigvals`` are the matrix's eigenvalues; the rank estimate counts those
    above :data:`SINGULAR_RANK_RTOL` times the largest in magnitude.
    """
    eigvals = np.abs(eigvals)
    top = float(np.max(eigvals)) if eigvals.size else 0.0
    rank = 0 if top == 0.0 else int(np.count_nonzero(eigvals > SINGULAR_RANK_RTOL * top))
    return SingularMatrixError(
        f"matrix is singular to working precision (rcond={float(rcond):.3e})",
        rank_estimate=rank,
        cond_estimate=float("inf") if rcond <= 0.0 else 1.0 / float(rcond),
    )


def _equilibrate(strips: list[np.ndarray], scale: np.ndarray, work: np.ndarray) -> float:
    """Divide the symmetric matrix in ``strips`` by ``outer(scale, scale)``; return its 1-norm.

    A tile at a time, the bits of one full-size division; each tile's
    divisors and absolute values are formed in ``work``.  The result is
    symmetric, so its 1-norm is its largest absolute row sum: each tile
    adds its row sums to its rows and its column sums to the rows that
    mirror it (a diagonal tile's diagonal once).
    """
    sums = np.zeros(scale.size)
    for rows, cols, tile in _tiles(strips):
        m, k = tile.shape
        diagonal = rows == cols
        divisors = np.multiply.outer(scale[rows], scale[cols], out=work[:m, :k])
        np.divide(tile, divisors, out=tile, where=_LOWER[:m, :k] if diagonal else True)
        a = _abs(tile, diagonal, work)
        sums[rows] += np.sum(a, axis=1)
        sums[cols] += np.sum(a, axis=0)
        if diagonal:
            sums[rows] -= a.diagonal()
    return float(np.max(sums))


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


def _cholesky_in_place(strips: list[np.ndarray], work: np.ndarray) -> None:
    """Overwrite the lower-strip storage ``strips`` with ``L``, ``L L^T = A``, diagonal blocks inverted.

    Right-looking and blocked over the diagonal blocks, one per strip.
    Each is factored by ``np.linalg.cholesky``, which reads only its lower
    triangle, inverted (:func:`_invert_lower`), and that inverse, zeros
    above its diagonal, written over the whole block: all that the panel
    solve and :func:`_cholesky_solve` need of it.  The panel below is
    solved through it, ``L_ik = A_ik L_kk^-T``, and the trailing matrix
    updated, ``A_it -= L_ik L_tk^T``, one tile at a time through the tile
    ``work``; in a diagonal tile only the lower triangle is written, so
    nothing above the diagonal of a block is read before its factor is
    written there.  A matrix of at most one block makes exactly the one
    ``np.linalg.cholesky`` call of an unblocked factorization.

    Raises
    ------
    NotPositiveDefiniteError
        If a diagonal block does not factor; the exception carries the
        0-based index, in the matrix, of the pivot at which LAPACK's
        Cholesky of that block fails.
    """
    nb = _CHOLESKY_BLOCK
    for k, strip in enumerate(strips):
        kb, ke = k * nb, k * nb + strip.shape[0]
        block = strip[:, kb:ke]
        try:
            inverse = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            pivot = kb + _breakdown_pivot(block)
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (pivot {pivot} failed)",
                pivot_index=pivot,
            ) from None
        # NumPy has no triangular solve: every solve through this block goes
        # through its inverse
        _invert_lower(inverse, work)
        block[...] = inverse
        for rows in strips[k + 1:]:  # the panel, L_ik = A_ik L_kk^-T
            panel = rows[:, kb:ke]
            panel[...] = np.matmul(panel, inverse.T, out=work[:panel.shape[0], :ke - kb])
        del inverse  # so that neither the next block's factor nor the updates' buffers meet it
        for i in range(k + 1, len(strips)):  # the trailing matrix, A_it -= L_ik L_tk^T
            rows = strips[i]
            m, panel = rows.shape[0], rows[:, kb:ke]
            for t in range(k + 1, i):  # the tiles of strip i left of its diagonal one
                tile = rows[:, t * nb:(t + 1) * nb]
                tile -= np.matmul(panel, strips[t][:, kb:ke].T, out=work[:m, :nb])
            # the diagonal tile's lower triangle, from the products of its upper
            # half-rows with themselves and of its lower half-rows with all:
            # NumPy hands one panel @ panel.T to syrk and mirrors its triangle,
            # which took 455 against 344 us for a 256 x 256 tile on a 2-vCPU
            # host with OpenBLAS's two threads
            h = m // 2
            np.matmul(panel[:h], panel[:h].T, out=work[:h, :h])
            np.matmul(panel[h:], panel.T, out=work[h:m, :m])
            tile = rows[:, i * nb:i * nb + m]
            np.subtract(tile, work[:m, :m], out=tile, where=_LOWER[:m, :m])


def _cholesky_solve(strips: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = rhs`` by blocked forward and back substitution.

    ``strips`` holds ``L`` as :func:`_cholesky_in_place` leaves it: the
    factor left of each strip's diagonal block, the inverse of that block
    of the factor in the block itself.  ``rhs`` (n,) or (n, k) is not
    modified.  Each sweep makes two products per strip, each with a view of
    the strips as they are: forward, with the rows already solved and then
    the block's inverse; backward, with the transposed inverse and then, to
    remove the block's solved rows from those above, the transposed part of
    the strip left of its block.
    """
    x = np.array(rhs, dtype=float)
    bounds = [(k * _CHOLESKY_BLOCK, k * _CHOLESKY_BLOCK + strip.shape[0])
              for k, strip in enumerate(strips)]
    for strip, (k, e) in zip(strips, bounds):  # L y = rhs
        if k:
            x[k:e] -= strip[:, :k] @ x[:k]
        x[k:e] = strip[:, k:e] @ x[k:e]
    for strip, (k, e) in zip(reversed(strips), reversed(bounds)):  # L^T x = y
        x[k:e] = strip[:, k:e].T @ x[k:e]
        if k:
            x[:k] -= strip[:, :k].T @ x[k:e]
    return x


def _eigvalsh(residual, c: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Eigenvalues of the equilibrated system, its columns rebuilt from the caller's residual.

    Failure paths only.  ``residual(x)`` returns ``c - A x`` column by
    column, so ``c - residual(x)`` with unit columns in ``x`` gives as many
    columns of ``A`` as ``c`` has.
    """
    n = scale.size
    columns = c.reshape(n, -1)
    k = columns.shape[1]
    a = np.empty((n, n))
    for j in range(0, n, k):
        q = min(j + k, n)
        units = np.zeros((n, k))
        units[np.arange(j, q), np.arange(q - j)] = 1.0
        a[:, j:q] = (columns - residual(units.reshape(c.shape)).reshape(n, k))[:, :q - j]
    a /= np.multiply.outer(scale, scale)
    return np.linalg.eigvalsh(a, UPLO="L")


#: Iteration limit of the 1-norm estimator (``ITMAX`` of LAPACK's ``dlacn2``).
_NORM_ESTIMATE_STEPS = 5


def _inverse_norm_estimate(solve, n: int) -> float:
    """Lower estimate of ``||A^-1||_1`` for symmetric ``A`` of order ``n``; ``solve(v)`` returns ``A^-1 v``.

    A port of LAPACK's ``dlacn2`` (Hager's method as refined by Higham,
    ACM TOMS 14(4), 1988), the estimator behind ``dpocon``: a first solve
    with the vector of entries ``1 / n``, at most
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


def solve_sym(b: np.ndarray, c: np.ndarray, residual) -> tuple[np.ndarray, float]:
    """Solve ``A x = c`` for symmetric positive definite ``A`` held as its lower triangle in ``b``, overwriting ``b``.

    Returns ``(x, cond_estimate)``.  ``b`` is the lower-strip storage of
    ``A`` (see :func:`lower_size`; :func:`pack_lower` makes it from a
    square): row strips of 256 rows, each up to the end of its diagonal
    block, in one writeable C-contiguous float64 array of any shape.  A
    matrix of order at most 256 is one strip, its square.  Only the lower
    triangle is read.  ``residual(x)``, for an ``x`` shaped as ``c``,
    returns ``c - A x``, column by column.

    The system is symmetrically equilibrated by the square roots of its
    row infinity-norms, factorized once by Cholesky, and the solution is
    polished with a single iterative-refinement step on ``residual``, which
    a caller can compute more accurately from its data than a product with
    the stored matrix.  The reported condition number is the reciprocal of
    LAPACK's ``dpocon`` estimate for the equilibrated matrix,
    ``1 / (||A||_1 est(||A^-1||_1))``, computed by
    :func:`_inverse_norm_estimate`.

    ``b`` is the one array of its size held: one tile-wise read finds its
    row maxima (:func:`_row_max`), one tile-wise write equilibrates it
    (:func:`_equilibrate`), and the blocked Cholesky
    (:func:`_cholesky_in_place`) overwrites it with the factor.  Beside
    ``b`` the solve holds one ``nb x nb`` scratch tile, one diagonal block's
    factor while it is inverted and its panel solved, and vectors.  It
    solves for ``x``, then for the refinement, then makes the condition
    estimate's own solves.  The failure paths rebuild the equilibrated
    matrix from ``residual`` for its eigenvalues.  The
    contents of ``b`` are undefined on return; ``c`` is not modified.
    Every solve with the factor, and every product, runs in NumPy.

    Raises
    ------
    ValueError
        If ``b`` is not a writeable C-contiguous float64 array, its size is
        not that of the lower strips of order ``len(c)``, or an entry of
        the system is not finite.
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
    n = c.shape[0] if c.ndim else 0
    if c.ndim not in (1, 2) or n == 0 or b.size != lower_size(n):
        raise ValueError(f"b holds {b.size} entries and c has shape {c.shape}: the lower "
                         f"strips of an order-{n} system hold {lower_size(n)}")
    strips = _strips(b, n)
    work = np.empty((min(n, _CHOLESKY_BLOCK),) * 2)
    # a row's largest absolute entry is finite exactly when the row is
    row_max = _row_max(strips, work)
    if not np.all(np.isfinite(row_max)) or not np.all(np.isfinite(c)):
        raise ValueError("non-finite entries in the linear system")

    scale = np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    anorm = _equilibrate(strips, scale, work)
    try:
        _cholesky_in_place(strips, work)
    except NotPositiveDefiniteError as exc:
        eigvals = _eigvalsh(residual, c, scale)
        if eigvals[0] < -SOLVE_RCOND_FLOOR * abs(eigvals[-1]):
            raise NotPositiveDefiniteError(
                f"matrix is indefinite (Cholesky pivot {exc.pivot_index} failed)",
                pivot_index=exc.pivot_index,
            ) from None
        raise _singular(eigvals, 0.0) from None

    # in the equilibrated unknowns y = scale * x the system is b_s y = c / scale,
    # b_s = b / outer(scale, scale), and its residual is residual(x) / scale
    column = scale[:, None]
    y = _cholesky_solve(strips, c.reshape(n, -1) / column)
    y += _cholesky_solve(strips, residual((y / column).reshape(c.shape)).reshape(n, -1) / column)
    ainvnm = _inverse_norm_estimate(functools.partial(_cholesky_solve, strips), n)
    rcond = (1.0 / ainvnm) / anorm if ainvnm != 0.0 else 0.0
    if not np.isfinite(rcond) or rcond <= SOLVE_RCOND_FLOOR:
        raise _singular(_eigvalsh(residual, c, scale), rcond)
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

"""Dense linear-algebra wrappers: factorizations, solves, failure contracts."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from topinf import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    build_wave_model,
    cholesky_upper,
    factor_tridiagonals,
    lstsq_min_norm,
    solve_sym,
    thin_svd,
    weighted_bands,
)
import topinf
from topinf import linalg


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    return (q * d) @ q.T


# ----------------------------------------------------------------------
# Cholesky


def test_cholesky_factors_spd_matrices():
    rng = np.random.default_rng(201)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = random_spd(rng, n)
        r = cholesky_upper(m)
        assert np.allclose(np.tril(r, -1), 0.0)
        assert np.all(np.diag(r) > 0.0)
        np.testing.assert_allclose(r.T @ r, m, rtol=0, atol=1e-12 * np.max(np.abs(m)))
        np.testing.assert_allclose(r, la.cholesky(m, lower=False), rtol=1e-10)


def test_cholesky_rejects_indefinite_with_pivot_index():
    m = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_upper(m)
    assert exc.value.pivot_index == 1


def test_cholesky_rejects_negligible_pivot():
    m = np.diag([1.0, 1e-20])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_upper(m)
    assert exc.value.pivot_index == 1


def test_cholesky_rejects_semidefinite_rank_deficiency():
    v = np.array([1.0, 2.0, 3.0])
    m = np.outer(v, v)  # rank 1
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_upper(m)
    assert exc.value.pivot_index in (1, 2)


def test_cholesky_validates_arguments():
    with pytest.raises(ValueError):
        cholesky_upper(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cholesky_upper(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric


# ----------------------------------------------------------------------
# symmetric solve


def test_solve_sym_matches_reference_solver():
    rng = np.random.default_rng(202)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        b = random_spd(rng, n, cond=100.0)
        b += b.T  # stays symmetric
        x_true = rng.standard_normal((n, 3))
        c = b @ x_true
        x, cond = solve_sym(b, c)
        assert cond >= 1.0
        np.testing.assert_allclose(x, x_true, rtol=0, atol=1e-11 * np.max(np.abs(x_true)))


def test_solve_sym_accepts_vector_right_hand_side():
    b = np.array([[2.0, 1.0], [1.0, 3.0]])
    c = np.array([1.0, 2.0])
    x, _ = solve_sym(b.copy(), c)
    assert x.shape == (2,)
    np.testing.assert_allclose(b @ x, c, atol=1e-14)


def test_solve_sym_equilibration_tames_row_scaling():
    # symmetric diagonal scaling S A S with a huge dynamic range: the raw
    # condition number exceeds 1/eps, but the equilibrated system that is
    # actually factorized is far better behaved
    rng = np.random.default_rng(203)
    a = random_spd(rng, 6, cond=5.0)
    s = np.geomspace(1e-4, 1e4, 6)
    b = (a * s).T * s
    x_true = rng.standard_normal(6)
    c = b @ x_true
    assert np.linalg.cond(b) > 1e15
    x, cond = solve_sym(b.copy(), c)
    assert np.max(np.abs(x - x_true)) <= 1e-6 * np.max(np.abs(x_true))
    assert cond < 1e-6 * np.linalg.cond(b)


def test_solve_sym_raises_on_singular_with_rank_estimate():
    b = np.ones((3, 3))
    with pytest.raises(SingularMatrixError) as exc:
        solve_sym(b, np.ones(3))
    assert exc.value.rank_estimate == 1
    assert exc.value.cond_estimate > 1e12


def test_solve_sym_rejects_indefinite_with_pivot_index():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        solve_sym(np.diag([1.0, -1.0]), np.ones(2))
    assert exc.value.pivot_index == 1


def test_solve_sym_validates_arguments():
    with pytest.raises(ValueError):
        solve_sym(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_sym(np.array([[1.0, 2.0], [0.5, 1.0]]), np.zeros(2))  # not symmetric
    with pytest.raises(ValueError):
        solve_sym(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        solve_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        solve_sym(np.eye(2), np.array([np.inf, 0.0]))


@pytest.mark.parametrize("kind", ["fortran", "float32", "list", "read-only"])
def test_solve_sym_refuses_an_array_it_cannot_overwrite(kind):
    # the solve overwrites b, so it refuses any array it cannot work in,
    # before it writes anything
    b = np.eye(4) + 0.5
    bad = {
        "fortran": lambda: np.asfortranarray(b),
        "float32": lambda: b.astype(np.float32),
        "list": b.tolist,
        "read-only": lambda: np.lib.stride_tricks.as_strided(b, writeable=False),
    }[kind]()
    before = np.array(bad)
    with pytest.raises(ValueError, match="writeable C-contiguous float64"):
        solve_sym(bad, np.ones(4))
    np.testing.assert_array_equal(np.array(bad), before)
    x, _ = solve_sym(b.copy(), np.ones(4))
    np.testing.assert_allclose((np.eye(4) + 0.5) @ x, np.ones(4), atol=1e-14)


def test_solve_sym_peak_memory_stays_near_its_system():
    import tracemalloc

    rng = np.random.default_rng(131)
    n = 1395  # the r = 30, p = 3 symmetric fit: six diagonal blocks
    g = rng.standard_normal((n, n))
    b = g @ g.T / n + np.eye(n)
    c = rng.standard_normal(n)
    solve_sym(np.eye(3), np.ones(3))  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        solve_sym(b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # b is checked, equilibrated and factored in place: one tile of scratch
    # and one diagonal block's factor at a time (0.074 at NumPy 2.4), no
    # copies of the diagonal blocks, no stored inverses, no strip products
    assert peak <= 0.1 * b.nbytes


_RESIDENT_PEAK = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from topinf import solve_sym

def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ":"))

n = 1395
solve_sym(np.eye(300) + 0.5, np.ones(300))  # imports and every code path, two blocks
# a Laplace-kernel matrix (positive definite), built a strip of rows at a
# time so that building it leaves no high-water mark above the resident set
x = np.linspace(0.0, 50.0, n)
b = np.empty((n, n))
for i in range(0, n, 64):
    b[i:i + 64] = np.exp(-np.abs(x[i:i + 64, None] - x[None, :]))
c = np.ones(n)
before = status("VmRSS")
solve_sym(b, c)
print((status("VmHWM") - before) / b.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM (Linux)")
def test_solve_sym_resident_peak_stays_near_its_system():
    # tracemalloc does not see the buffers NumPy's LAPACK wrappers take from
    # malloc; the process's high-water mark does.  Growth above the resident
    # set just before the call, in a fresh process: an overestimate if any
    # earlier peak was higher.
    src = str(Path(topinf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _RESIDENT_PEAK, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert float(done.stdout) <= 0.15  # 0.040-0.043 at NumPy 2.4


@pytest.mark.parametrize("n", [1, 31, 33, 255, 256, 257, 600, 1395])
def test_blocked_cholesky_matches_lapack(n):
    rng = np.random.default_rng(208)
    g = rng.standard_normal((n, n))
    a = g @ g.T / n + np.eye(n)
    expected = np.linalg.cholesky(a)
    work = a.copy()
    linalg._cholesky_in_place(work, linalg._work_buffer(n))
    # the strict upper triangle keeps the matrix, bit for bit
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    np.testing.assert_array_equal(work[upper], a[upper])
    # below the diagonal blocks, the factor
    blocks = np.arange(n) // linalg._CHOLESKY_BLOCK
    below = blocks[:, None] > blocks[None, :]
    assert np.max(np.abs(work[below] - expected[below]), initial=0.0) <= 1e-13
    # in each diagonal block's lower triangle, the inverse of that block of the factor
    for k in range(0, n, linalg._CHOLESKY_BLOCK):
        block = slice(k, k + linalg._CHOLESKY_BLOCK)
        inverse = np.tril(work[block, block])
        np.testing.assert_allclose(inverse @ expected[block, block], np.eye(inverse.shape[0]),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 64, 100, 128, 255, 256])
def test_lower_triangular_inverse_matches_numpy(m):
    # by halves down to np.linalg.inv; nothing above the diagonal is left
    rng = np.random.default_rng(218)
    g = rng.standard_normal((m, m))
    factor = np.linalg.cholesky(g @ g.T / m + np.eye(m))
    inverse = factor.copy()
    linalg._invert_lower(inverse, linalg._work_buffer(m))
    np.testing.assert_array_equal(np.triu(inverse, 1), 0.0)
    np.testing.assert_allclose(inverse, np.linalg.inv(factor), rtol=0, atol=1e-13)


def test_solve_sym_names_the_dpotrf_pivot_of_a_late_breakdown():
    # L D L^T with a negative pivot D[550]: LAPACK's unblocked factorization
    # fails at 550, in the third diagonal block of the blocked one
    rng = np.random.default_rng(209)
    n, bad = 600, 550
    lower = np.eye(n) + np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
    d = rng.uniform(1.0, 2.0, n)
    d[bad] = -1.0
    b = (lower * d) @ lower.T
    b = 0.5 * (b + b.T)
    assert 2 * linalg._CHOLESKY_BLOCK <= bad < 3 * linalg._CHOLESKY_BLOCK
    assert la.lapack.dpotrf(b)[1] - 1 == bad
    with pytest.raises(NotPositiveDefiniteError) as exc:
        solve_sym(b, np.ones(n))
    assert exc.value.pivot_index == bad


def test_solve_sym_raises_on_a_large_singular_system_with_rank_estimate():
    # rank 300 of 600: the factorization breaks down past its first block,
    # and the rank is read from the rebuilt equilibrated system
    rng = np.random.default_rng(210)
    g = rng.standard_normal((600, 300))
    with pytest.raises(SingularMatrixError) as exc:
        solve_sym(g @ g.T, np.ones(600))
    assert exc.value.rank_estimate == 300


@pytest.mark.parametrize("n", [40, 600])
def test_solve_sym_leaves_its_right_hand_side_unchanged(n):
    rng = np.random.default_rng(211)
    b = random_spd(rng, n, cond=1e3)
    c = rng.standard_normal((n, 2))
    c_before = c.copy()
    x, _ = solve_sym(b.copy(), c)
    np.testing.assert_array_equal(c, c_before)
    np.testing.assert_allclose(b @ x, c, rtol=0, atol=1e-10 * np.max(np.abs(c)))


@pytest.mark.parametrize("n", [1, 2, 30, 255, 256, 257, 600, 1395])
def test_solve_sym_condition_estimate_matches_lapack_dpocon(n):
    # the NumPy port of dlacn2, through the blocked solves, against LAPACK's
    # dpocon on the same equilibrated system; well conditioned, so the two
    # factors' rounding cannot steer the estimators apart
    rng = np.random.default_rng(212)
    b = random_spd(rng, n)
    _, cond = solve_sym(b.copy(), rng.standard_normal(n))
    scale = np.sqrt(np.max(np.abs(b), axis=1))
    equilibrated = b / np.outer(scale, scale)
    factor, info = la.lapack.dpotrf(equilibrated, lower=0)
    assert info == 0
    rcond, info = la.lapack.dpocon(factor, np.max(np.sum(np.abs(equilibrated), axis=1)))
    assert info == 0
    assert abs(cond * rcond - 1.0) <= 1e-12


def test_solve_sym_condition_estimate_is_rerun_stable():
    rng = np.random.default_rng(213)
    n = 1395
    g = rng.standard_normal((n, n))
    b = g @ g.T / n + np.eye(n)
    c = rng.standard_normal(n)
    x, cond = solve_sym(b.copy(), c)
    for _ in range(4):
        x_again, cond_again = solve_sym(b.copy(), c)
        assert cond_again == cond
        np.testing.assert_array_equal(x_again, x)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 255, 256, 257, 600, 1395])
def test_refinement_product_reads_the_system_from_the_upper_triangle(n):
    # after the factorization the strict upper triangle holds the equilibrated
    # system and the diagonal is kept aside: the product with the system reads
    # nothing on or below the diagonal, and the solves nothing above it
    rng = np.random.default_rng(217)
    g = rng.standard_normal((n, n))
    b = g @ g.T / n + np.eye(n)
    scale = np.sqrt(np.max(np.abs(b), axis=1))
    equilibrated = b / np.outer(scale, scale)
    work, buffer = b.copy(), linalg._work_buffer(n)
    linalg._equilibrate(work, scale, buffer)
    np.testing.assert_array_equal(work, equilibrated)
    diag = work.diagonal().copy()
    linalg._cholesky_in_place(work, buffer)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    y = rng.standard_normal((n, 2))
    expected = equilibrated @ y
    poisoned = np.where(upper, work, np.nan)
    product = linalg._upper_product(poisoned, diag, y, buffer)
    assert np.max(np.abs(product - expected)) <= 1e-14 * np.max(np.abs(expected))
    poisoned = np.where(upper, np.nan, work)
    x = linalg._cholesky_solve(poisoned, expected, buffer)
    np.testing.assert_allclose(x, y, rtol=0, atol=1e-12 * np.max(np.abs(y)))


def test_symmetry_check_scans_every_strip():
    # the check runs in row strips of the upper triangle; a system larger
    # than one strip, with a partial last strip, must still be rejected for
    # one asymmetric entry far off the diagonal in the last strip's rows or
    # columns, and accepted when that entry is within the tolerance
    rng = np.random.default_rng(207)
    n = 600
    strips = list(linalg._strips(n, linalg._work_buffer(n)))
    assert len(strips) > 2 and strips[-1][1] - strips[-1][0] < strips[0][1] - strips[0][0]
    b = random_spd(rng, n, cond=10.0)
    scale = np.max(np.abs(b))
    for row, col in ((n - 1, 0), (0, n - 1), (n - 2, 1)):
        bad = b.copy()
        bad[row, col] += 1e-6 * scale
        with pytest.raises(ValueError, match="not symmetric"):
            solve_sym(bad, np.ones(n))
        with pytest.raises(ValueError, match="not symmetric"):
            cholesky_upper(bad)
        near = b.copy()
        near[row, col] += 1e-10 * scale
        solve_sym(near, np.ones(n))


# ----------------------------------------------------------------------
# least squares


def test_lstsq_matches_pseudoinverse_on_full_rank_systems():
    rng = np.random.default_rng(204)
    for _ in range(20):
        m, n = int(rng.integers(4, 12)), int(rng.integers(1, 4))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((m, 2))
        x, rank, sv = lstsq_min_norm(a, b)
        assert rank == n
        assert sv.shape == (n,)
        np.testing.assert_allclose(x, np.linalg.pinv(a) @ b, atol=1e-10)


def test_lstsq_returns_minimum_norm_solution_on_rank_deficiency():
    rng = np.random.default_rng(205)
    base = rng.standard_normal((8, 2))
    a = np.column_stack([base, base[:, 0]])  # third column duplicates the first
    b = rng.standard_normal(8)
    x, rank, _ = lstsq_min_norm(a, b)
    assert rank == 2
    expected = np.linalg.pinv(a) @ b
    np.testing.assert_allclose(x, expected, atol=1e-12)
    # the minimum-norm solution has no component in the null space
    null = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    assert abs(x @ null) < 1e-12


def test_lstsq_validates_arguments():
    with pytest.raises(ValueError):
        lstsq_min_norm(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        lstsq_min_norm(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        lstsq_min_norm(np.full((3, 2), np.nan), np.zeros(3))


# ----------------------------------------------------------------------
# SVD


def test_thin_svd_reconstructs_and_orders():
    rng = np.random.default_rng(206)
    for shape in [(6, 3), (3, 6), (4, 4), (1, 5)]:
        a = rng.standard_normal(shape)
        u, s, vt = thin_svd(a)
        k = min(shape)
        assert u.shape == (shape[0], k) and vt.shape == (k, shape[1])
        assert np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-12)


def test_thin_svd_validates_arguments():
    with pytest.raises(ValueError):
        thin_svd(np.zeros(3))
    with pytest.raises(ValueError):
        thin_svd(np.array([[np.inf, 0.0]]))


# ----------------------------------------------------------------------
# stacked tridiagonals


def dense_tridiagonals(diag, off):
    """The dense matrices ``(S, n, n)`` of positions-first bands ``diag`` (n, S), ``off`` (n-1, S)."""
    return np.array([np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in zip(diag.T, off.T)])


def random_tridiagonals(rng, samples, n):
    """Diagonally dominant (hence SPD) tridiagonal bands, positions first, and their dense matrices."""
    off = rng.uniform(-1.0, 1.0, (samples, n - 1)).T
    diag = 2.0 + rng.uniform(0.0, 1.0, (samples, n)).T
    return diag, off, dense_tridiagonals(diag, off)


def dense_solves(dense, b):
    """Each sample's dense solve of the right-hand sides ``b`` (n, S)."""
    return np.array([np.linalg.solve(a, rhs) for a, rhs in zip(dense, b.T)]).T


def test_tridiagonal_factor_solves_every_sample_in_place():
    rng = np.random.default_rng(901)
    diag, off, dense = random_tridiagonals(rng, 4, 7)
    factor = factor_tridiagonals(diag, off)
    b = np.ascontiguousarray(rng.standard_normal((4, 7)).T)
    expected = dense_solves(dense, b)
    out = factor.solve(b)
    assert out is b
    np.testing.assert_allclose(b, expected, rtol=1e-13, atol=1e-14)
    # middle axes are independent right-hand sides
    many = rng.standard_normal((3, 4, 7))
    expected = np.einsum("sij,ksj->ksi", np.linalg.inv(dense), many)
    got = factor.solve(np.ascontiguousarray(many.transpose(2, 0, 1))).transpose(1, 2, 0)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
    # a one-sample factor matches the dense solve of its matrix columns
    single = factor_tridiagonals(diag[:, :1], off[:, :1])
    cols = rng.standard_normal((7, 5))
    x = single.solve(cols[:, :, None].copy())[:, :, 0]
    np.testing.assert_allclose(x, np.linalg.solve(dense[0], cols), rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tridiagonal_factor_solves_the_smallest_orders(n):
    rng = np.random.default_rng(903 + n)
    diag, off, dense = random_tridiagonals(rng, 3, n)
    assert len(factor_tridiagonals(diag, off).levels) == int(np.ceil(np.log2(n)))
    b = rng.standard_normal((n, 3))
    x = factor_tridiagonals(diag, off).solve(b.copy())
    np.testing.assert_allclose(x, dense_solves(dense, b), rtol=1e-13, atol=1e-14)


def test_tridiagonal_factor_solves_zero_and_sign_changing_couplings():
    rng = np.random.default_rng(906)
    diag, off, _ = random_tridiagonals(rng, 3, 9)
    off = off.copy()
    off[4] = 0.0  # every matrix splits into two blocks here
    off[:, 2] = 0.0  # a diagonal matrix
    b = rng.standard_normal((9, 3))
    x = factor_tridiagonals(diag, off).solve(b.copy())
    expected = dense_solves(dense_tridiagonals(diag, off), b)
    np.testing.assert_allclose(x, expected, rtol=1e-13, atol=1e-14)
    np.testing.assert_array_equal(x[:, 2], b[:, 2] / diag[:, 2])
    # wave's step matrix Mv(mu) + c S S^T: its off-diagonal h/(6 mu^2) - c is
    # positive on subdomains slower than h/dt sqrt(2/3) and negative elsewhere
    model = build_wave_model(200)
    dt = np.pi / 100.0
    c = dt * dt / (4.0 * model.h)
    turn = model.h / dt * np.sqrt(2.0 / 3.0)
    params = np.array([[0.7, 2.4], [turn, 1.1], [1.5, 0.8], [2.4, turn]])
    mv_diag, mv_off = weighted_bands(params ** (-2.0), model.mass_v_diag, model.mass_v_off)
    diag, off = mv_diag + 2.0 * c, mv_off - c
    for s in range(2):
        assert np.any(off[:, s] > 0.0) and np.any(off[:, s] < 0.0)
    b = rng.standard_normal((model.n_v, 2))
    x = factor_tridiagonals(diag, off).solve(b.copy())
    expected = dense_solves(dense_tridiagonals(diag, off), b)
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


def test_tridiagonal_factor_matches_banded_cholesky_at_large_order():
    rng = np.random.default_rng(907)
    n = 5000
    diag = 2.0 + rng.uniform(0.0, 1.0, (n, 3))
    off = rng.uniform(-1.0, 1.0, (n - 1, 3))
    b = rng.standard_normal((n, 2, 3))
    x = factor_tridiagonals(diag, off).solve(b.copy())
    for s in range(3):
        bands = np.vstack([np.append(0.0, off[:, s]), diag[:, s]])  # upper form
        expected = la.solveh_banded(bands, b[:, :, s])
        np.testing.assert_allclose(x[:, :, s], expected, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expected)))


def test_tridiagonal_factor_solves_spd_matrices_that_are_not_diagonally_dominant():
    # tridiag(1, 1.98, 1), whose inner rows' couplings sum to 2, and
    # diag(1, 20, 1, 20, ...) with couplings 2, whose multipliers exceed 2.7
    n = 12
    diag = np.stack([np.full(n, 1.98), np.tile([1.0, 20.0], n // 2)], axis=1)
    off = np.stack([np.full(n - 1, 1.0), np.full(n - 1, 2.0)], axis=1)
    dense = dense_tridiagonals(diag, off)
    assert all(np.linalg.eigvalsh(a)[0] > 0.0 for a in dense)
    assert all(np.any(np.sum(np.abs(a), axis=1) > 2.0 * np.diag(a)) for a in dense)
    factor = factor_tridiagonals(diag, off)
    assert np.max(np.abs(factor.levels[0])) > 1.0
    b = np.random.default_rng(908).standard_normal((n, 2))
    x = factor.solve(b.copy())
    expected = dense_solves(dense, b)
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_tridiagonal_solve_keeps_each_sample_to_itself():
    # a sample solved in a stack gets the bits it gets alone, and a
    # non-finite right-hand side of one sample reaches no other sample
    rng = np.random.default_rng(909)
    diag, off, _ = random_tridiagonals(rng, 5, 40)
    b = rng.standard_normal((40, 3, 5))
    b[17, 1, 2] = np.inf
    with np.errstate(invalid="ignore"):
        x = factor_tridiagonals(diag, off).solve(b.copy())
        for s in range(5):
            alone = factor_tridiagonals(diag[:, s:s + 1], off[:, s:s + 1]).solve(
                np.ascontiguousarray(b[:, :, s:s + 1]))
            np.testing.assert_array_equal(x[:, :, s:s + 1], alone)
    assert not np.all(np.isfinite(x[:, 1, 2]))
    assert np.all(np.isfinite(np.delete(x, 2, axis=2)))


def test_repeated_tridiagonal_solves_isolate_a_sample_that_overflows():
    # the solve of L = tridiag(-1, 4, -1) / g grows a state by g/6..g/2:
    # sample 1 grows about 500-fold per solve and overflows, and its inf and
    # NaN reach no other sample, which gets the bits it gets solved alone
    n, steps = 6, 160
    growth = np.array([2.0, 2500.0, 1.0, 3.0])
    diag, off = np.full((n, 4), 4.0) / growth, np.full((n - 1, 4), -1.0) / growth
    factor = factor_tridiagonals(diag, off)
    alone = [factor_tridiagonals(diag[:, s:s + 1], off[:, s:s + 1]) for s in range(4)]
    x = np.repeat(np.linspace(1.0, 2.0, n)[:, None], 4, axis=1)
    xs = [x[:, s:s + 1].copy() for s in range(4)]
    finite = np.empty((steps, 4), dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(steps):
            factor.solve(x)
            for s in range(4):
                alone[s].solve(xs[s])
                np.testing.assert_array_equal(x[:, s:s + 1], xs[s])
            finite[k] = np.isfinite(x).all(axis=0)
    first_bad = int(np.argmin(finite[:, 1]))
    assert 0 < first_bad < steps
    assert finite[:first_bad, 1].all() and not finite[first_bad:, 1].any()
    assert finite[:, [0, 2, 3]].all()


@pytest.mark.parametrize("samples, sample, pivot", [(2, 1, 2), (3, 2, 3)])
def test_tridiagonal_factor_names_the_indefinite_sample_of_a_stack(samples, sample, pivot):
    # the other samples are positive definite; the stack's failure is named
    # as (sample, pivot_index) in the bands' own indices
    diag, off = np.full((5, samples), 4.0), np.full((4, samples), -1.0)
    diag[pivot, sample] = -4.0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factor_tridiagonals(diag, off)
    assert (exc.value.sample, exc.value.pivot_index) == (sample, pivot)


def test_tridiagonal_factor_names_the_sample_and_pivot_of_a_breakdown():
    rng = np.random.default_rng(902)
    diag, off, _ = random_tridiagonals(rng, 4, 6)
    diag[3, 2] = -1.0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factor_tridiagonals(diag, off)
    assert (exc.value.sample, exc.value.pivot_index) == (2, 3)
    # the first pivot of a sample: no fill from the previous sample's last row
    diag[3, 2] = 2.5
    diag[0, 1] = 0.0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factor_tridiagonals(diag, off)
    assert (exc.value.sample, exc.value.pivot_index) == (1, 0)


def test_tridiagonal_breakdowns_name_the_first_sample_as_dpttrf_does():
    # sample 1 breaks at pivot 4, sample 3 at pivot 1: the first failing
    # sample is named, not the earliest pivot, as LAPACK dpttrf reports the
    # samples laid end to end with zero couplings between them
    rng = np.random.default_rng(910)
    diag, off, _ = random_tridiagonals(rng, 4, 6)
    diag[4, 1] = -0.5
    diag[1, 3] = -0.5
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factor_tridiagonals(diag, off)
    seams = np.vstack([off, np.zeros((1, 4))]).T.ravel()[:-1]
    info = la.lapack.dpttrf(diag.T.ravel(), seams)[2]
    assert divmod(info - 1, 6) == (1, 4)
    assert (exc.value.sample, exc.value.pivot_index) == (1, 4)
    # a pivot that overflows to -inf fails too
    diag, off = np.array([[1e-200], [1.0]]), np.array([[1e200]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factor_tridiagonals(diag, off)
    assert (exc.value.sample, exc.value.pivot_index) == (0, 1)


def test_tridiagonal_factor_validates_arguments():
    diag, off = np.full((3, 2), 2.0), np.full((2, 2), -1.0)
    with pytest.raises(ValueError):
        factor_tridiagonals(diag[:, 0], off[:, 0])  # not a stack
    with pytest.raises(ValueError):
        factor_tridiagonals(diag, off[:1])
    with pytest.raises(ValueError):
        factor_tridiagonals(np.full((0, 2), 1.0), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        factor_tridiagonals(diag, off * np.nan)
    factor = factor_tridiagonals(diag, off)
    with pytest.raises(ValueError):
        factor.solve(np.ones((2, 3)))
    with pytest.raises(ValueError):
        factor.solve(np.ones((2, 3)).T)  # right shape, not C-contiguous
    with pytest.raises(ValueError):
        factor.solve(np.ones((3, 2), dtype=np.float32))


# ----------------------------------------------------------------------
# imports


def test_importing_and_building_models_does_not_load_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import topinf; "
            "topinf.build_heat_model(201); topinf.build_wave_model(200); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(topinf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


_SOLVES_AND_FITS = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import topinf
from topinf import InferenceData, infer_symmetric, solve_sym

rng = np.random.default_rng(214)
g = rng.standard_normal((600, 600))
solve_sym(g @ g.T / 600 + np.eye(600), np.ones(600))
try:  # the failure path names the breakdown pivot
    solve_sym(np.diag([1.0, -1.0]), np.ones(2))
except topinf.NotPositiveDefiniteError:
    pass
ys = rng.standard_normal((4, 20, 3))
infer_symmetric(InferenceData(nus=rng.standard_normal((2, 3)), ys=ys,
                              zs=rng.standard_normal(ys.shape)))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


def test_symmetric_solves_and_fits_do_not_load_scipy():
    # every BLAS call of a fit runs in NumPy's thread pool, not SciPy's
    src = str(Path(topinf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _SOLVES_AND_FITS, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


_WHOLE_STUDY = """
import dataclasses
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from topinf import Surrogate, default_config, run_pipeline

heat = dataclasses.replace(default_config("heat1d"), n_elements=24, tf=0.4, dt=0.05, n_train=5,
                           n_test=2, reduced_dims=(2, 3), derivative="exact", seed=3)
wave = dataclasses.replace(default_config("wave1d"), n_elements=16, tf=0.4 * np.pi,
                           dt=np.pi / 50.0, n_train=4, n_test=2, reduced_dims=(2,), seed=11)
for cfg in (heat, wave):
    run_pipeline(cfg, f"{sys.argv[2]}/{cfg.problem}")
Surrogate.load(f"{sys.argv[2]}/heat1d").run("intrusive", 3, np.full((3, 2), 0.5))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


def test_a_whole_study_does_not_load_scipy(tmp_path):
    # all five stages of a heat and a wave study and a query run on NumPy alone
    src = str(Path(topinf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _WHOLE_STUDY, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=300, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "wave1d" / "report" / "summary.txt").exists()

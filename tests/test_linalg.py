"""Dense linear-algebra wrappers: factorizations, solves, failure contracts."""

import numpy as np
import pytest
import scipy.linalg as la

from topinf import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    cholesky_upper,
    lstsq_min_norm,
    solve_sym,
    thin_svd,
)


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
    x, _ = solve_sym(b, c)
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
    x, cond = solve_sym(b, c)
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


def test_symmetry_check_scans_every_strip():
    # the check runs in row strips of the upper triangle; a system larger
    # than one strip, with a partial last strip, must still be rejected for
    # one asymmetric entry far off the diagonal in the last strip's rows or
    # columns, and accepted when that entry is within the tolerance
    rng = np.random.default_rng(207)
    n = 203
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

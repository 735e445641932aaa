"""Tensor contraction and vectorization identities against loop oracles.

Every reshape-based operation is checked entry by entry against a naive
index-loop implementation, and the algebraic identities relating the
Frobenius inner product, outer products, contractions, partial
vectorizations, and Kronecker products are verified on batches of
randomized instances.
"""

import numpy as np
import pytest

from topinf import (
    cmat,
    cvec,
    double_contract,
    frobenius,
    mode3_product,
    outer,
    rmat,
    rvec,
    swap_axes,
)

N_INSTANCES = 100
REL_TOL = 1e-12


def rel_err(actual, expected):
    """Normwise relative deviation: max|a - e| / max(|e|)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


def random_shape(rng, ndim, hi=5):
    return tuple(int(d) for d in rng.integers(1, hi + 1, size=ndim))


# ----------------------------------------------------------------------
# merge operations vs. naive index loops


def naive_cvec(t, i, j):
    """Merge axes i < j at position i, index of axis i running fastest."""
    ni, nj = t.shape[i], t.shape[j]
    out_shape = t.shape[:i] + (ni * nj,) + t.shape[i + 1 : j] + t.shape[j + 1 :]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*t.shape):
        ki, kj = idx[i], idx[j]
        rest = idx[:i] + (kj * ni + ki,) + idx[i + 1 : j] + idx[j + 1 :]
        out[rest] = t[idx]
    return out


def naive_rvec(t, i, j):
    """Merge axes i < j at position i, index of axis j running fastest."""
    ni, nj = t.shape[i], t.shape[j]
    out_shape = t.shape[:i] + (ni * nj,) + t.shape[i + 1 : j] + t.shape[j + 1 :]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*t.shape):
        ki, kj = idx[i], idx[j]
        rest = idx[:i] + (ki * nj + kj,) + idx[i + 1 : j] + idx[j + 1 :]
        out[rest] = t[idx]
    return out


def axis_pairs(rng, ndim):
    i = int(rng.integers(0, ndim - 1))
    j = int(rng.integers(i + 1, ndim))
    return i, j


def test_cvec_matches_index_oracle():
    rng = np.random.default_rng(101)
    for _ in range(N_INSTANCES):
        ndim = int(rng.integers(2, 5))
        t = rng.standard_normal(random_shape(rng, ndim, hi=4))
        i, j = axis_pairs(rng, ndim)
        np.testing.assert_array_equal(cvec(t, i, j), naive_cvec(t, i, j))


def test_rvec_matches_index_oracle():
    rng = np.random.default_rng(102)
    for _ in range(N_INSTANCES):
        ndim = int(rng.integers(2, 5))
        t = rng.standard_normal(random_shape(rng, ndim, hi=4))
        i, j = axis_pairs(rng, ndim)
        np.testing.assert_array_equal(rvec(t, i, j), naive_rvec(t, i, j))


def test_cmat_inverts_cvec_and_back():
    rng = np.random.default_rng(103)
    for _ in range(N_INSTANCES):
        ndim = int(rng.integers(2, 5))
        t = rng.standard_normal(random_shape(rng, ndim, hi=4))
        i, j = axis_pairs(rng, ndim)
        sizes = (t.shape[i], t.shape[j])
        merged = cvec(t, i, j)
        np.testing.assert_array_equal(cmat(merged, i, j, sizes), t)
        np.testing.assert_array_equal(cvec(cmat(merged, i, j, sizes), i, j), merged)


def test_rmat_inverts_rvec_and_back():
    rng = np.random.default_rng(104)
    for _ in range(N_INSTANCES):
        ndim = int(rng.integers(2, 5))
        t = rng.standard_normal(random_shape(rng, ndim, hi=4))
        i, j = axis_pairs(rng, ndim)
        sizes = (t.shape[i], t.shape[j])
        merged = rvec(t, i, j)
        np.testing.assert_array_equal(rmat(merged, i, j, sizes), t)
        np.testing.assert_array_equal(rvec(rmat(merged, i, j, sizes), i, j), merged)


def test_rvec_of_swapped_axes_is_cvec():
    rng = np.random.default_rng(105)
    for _ in range(N_INSTANCES):
        ndim = int(rng.integers(2, 5))
        t = rng.standard_normal(random_shape(rng, ndim, hi=4))
        i, j = axis_pairs(rng, ndim)
        np.testing.assert_array_equal(rvec(swap_axes(t, i, j), i, j), cvec(t, i, j))


def test_full_vectorization_of_matrices():
    rng = np.random.default_rng(106)
    a = rng.standard_normal((4, 7))
    np.testing.assert_array_equal(cvec(a, 0, 1), a.ravel(order="F"))
    np.testing.assert_array_equal(rvec(a, 0, 1), a.ravel(order="C"))


def test_vectorized_outer_product_is_kronecker_of_vectors():
    rng = np.random.default_rng(107)
    for _ in range(N_INSTANCES):
        u = rng.standard_normal(int(rng.integers(1, 6)))
        v = rng.standard_normal(int(rng.integers(1, 6)))
        np.testing.assert_array_equal(cvec(outer(u, v), 0, 1), np.kron(v, u))
        np.testing.assert_array_equal(rvec(outer(u, v), 0, 1), np.kron(u, v))


# ----------------------------------------------------------------------
# elementary products vs. loop oracles


def test_mode3_product_matches_loops():
    rng = np.random.default_rng(108)
    for _ in range(N_INSTANCES):
        n1, n2, n3 = random_shape(rng, 3)
        t = rng.standard_normal((n1, n2, n3))
        v = rng.standard_normal(n3)
        expected = np.zeros((n1, n2))
        for x in range(n3):
            expected += t[:, :, x] * v[x]
        assert rel_err(mode3_product(t, v), expected) < REL_TOL


def test_outer_product_matches_loops():
    rng = np.random.default_rng(109)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 2))
    got = outer(a, b)
    assert got.shape == (2, 3, 4, 2)
    for idx in np.ndindex(*got.shape):
        assert got[idx] == a[idx[0], idx[1]] * b[idx[2], idx[3]]


def test_double_contract_matches_loops():
    rng = np.random.default_rng(110)
    for _ in range(N_INSTANCES):
        n1, x, y, m = random_shape(rng, 4)
        a = rng.standard_normal((n1, x, y))
        b = rng.standard_normal((y, x, m))
        expected = np.zeros((n1, m))
        for ix in range(x):
            for iy in range(y):
                expected += np.outer(a[:, ix, iy], b[iy, ix, :])
        assert rel_err(double_contract(a, b), expected) < REL_TOL


def test_double_contract_of_matrices_is_reversed_trace_pairing():
    rng = np.random.default_rng(111)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 3))
    assert abs(double_contract(a, b) - np.sum(a * b.T)) < REL_TOL * np.sum(np.abs(a))


def test_frobenius_matches_plain_sum():
    rng = np.random.default_rng(112)
    for _ in range(N_INSTANCES):
        shape = random_shape(rng, int(rng.integers(1, 5)))
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        expected = float(np.sum(a * b))
        assert abs(frobenius(a, b) - expected) <= REL_TOL * max(1.0, abs(expected))


# ----------------------------------------------------------------------
# inner-product and contraction identities


def test_frobenius_moves_matrix_factor_to_transpose():
    # <A B, C> == <A, C B^T>
    rng = np.random.default_rng(114)
    for _ in range(N_INSTANCES):
        ell, m, n = random_shape(rng, 3)
        a = rng.standard_normal((ell, m))
        b = rng.standard_normal((m, n))
        c = rng.standard_normal((ell, n))
        lhs = frobenius(a @ b, c)
        rhs = frobenius(a, c @ b.T)
        assert abs(lhs - rhs) <= REL_TOL * max(1.0, abs(lhs), abs(rhs))


def test_frobenius_moves_feature_vector_to_outer_product():
    # <T nu, B> == <T, B (outer) nu>
    rng = np.random.default_rng(115)
    for _ in range(N_INSTANCES):
        m, n, p = random_shape(rng, 3)
        t = rng.standard_normal((m, n, p))
        nu = rng.standard_normal(p)
        b = rng.standard_normal((m, n))
        lhs = frobenius(mode3_product(t, nu), b)
        rhs = frobenius(t, outer(b, nu))
        assert abs(lhs - rhs) <= REL_TOL * max(1.0, abs(lhs), abs(rhs))


def test_outer_product_collapses_to_double_contraction():
    # ((T nu) B) (outer) nu == T : (nu (outer) B (outer) nu)
    rng = np.random.default_rng(116)
    for _ in range(N_INSTANCES):
        r = int(rng.integers(1, 6))
        p = int(rng.integers(1, 6))
        t = rng.standard_normal((r, r, p))
        b = rng.standard_normal((r, r))
        nu = rng.standard_normal(p)
        lhs = outer(mode3_product(t, nu) @ b, nu)
        rhs = double_contract(t, outer(nu, outer(b, nu)))
        assert rel_err(lhs, rhs) < REL_TOL


def test_vectorization_turns_contraction_into_matrix_product():
    # cvec_12 (T : X) == (cvec_12 T) (rvec_01 cvec_23 X)
    rng = np.random.default_rng(117)
    for _ in range(N_INSTANCES):
        r = int(rng.integers(1, 6))
        p = int(rng.integers(1, 6))
        t = rng.standard_normal((r, r, p))
        x = rng.standard_normal((p, r, r, p))
        lhs = cvec(double_contract(t, x), 1, 2)
        rhs = cvec(t, 1, 2) @ rvec(cvec(x, 2, 3), 0, 1)
        assert rel_err(lhs, rhs) < REL_TOL


def test_row_merges_of_outer_product_build_kronecker_product():
    # kron(A, B) == rvec chain applied to the outer product
    rng = np.random.default_rng(118)
    for _ in range(N_INSTANCES):
        a = rng.standard_normal(random_shape(rng, 2, hi=4))
        b = rng.standard_normal(random_shape(rng, 2, hi=4))
        got = rvec(rvec(outer(a, b), 1, 3), 0, 2)
        assert rel_err(got, np.kron(a, b)) < REL_TOL


def test_triple_kronecker_product_from_iterated_row_merges():
    # kron(kron(A, B), C) from the order-6 outer product
    rng = np.random.default_rng(119)
    for _ in range(N_INSTANCES):
        a = rng.standard_normal(random_shape(rng, 2, hi=3))
        b = rng.standard_normal(random_shape(rng, 2, hi=3))
        c = rng.standard_normal(random_shape(rng, 2, hi=3))
        g = outer(a, outer(b, c))
        got = rvec(rvec(rvec(rvec(g, 3, 5), 2, 4), 1, 3), 0, 2)
        assert rel_err(got, np.kron(np.kron(a, b), c)) < REL_TOL


# ----------------------------------------------------------------------
# argument validation


def test_merge_axis_validation():
    t = np.zeros((2, 3, 4))
    for fn in (cvec, rvec):
        with pytest.raises(ValueError):
            fn(t, 1, 1)
        with pytest.raises(ValueError):
            fn(t, 2, 1)
        with pytest.raises(ValueError):
            fn(t, 0, 3)
        with pytest.raises(ValueError):
            fn(t, -1, 1)


def test_split_validation():
    v = np.zeros(6)
    for fn in (cmat, rmat):
        with pytest.raises(ValueError):
            fn(v, 0, 1, (2, 2))  # 6 != 2 * 2
        with pytest.raises(ValueError):
            fn(v, 1, 2, (2, 3))  # axis 1 does not exist


def test_mode3_product_validation():
    with pytest.raises(ValueError):
        mode3_product(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        mode3_product(np.zeros((2, 2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        mode3_product(np.zeros((2, 2, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        mode3_product(np.zeros((2, 2, 3)), np.zeros((3, 1, 1)))


def test_double_contract_validation():
    with pytest.raises(ValueError):
        double_contract(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        double_contract(np.zeros((2, 3, 4)), np.zeros((3, 4, 2)))  # needs (4, 3, ...)


def test_frobenius_validation():
    with pytest.raises(ValueError):
        frobenius(np.zeros((2, 3)), np.zeros((3, 2)))

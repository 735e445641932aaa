"""Heat full-order model: assembly oracles, spectra, sampling, validation.

The finite element matrices are re-assembled here by numerical quadrature
of the hat-function products, independently of the closed-form local
matrices used by the implementation, and the discrete spectrum is checked
against the analytic eigenvalues of the continuous operator.
"""

import numpy as np
import pytest
import scipy.linalg as la

from topinf import (
    build_heat_model,
    crank_nicolson,
    heat_features,
    heat_initial_state,
    heat_operator,
    heat_sweep,
    sample_conductivities,
)

DOMAIN = 2.0 * np.pi


def quadrature_assembly(n_elements, breakpoints):
    """Assemble mass and per-subdomain stiffness by Gauss quadrature.

    Hat functions and their derivatives are evaluated pointwise on a
    3-point Gauss rule per element (exact for the quadratic/constant
    integrands), with no reference to the implementation's local matrices.
    """
    h = DOMAIN / n_elements
    edges = np.linspace(0.0, DOMAIN, n_elements + 1)
    n = n_elements - 1
    p = len(breakpoints) + 1
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(3)
    mass = np.zeros((n, n))
    stiffness = np.zeros((n, n, p))

    def hat(i, x):  # hat centered at interior node i (0-based)
        center = edges[i + 1]
        return np.maximum(0.0, 1.0 - np.abs(x - center) / h)

    def hat_prime(i, x):
        center = edges[i + 1]
        out = np.zeros_like(x)
        out[(x > center - h) & (x < center)] = 1.0 / h
        out[(x > center) & (x < center + h)] = -1.0 / h
        return out

    for e in range(n_elements):
        mid = 0.5 * (edges[e] + edges[e + 1])
        x = mid + 0.5 * h * gauss_x
        w = 0.5 * h * gauss_w
        k = int(np.searchsorted(np.asarray(breakpoints), mid))
        for i in range(max(e - 1, 0), min(e + 1, n)):
            for j in range(max(e - 1, 0), min(e + 1, n)):
                mass[i, j] += np.sum(w * hat(i, x) * hat(j, x))
                stiffness[i, j, k] += np.sum(w * hat_prime(i, x) * hat_prime(j, x))
    return mass, stiffness


def test_assembly_matches_quadrature_oracle():
    breakpoints = (1.0, 4.0)
    model = build_heat_model(12, breakpoints)
    mass, stiffness = quadrature_assembly(12, breakpoints)
    np.testing.assert_allclose(model.mass, mass, atol=1e-14)
    np.testing.assert_allclose(model.stiffness, stiffness, atol=1e-13)


def test_mass_and_total_stiffness_are_the_classic_tridiagonals():
    model = build_heat_model(10)
    n, h = model.n_dof, model.h
    tri = np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
    np.testing.assert_allclose(model.mass, (h / 6.0) * (4.0 * np.eye(n) + tri), atol=1e-14)
    total = model.stiffness.sum(axis=2)
    np.testing.assert_allclose(total, (1.0 / h) * (2.0 * np.eye(n) - tri), atol=1e-13)


def test_stiffness_slices_are_symmetric_positive_semidefinite():
    model = build_heat_model(20)
    for k in range(model.n_subdomains):
        slab = model.stiffness[:, :, k]
        np.testing.assert_allclose(slab, slab.T, atol=0)
        assert np.min(la.eigvalsh(slab)) >= -1e-12 * np.max(np.abs(slab))


def test_subdomain_assignment_by_element_midpoint():
    # breakpoint exactly at the middle node: elements 0-1 are left, 2-3 right
    model = build_heat_model(4, breakpoints=(np.pi,))
    h = model.h
    left, right = model.stiffness[:, :, 0], model.stiffness[:, :, 1]
    np.testing.assert_allclose(
        left, (1.0 / h) * np.array([[2.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        right, (1.0 / h) * np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 2.0]]),
        atol=1e-14,
    )


def test_model_dimensions_and_nodes():
    model = build_heat_model(8, breakpoints=(2.0,))
    assert model.n_dof == 7
    assert model.n_subdomains == 2
    np.testing.assert_allclose(model.nodes, np.linspace(0.0, DOMAIN, 9)[1:-1])
    np.testing.assert_allclose(model.h, DOMAIN / 8)


def test_build_validation():
    with pytest.raises(ValueError):
        build_heat_model(1)
    with pytest.raises(ValueError):
        build_heat_model(10, breakpoints=(0.0,))
    with pytest.raises(ValueError):
        build_heat_model(10, breakpoints=(7.0,))
    with pytest.raises(ValueError):
        build_heat_model(10, breakpoints=(3.0, 2.0))


def test_dirichlet_spectrum_converges_to_continuous_eigenvalues():
    # -d2/dx2 on (0, 2 pi) with zero boundary values: eigenvalues (k/2)^2
    errors = []
    for n_elements in (50, 100):
        model = build_heat_model(n_elements)
        k_total = model.stiffness.sum(axis=2)
        lam = la.eigh(k_total, model.mass, eigvals_only=True)
        np.testing.assert_allclose(lam[:3], [0.25, 1.0, 2.25], rtol=5e-3)
        errors.append(lam[0] - 0.25)
    assert errors[0] > 0.0  # conforming elements approximate from above
    assert 3.5 < errors[0] / errors[1] < 4.5  # second-order convergence


def test_heat_operator_is_negated_weighted_stiffness():
    rng = np.random.default_rng(301)
    model = build_heat_model(15, breakpoints=(2.0, 4.0))
    mu = rng.uniform(0.1, 1.0, size=3)
    expected = np.zeros_like(model.mass)
    for k in range(3):
        expected -= mu[k] * model.stiffness[:, :, k]
    np.testing.assert_allclose(heat_operator(model, mu), expected, atol=1e-15)
    # dissipative: the operator has no positive eigenvalues
    a = heat_operator(model, mu)
    assert np.max(la.eigvalsh(0.5 * (a + a.T))) <= 1e-12 * np.max(np.abs(a))


def test_heat_operator_validation():
    model = build_heat_model(6)
    with pytest.raises(ValueError):
        heat_operator(model, np.array([1.0, 1.0]))  # needs 3 entries
    with pytest.raises(ValueError):
        heat_operator(model, np.array([1.0, -1.0, 1.0]))


def test_initial_state_is_the_nodal_interpolant():
    model = build_heat_model(30)
    x = model.nodes
    np.testing.assert_allclose(
        heat_initial_state(model), np.exp(-((x - np.pi) ** 2)) * np.sin(x / 2.0)
    )
    assert heat_initial_state(model).shape == (model.n_dof,)


def test_features_are_the_identity_and_copy():
    mu = np.array([0.3, 0.7])
    nu = heat_features(mu)
    np.testing.assert_array_equal(nu, mu)
    nu[0] = 99.0
    assert mu[0] == 0.3


def test_sampler_bounds_shape_and_reproducibility():
    rng = np.random.default_rng(302)
    draws = sample_conductivities(rng, 500, 3, lo=0.01, hi=1.0)
    assert draws.shape == (3, 500)
    assert np.all(draws > 0.01) and np.all(draws < 1.0)
    # log-uniform: the median sits near the geometric midpoint of the range
    assert abs(np.median(np.log(draws)) - 0.5 * (np.log(0.01) + np.log(1.0))) < 0.3
    again = sample_conductivities(np.random.default_rng(302), 500, 3, lo=0.01, hi=1.0)
    np.testing.assert_array_equal(draws, again)


def test_sampler_validation():
    rng = np.random.default_rng(303)
    with pytest.raises(ValueError):
        sample_conductivities(rng, 0, 3)
    with pytest.raises(ValueError):
        sample_conductivities(rng, 5, 0)
    with pytest.raises(ValueError):
        sample_conductivities(rng, 5, 3, lo=1.0, hi=0.5)
    with pytest.raises(ValueError):
        sample_conductivities(rng, 5, 3, lo=-1.0, hi=0.5)


# ----------------------------------------------------------------------
# the stacked full-order sweep


@pytest.mark.parametrize("n_elements", [201, 400])
def test_sweep_matches_dense_crank_nicolson_at_study_size(n_elements):
    # the default heat1d horizon: dt = 0.008 over [0, 2]
    model = build_heat_model(n_elements)
    params = sample_conductivities(np.random.default_rng(911), 4, 3, 0.1, 1.0)
    q0 = heat_initial_state(model)
    runs = heat_sweep(model, params, q0, 0.008, 251, t0=0.25)
    assert len(runs) == params.shape[1]
    for s, (mu, run) in enumerate(zip(params.T, runs)):
        ref = crank_nicolson(heat_operator(model, mu), q0, 0.008, 251, mass=model.mass, t0=0.25)
        assert not run.diverged
        np.testing.assert_array_equal(run.times, ref.times)
        err = np.linalg.norm(run.states - ref.states) / np.linalg.norm(ref.states)
        assert err <= 1e-10
        # one sample swept alone gives the same states, bit for bit
        alone = heat_sweep(model, params[:, s:s + 1], q0, 0.008, 251, t0=0.25)[0]
        np.testing.assert_array_equal(run.states, alone.states)


def test_sweep_validation():
    model = build_heat_model(10)
    q0 = heat_initial_state(model)
    params = np.full((3, 2), 0.5)
    with pytest.raises(ValueError):
        heat_sweep(model, params[:, 0], q0, 0.01, 5)  # a vector, not one per column
    with pytest.raises(ValueError):
        heat_sweep(model, params[:2], q0, 0.01, 5)
    with pytest.raises(ValueError):
        heat_sweep(model, -params, q0, 0.01, 5)
    with pytest.raises(ValueError):
        heat_sweep(model, params, q0[:-1], 0.01, 5)
    with pytest.raises(ValueError):
        heat_sweep(model, params, q0, 0.0, 5)

"""Wave full-order model: mixed-space assembly, energy, spectra, validation.

The divergence pairing and flux mass matrices are checked against
hand-built small-mesh matrices and a quadrature oracle; conservation of
the discrete energy is verified on the exact matrix-exponential flow,
independently of any time integrator.
"""

import numpy as np
import pytest
import scipy.linalg as la

from topinf import (
    build_wave_model,
    project_matrix,
    canonical_j,
    implicit_midpoint,
    sample_wave_speeds,
    wave_full_operator,
    wave_hamiltonian,
    wave_initial_state,
    wave_mass_form_operator,
    wave_mass_v,
    wave_operator_a1,
    wave_projected_stiffness,
    wave_rhs,
    wave_stiffness,
    wave_step,
)

DOMAIN = 2.0 * np.pi


def test_divergence_pairing_on_a_small_mesh():
    model = build_wave_model(4, breakpoints=(np.pi,))
    expected = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )
    np.testing.assert_array_equal(model.s_div, expected)
    np.testing.assert_allclose(model.mass_w, model.h * np.eye(4))
    # constants are divergence-free: each row pairs +1 with -1
    np.testing.assert_array_equal(model.s_div @ np.ones(4), np.zeros(3))


def test_flux_mass_slices_match_p1_mass_assembly():
    # the flux space is the same interior-node P1 space as the heat problem,
    # so the summed slices must be the classic (h/6) tridiag(1, 4, 1)
    model = build_wave_model(10, breakpoints=(2.0, 4.0))
    n, h = model.n_v, model.h
    tri = np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
    total = model.mass_v_slices.sum(axis=2)
    np.testing.assert_allclose(total, (h / 6.0) * (4.0 * np.eye(n) + tri), atol=1e-14)
    for k in range(model.n_subdomains):
        slab = model.mass_v_slices[:, :, k]
        np.testing.assert_allclose(slab, slab.T, atol=0)
        assert np.min(la.eigvalsh(slab)) >= -1e-14


def test_weighted_flux_mass_matches_loops():
    rng = np.random.default_rng(401)
    model = build_wave_model(8, breakpoints=(1.5, 3.0, 4.5))
    mu = rng.uniform(0.8, 2.4, size=4)
    expected = np.zeros((model.n_v, model.n_v))
    for k in range(4):
        expected += model.mass_v_slices[:, :, k] / mu[k] ** 2
    np.testing.assert_allclose(wave_mass_v(model, mu), expected, atol=1e-15)


def test_stiffness_matches_explicit_inverse():
    rng = np.random.default_rng(402)
    model = build_wave_model(9, breakpoints=(2.0,))
    mu = rng.uniform(0.8, 2.4, size=2)
    mv = wave_mass_v(model, mu)
    expected = model.s_div.T @ np.linalg.inv(mv) @ model.s_div
    k = wave_stiffness(model, mu)
    np.testing.assert_allclose(k, expected, atol=1e-12 * np.max(np.abs(expected)))
    np.testing.assert_allclose(k, k.T, atol=1e-12 * np.max(np.abs(k)))
    assert np.min(la.eigvalsh(k)) >= -1e-12 * np.max(np.abs(k))


def test_position_block_is_mass_scaled_stiffness():
    rng = np.random.default_rng(403)
    model = build_wave_model(7)
    mu = rng.uniform(0.8, 2.4, size=4)
    a1 = wave_operator_a1(model, mu)
    k = wave_stiffness(model, mu)
    np.testing.assert_allclose(a1, k / model.h, atol=1e-12 * np.max(np.abs(k)))
    # A1 is self-adjoint in the mass inner product
    mw_a1 = model.mass_w @ a1
    np.testing.assert_allclose(mw_a1, mw_a1.T, atol=1e-12 * np.max(np.abs(mw_a1)))


def test_operator_block_layouts():
    rng = np.random.default_rng(404)
    model = build_wave_model(6)
    mu = rng.uniform(0.8, 2.4, size=4)
    n = model.n_w
    full = wave_full_operator(model, mu)
    a1 = wave_operator_a1(model, mu)
    np.testing.assert_array_equal(full[:n, :n], np.zeros((n, n)))
    np.testing.assert_array_equal(full[:n, n:], np.eye(n))
    np.testing.assert_allclose(full[n:, :n], -a1)
    np.testing.assert_array_equal(full[n:, n:], np.zeros((n, n)))
    # mass-carried form: blockdiag(Mw, Mw) @ full operator
    m2 = np.kron(np.eye(2), model.mass_w)
    np.testing.assert_allclose(
        wave_mass_form_operator(model, mu), m2 @ full, atol=1e-12 * np.max(np.abs(full))
    )


def test_rhs_matches_assembled_operator():
    rng = np.random.default_rng(405)
    model = build_wave_model(11, breakpoints=(1.0, 2.0))
    mu = rng.uniform(0.8, 2.4, size=3)
    y = rng.standard_normal(2 * model.n_w)
    expected = wave_full_operator(model, mu) @ y
    np.testing.assert_allclose(wave_rhs(model, mu, y), expected, atol=1e-12)
    with pytest.raises(ValueError):
        wave_rhs(model, mu, y[:-1])


def test_energy_conserved_by_exact_flow():
    # the matrix-exponential flow is the exact solution; the discrete
    # energy must be constant along it
    rng = np.random.default_rng(406)
    model = build_wave_model(12, breakpoints=(np.pi,))
    mu = rng.uniform(0.8, 2.4, size=2)
    gen = wave_full_operator(model, mu)
    y0 = rng.standard_normal(2 * model.n_w)
    h0 = wave_hamiltonian(model, mu, y0)
    for t in (0.3, 1.7, 6.4):
        yt = la.expm(t * gen) @ y0
        assert abs(wave_hamiltonian(model, mu, yt) - h0) < 1e-10 * abs(h0)


def test_hamiltonian_matches_explicit_inverse_oracle():
    rng = np.random.default_rng(407)
    model = build_wave_model(8)
    mu = rng.uniform(0.8, 2.4, size=4)
    states = rng.standard_normal((2 * model.n_w, 5))
    n = model.n_w
    mv_inv = np.linalg.inv(wave_mass_v(model, mu))
    expected = np.empty(5)
    for c in range(5):
        q, p = states[:n, c], states[n:, c]
        w = model.s_div @ q
        expected[c] = 0.5 * p @ model.mass_w @ p + 0.5 * w @ mv_inv @ w
    got = wave_hamiltonian(model, mu, states)
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    # single-column input returns a scalar
    single = wave_hamiltonian(model, mu, states[:, 0])
    assert isinstance(single, float)
    assert abs(single - expected[0]) < 1e-12 * abs(expected[0])
    with pytest.raises(ValueError):
        wave_hamiltonian(model, mu, states[:-1])


def test_constant_speed_spectrum_matches_continuous_eigenvalues():
    # with c constant the position block approximates c^2 times the zero-flux
    # Laplacian on (0, 2 pi): eigenvalues c^2 (k/2)^2 for k = 0, 1, 2, ...
    errors = []
    for n_elements in (50, 100):
        model = build_wave_model(n_elements, breakpoints=())
        lam = np.sort(la.eigvals(wave_operator_a1(model, np.array([1.0]))).real)
        assert abs(lam[0]) < 1e-10
        np.testing.assert_allclose(lam[1:4], [0.25, 1.0, 2.25], rtol=5e-3)
        errors.append(lam[1] - 0.25)
    assert errors[0] > 0.0
    assert 3.5 < errors[0] / errors[1] < 4.5
    # speed scaling: A1 is quadratic in a globally constant c
    model = build_wave_model(20, breakpoints=())
    a_one = wave_operator_a1(model, np.array([1.0]))
    a_two = wave_operator_a1(model, np.array([2.0]))
    np.testing.assert_allclose(a_two, 4.0 * a_one, rtol=1e-12)


def test_initial_state_is_elementwise_average():
    # compare against near-exact elementwise averages; the implementation's
    # fixed 3-point rule carries an O(h^6) truncation error per element
    def exact_averages(n_elements, h):
        edges = np.linspace(0.0, DOMAIN, n_elements + 1)
        gx, gw = np.polynomial.legendre.leggauss(20)
        out = np.empty(n_elements)
        for e in range(n_elements):
            mid, half = 0.5 * (edges[e] + edges[e + 1]), 0.5 * h
            x = mid + half * gx
            out[e] = half * np.sum(gw * np.exp(-((x - np.pi) ** 2)) * np.sin(x)) / h
        return out

    for n_elements, tol in ((25, 1e-6), (100, 1e-9)):
        model = build_wave_model(n_elements)
        y0 = wave_initial_state(model)
        np.testing.assert_allclose(
            y0[:n_elements], exact_averages(n_elements, model.h), atol=tol
        )
        np.testing.assert_array_equal(y0[n_elements:], np.zeros(n_elements))


def test_speed_sampler_bounds_and_reproducibility():
    draws = sample_wave_speeds(np.random.default_rng(408), 300, 4, lo=0.8, hi=2.4)
    assert draws.shape == (4, 300)
    assert np.all(draws > 0.8) and np.all(draws < 2.4)
    again = sample_wave_speeds(np.random.default_rng(408), 300, 4, lo=0.8, hi=2.4)
    np.testing.assert_array_equal(draws, again)
    with pytest.raises(ValueError):
        sample_wave_speeds(np.random.default_rng(1), 0, 4)
    with pytest.raises(ValueError):
        sample_wave_speeds(np.random.default_rng(1), 5, 4, lo=2.0, hi=1.0)


def test_speed_validation():
    model = build_wave_model(6)
    with pytest.raises(ValueError):
        wave_mass_v(model, np.array([1.0, 1.0]))  # needs 4 entries
    with pytest.raises(ValueError):
        wave_stiffness(model, np.array([1.0, -1.0, 1.0, 1.0]))


def test_build_validation():
    with pytest.raises(ValueError):
        build_wave_model(1)
    with pytest.raises(ValueError):
        build_wave_model(10, breakpoints=(2.0 * np.pi,))
    with pytest.raises(ValueError):
        build_wave_model(10, breakpoints=(3.0, 3.0))


def test_canonical_j_properties():
    j = canonical_j(3)
    assert j.shape == (6, 6)
    np.testing.assert_array_equal(j[:3, 3:], np.eye(3))
    np.testing.assert_array_equal(j[3:, :3], -np.eye(3))
    np.testing.assert_array_equal(j.T, -j)
    np.testing.assert_array_equal(j @ j, -np.eye(6))
    with pytest.raises(ValueError):
        canonical_j(0)


# ----------------------------------------------------------------------
# tridiagonal stiffness and the stacked full-order sweep


def test_stiffness_matches_dense_solve_at_study_size():
    model = build_wave_model(200)
    for mu in sample_wave_speeds(np.random.default_rng(921), 3, 4).T:
        expected = model.s_div.T @ np.linalg.solve(wave_mass_v(model, mu), model.s_div)
        k = wave_stiffness(model, mu)
        assert k.flags.c_contiguous
        np.testing.assert_allclose(k, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


def test_projected_stiffness_matches_projected_dense_stiffness_at_study_size():
    model = build_wave_model(200)
    params = sample_wave_speeds(np.random.default_rng(923), 13, 4)
    q, _ = np.linalg.qr(np.random.default_rng(924).standard_normal((model.n_w, 10)))
    u = q / np.sqrt(model.h)  # Mw-orthonormal
    np.testing.assert_allclose(u.T @ model.mass_w @ u, np.eye(10), atol=1e-13)
    blocks = wave_projected_stiffness(model, params, u)
    assert blocks.shape == (13, 10, 10)
    for s, mu in enumerate(params.T):
        expected = project_matrix(wave_stiffness(model, mu), u)
        np.testing.assert_allclose(blocks[s], expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))
    np.testing.assert_array_equal(blocks, blocks.transpose(0, 2, 1))
    # a nested basis: the blocks of the leading columns are the leading blocks
    leading = wave_projected_stiffness(model, params, u[:, :6])
    np.testing.assert_allclose(blocks[:, :6, :6], leading, rtol=0,
                               atol=1e-13 * np.max(np.abs(leading)))
    with pytest.raises(ValueError):
        wave_projected_stiffness(model, params[:, 0], u)  # one (p,) vector
    bad = params.copy()
    bad[2, 5] = 0.0
    with pytest.raises(ValueError):
        wave_projected_stiffness(model, bad, u)


def stepped(step, x0, n_times, samples):
    """The states ``(S, 2 Nw, n_times)`` of ``step`` from ``x0``, one call per time step."""
    states = np.empty((n_times, x0.shape[0], samples))
    states[0] = x0[:, None]
    for k in range(1, n_times):
        step(states[k - 1], states[k])
    return states.transpose(2, 1, 0)


def test_step_matches_dense_midpoint_and_conserves_energy():
    # the default wave1d horizon: dt = pi/100 over [0, 4 pi]
    model = build_wave_model(200)
    params = sample_wave_speeds(np.random.default_rng(922), 3, 4)
    y0 = wave_initial_state(model)
    dt, n_times = np.pi / 100.0, 401
    states = stepped(wave_step(model, params, dt), y0, n_times, params.shape[1])
    for s, mu in enumerate(params.T):
        ref = implicit_midpoint(wave_full_operator(model, mu), y0, dt, n_times)
        assert np.all(np.isfinite(states[s]))
        err = np.linalg.norm(states[s] - ref.states) / np.linalg.norm(ref.states)
        assert err <= 1e-10
        energy = wave_hamiltonian(model, mu, states[s])
        assert np.max(np.abs(energy - energy[0])) <= 1e-12 * abs(energy[0])


def test_step_advances_a_stack_of_states_as_one_state_at_a_time():
    # one call on a (2 Nw, T, S) stack gives the bits of T calls on
    # (2 Nw, S) states, and a one-column params the bits of its column in
    # the stack
    model = build_wave_model(30)
    rng = np.random.default_rng(923)
    params = sample_wave_speeds(rng, 3, 4)
    x = rng.standard_normal((2 * model.n_w, 7, 3))
    step = wave_step(model, params, 0.05)
    stacked = np.empty_like(x)
    step(x, stacked)
    for t in range(7):
        one = np.empty((2 * model.n_w, 3))
        step(np.ascontiguousarray(x[:, t]), one)
        np.testing.assert_array_equal(stacked[:, t], one)
    for s in range(3):
        alone = np.empty((2 * model.n_w, 7, 1))
        wave_step(model, params[:, s:s + 1], 0.05)(np.ascontiguousarray(x[:, :, s:s + 1]), alone)
        np.testing.assert_array_equal(stacked[:, :, s:s + 1], alone)


def test_step_validation():
    model = build_wave_model(8)
    params = np.full((4, 2), 1.5)
    with pytest.raises(ValueError):
        wave_step(model, params[:, 0], 0.1)  # a vector, not one per column
    with pytest.raises(ValueError):
        wave_step(model, params[:3], 0.1)
    with pytest.raises(ValueError):
        wave_step(model, -params, 0.1)
    for dt in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt"):
            wave_step(model, params, dt)

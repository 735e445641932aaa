"""Reduced models and Cayley-map integrators against step-by-step oracles."""

import numpy as np
import pytest
import scipy.linalg as la

from topinf import (
    ReducedBasis,
    RomModel,
    StructureError,
    assemble_block_hamiltonian,
    block_operator,
    build_heat_model,
    cayley_sweep,
    crank_nicolson,
    heat_initial_state,
    heat_operator,
    implicit_midpoint,
    intrusive_project,
    mode3_product,
    project_matrix,
    reduced_hamiltonian,
    symmetric_part,
    weighted_pod,
)


def orthonormal_basis(rng, n, r):
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return ReducedBasis(u=u, weight=np.eye(n), kind="pod")


# ----------------------------------------------------------------------
# model containers and assembly


def test_model_validation():
    t = np.zeros((3, 3, 2))
    a2 = np.zeros((3, 3))
    assert RomModel(t1=t, a2=a2).r == 3
    with pytest.raises(ValueError):
        RomModel(t1=np.zeros((3, 3)), a2=a2)
    with pytest.raises(ValueError):
        RomModel(t1=np.zeros((3, 2, 2)), a2=a2)
    with pytest.raises(ValueError):
        RomModel(t1=t, a2=np.zeros((2, 2)))


def test_project_matrix_oracle():
    rng = np.random.default_rng(701)
    a = rng.standard_normal((7, 7))
    u = orthonormal_basis(rng, 7, 3).u
    np.testing.assert_allclose(project_matrix(a, u), u.T @ a @ u, atol=1e-14)
    with pytest.raises(ValueError):
        project_matrix(np.zeros((6, 7)), u)
    with pytest.raises(ValueError):
        project_matrix(np.zeros((5, 5)), u)


def test_intrusive_project_matches_slice_loop():
    rng = np.random.default_rng(702)
    # the study-sized case matters because the einsum contraction order is
    # chosen from the operand sizes
    for tensor, r in ((rng.standard_normal((8, 8, 3)), 4),
                      (-build_heat_model(120).stiffness, 12)):
        basis = orthonormal_basis(rng, tensor.shape[0], r)
        reduced = intrusive_project(tensor, basis)
        assert reduced.shape == (r, r, tensor.shape[2])
        for x in range(tensor.shape[2]):
            expected = basis.u.T @ tensor[:, :, x] @ basis.u
            np.testing.assert_allclose(reduced[:, :, x], expected, atol=1e-13)
    basis = orthonormal_basis(rng, 8, 4)
    with pytest.raises(ValueError):
        intrusive_project(np.zeros((8, 8)), basis)
    with pytest.raises(ValueError):
        intrusive_project(np.zeros((7, 7, 2)), basis)


def test_block_operator_layout_and_squaring():
    rng = np.random.default_rng(706)
    t1 = rng.standard_normal((3, 3, 2))
    a2 = rng.standard_normal((3, 3))
    mu = np.array([1.5, 0.7])
    out = block_operator(t1, a2, mu)
    pos = t1[:, :, 0] * mu[0] ** 2 + t1[:, :, 1] * mu[1] ** 2
    np.testing.assert_allclose(out[:3, 3:], a2, atol=1e-14)
    np.testing.assert_allclose(out[3:, :3], -pos, atol=1e-14)
    np.testing.assert_array_equal(out[:3, :3], np.zeros((3, 3)))
    np.testing.assert_array_equal(out[3:, 3:], np.zeros((3, 3)))


def test_block_hamiltonian_assembly_gates_both_flags():
    rng = np.random.default_rng(707)
    base = rng.standard_normal((3, 3, 2))
    t1 = base + base.transpose(1, 0, 2)
    a2 = np.eye(3)
    mu = np.array([1.1, 0.9])
    good = RomModel(t1=t1, a2=a2, t1_structure="symmetric", a2_structure="symmetric")
    np.testing.assert_allclose(
        assemble_block_hamiltonian(good, mu), block_operator(t1, a2, mu), atol=1e-14
    )
    for flags in (("generic", "symmetric"), ("symmetric", "generic")):
        bad = RomModel(t1=t1, a2=a2, t1_structure=flags[0], a2_structure=flags[1])
        with pytest.raises(StructureError):
            assemble_block_hamiltonian(bad, mu)


# ----------------------------------------------------------------------
# reduced energies


def test_reduced_hamiltonian_block_oracle():
    rng = np.random.default_rng(708)
    base = rng.standard_normal((3, 3, 2))
    t1 = base + base.transpose(1, 0, 2)
    sym = rng.standard_normal((3, 3))
    a2 = sym + sym.T
    mu = np.array([1.3, 0.8])
    model = RomModel(t1=t1, a2=a2, t1_structure="symmetric", a2_structure="symmetric")
    states = rng.standard_normal((6, 5))
    pos = t1[:, :, 0] * mu[0] ** 2 + t1[:, :, 1] * mu[1] ** 2
    expected = np.array(
        [
            0.5 * states[:3, k] @ pos @ states[:3, k]
            + 0.5 * states[3:, k] @ a2 @ states[3:, k]
            for k in range(5)
        ]
    )
    np.testing.assert_allclose(reduced_hamiltonian(model, mu, states), expected, atol=1e-13)
    single = reduced_hamiltonian(model, mu, states[:, 0])
    assert isinstance(single, float)
    assert abs(single - expected[0]) < 1e-13
    with pytest.raises(ValueError):
        reduced_hamiltonian(model, mu, states[:5])
    for flags in (("generic", "symmetric"), ("symmetric", "generic")):
        flagless = RomModel(t1=t1, a2=a2, t1_structure=flags[0], a2_structure=flags[1])
        with pytest.raises(StructureError):
            reduced_hamiltonian(flagless, mu, states)


def test_symmetric_part_preserves_quadratic_energy():
    # unconstrained wave fits are scored through their symmetric part: its
    # energy must equal the quadratic form of the raw learned blocks
    rng = np.random.default_rng(710)
    t1 = rng.standard_normal((3, 3, 2))
    a2 = rng.standard_normal((3, 3))
    mu = np.array([1.3, 0.8])
    states = rng.standard_normal((6, 5))
    block = symmetric_part(RomModel(t1=t1, a2=a2))
    assert block.t1_structure == "symmetric" and block.a2_structure == "symmetric"
    np.testing.assert_allclose(block.a2, 0.5 * (a2 + a2.T), atol=1e-15)
    pos = t1[:, :, 0] * mu[0] ** 2 + t1[:, :, 1] * mu[1] ** 2
    q, p = states[:3], states[3:]
    raw_energy = 0.5 * np.sum(q * (pos @ q), axis=0) + 0.5 * np.sum(p * (a2 @ p), axis=0)
    np.testing.assert_allclose(
        reduced_hamiltonian(block, mu, states), raw_energy, atol=1e-13
    )


# ----------------------------------------------------------------------
# integrators


def _assert_matches_stepwise_solve(a, q0, dt, n_times):
    traj = crank_nicolson(a, q0, dt, n_times, t0=0.25)
    np.testing.assert_array_equal(traj.states[:, 0], q0)
    eye, x = np.eye(len(q0)), q0.copy()
    for k in range(1, n_times):
        x = np.linalg.solve(eye - 0.5 * dt * a, (eye + 0.5 * dt * a) @ x)
        np.testing.assert_allclose(traj.states[:, k], x, atol=1e-12)
    return traj


def test_crank_nicolson_matches_stepwise_solve():
    rng = np.random.default_rng(711)
    n, dt, n_times = 5, 0.05, 8
    a = rng.standard_normal((n, n))
    a = -(a @ a.T) - np.eye(n)
    m = rng.standard_normal((n, n))
    m = m @ m.T + n * np.eye(n)
    q0 = rng.standard_normal(n)
    # M qdot = A q in standard form: the same Cayley map
    traj = _assert_matches_stepwise_solve(np.linalg.solve(m, a), q0, dt, n_times)
    np.testing.assert_allclose(traj.times, 0.25 + dt * np.arange(n_times), atol=1e-15)
    assert not traj.diverged and traj.first_bad_step is None


def test_crank_nicolson_matches_stepwise_solve_on_stiff_fem():
    # P1 heat operator M^-1 A; dt times its largest eigenvalue is ~77.
    model = build_heat_model(51)
    a = np.linalg.solve(model.mass, heat_operator(model, np.array([1.0, 0.5, 2.0])))
    q0 = heat_initial_state(model) + 0.1 * np.sin(7.0 * model.nodes)
    traj = _assert_matches_stepwise_solve(a, q0, 0.05, 41)
    assert not traj.diverged and traj.first_bad_step is None


def test_implicit_midpoint_is_a_cayley_power():
    rng = np.random.default_rng(713)
    a = rng.standard_normal((4, 4))
    a = 0.3 * (a - a.T)
    y0 = rng.standard_normal(4)
    dt, n_times = 0.2, 7
    cayley = np.linalg.solve(np.eye(4) - 0.5 * dt * a, np.eye(4) + 0.5 * dt * a)
    traj = implicit_midpoint(a, y0, dt, n_times)
    for k in range(n_times):
        expected = np.linalg.matrix_power(cayley, k) @ y0
        np.testing.assert_allclose(traj.states[:, k], expected, atol=1e-11)


def test_crank_nicolson_is_implicit_midpoint():
    # one integrator: on a linear system both schemes are the same Cayley map
    assert crank_nicolson is implicit_midpoint


def test_midpoint_conserves_oscillator_energy():
    omega = 1.7
    a = np.array([[0.0, 1.0], [-(omega**2), 0.0]])
    y0 = np.array([0.8, -0.3])
    traj = implicit_midpoint(a, y0, 0.01, 1001)
    energy = 0.5 * (omega**2 * traj.states[0] ** 2 + traj.states[1] ** 2)
    drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
    assert drift < 1e-12


def test_crank_nicolson_second_order_convergence():
    rng = np.random.default_rng(714)
    a = rng.standard_normal((3, 3))
    a = -(a @ a.T) - 0.5 * np.eye(3)
    q0 = rng.standard_normal(3)
    exact = la.expm(a) @ q0
    errors = []
    for steps in (40, 80):
        traj = crank_nicolson(a, q0, 1.0 / steps, steps + 1)
        errors.append(np.linalg.norm(traj.states[:, -1] - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_dissipative_system_is_nonexpansive_in_mass_norm():
    rng = np.random.default_rng(715)
    n = 6
    k = rng.standard_normal((n, n))
    a = -(k @ k.T) - 0.1 * np.eye(n)
    m = rng.standard_normal((n, n))
    m = m @ m.T + n * np.eye(n)
    q0 = rng.standard_normal(n)
    traj = crank_nicolson(np.linalg.solve(m, a), q0, 0.05, 50)
    norms = np.sqrt(np.sum(traj.states * (m @ traj.states), axis=0))
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])


def test_divergence_is_detected_and_recorded():
    dt = 0.1
    a = np.array([[2.0 / dt]])  # makes (I - dt/2 A) exactly singular
    traj = crank_nicolson(a, np.array([1.0]), dt, 5)
    assert traj.diverged and traj.first_bad_step == 1
    np.testing.assert_array_equal(traj.states[:, 0], [1.0])
    assert np.all(np.isnan(traj.states[:, 1:]))
    assert len(traj.times) == 5


def test_overflow_is_recorded_as_divergence():
    # The Cayley factor is -51/49, so the state leaves float range at step 73.
    traj = crank_nicolson(np.array([[100.0 / 0.1]]), np.array([1e307]), 0.1, 100)
    assert traj.diverged and traj.first_bad_step == 73
    assert np.all(np.isfinite(traj.states[:, :73]))
    assert np.all(np.isnan(traj.states[:, 73:]))


def test_single_point_trajectory():
    traj = implicit_midpoint(np.eye(2), np.array([1.0, 2.0]), 0.1, 1)
    assert traj.states.shape == (2, 1)
    np.testing.assert_array_equal(traj.states[:, 0], [1.0, 2.0])


def test_integrator_validation():
    a = np.eye(2)
    y0 = np.ones(2)
    with pytest.raises(ValueError):
        crank_nicolson(np.eye(3), y0, 0.1, 5)
    with pytest.raises(ValueError):
        crank_nicolson(a, y0, 0.0, 5)
    with pytest.raises(ValueError):
        crank_nicolson(a, y0, -0.1, 5)
    with pytest.raises(ValueError):
        crank_nicolson(a, y0, 0.1, 0)
    with pytest.raises(ValueError):
        crank_nicolson(a * np.nan, y0, 0.1, 5)
    with pytest.raises(ValueError):
        crank_nicolson(a, y0 * np.inf, 0.1, 5)


# ----------------------------------------------------------------------
# stacked sweeps


def _assert_sweep_matches_single_runs(ops, x0, dt, n_times, single):
    runs = cayley_sweep(ops, x0, dt, n_times, t0=0.5)
    assert len(runs) == len(ops)
    for op, run in zip(ops, runs):
        ref = single(op, x0, dt, n_times, t0=0.5)
        assert run.states.flags.c_contiguous and ref.states.flags.c_contiguous
        np.testing.assert_array_equal(run.states, ref.states)
        np.testing.assert_array_equal(run.times, ref.times)
        assert (run.diverged, run.first_bad_step) == (ref.diverged, ref.first_bad_step)
    return runs


def test_sweep_matches_single_runs_on_a_heat_stack():
    # Galerkin heat generators at 25 conductivity samples, contracted at once
    model = build_heat_model(60)
    x0 = heat_initial_state(model)
    rng = np.random.default_rng(716)
    snaps = [crank_nicolson(np.linalg.solve(model.mass, heat_operator(model, mu)), x0, 0.02,
                            30).states for mu in rng.uniform(0.1, 1.0, (4, 3))]
    basis = weighted_pod(snaps, model.mass, 6)
    tensor = intrusive_project(-model.stiffness, basis)
    features = rng.uniform(0.1, 1.0, (3, 25))
    ops = np.einsum("ijx,xs->sij", tensor, features)
    for s in range(features.shape[1]):
        np.testing.assert_array_equal(ops[s], mode3_product(tensor, features[:, s]))
    runs = _assert_sweep_matches_single_runs(ops, basis.project(x0), 0.008, 251,
                                             crank_nicolson)
    assert not any(run.diverged for run in runs)


@pytest.mark.parametrize("count", [1, 2, 7, 25])
def test_stacked_contractions_match_each_column_alone_bitwise(count):
    # summed slice by slice: a column's matrix does not depend on how many
    # columns are contracted with it
    rng = np.random.default_rng(720 + count)
    t, a2 = rng.standard_normal((6, 6, 4)), rng.standard_normal((6, 6))
    v = rng.uniform(0.1, 2.0, (4, count))
    stack, blocks = mode3_product(t, v), block_operator(t, a2, v)
    assert stack.shape == (count, 6, 6) and blocks.shape == (count, 12, 12)
    for s in range(count):
        np.testing.assert_array_equal(stack[s], mode3_product(t, v[:, s]))
        np.testing.assert_array_equal(blocks[s], block_operator(t, a2, v[:, s]))


def test_sweep_matches_single_runs_on_a_wave_block_stack():
    rng = np.random.default_rng(717)
    r = 5
    g = rng.standard_normal((3, r, r))
    t1 = np.moveaxis(g @ g.transpose(0, 2, 1) + np.eye(r), 0, 2)  # SPD slices
    a2 = np.eye(r) + 0.1 * np.diag(rng.standard_normal(r))
    mus = rng.uniform(0.8, 2.4, (3, 13))
    ops = block_operator(t1, a2, mus)
    assert ops.shape == (13, 2 * r, 2 * r)
    for s in range(mus.shape[1]):
        np.testing.assert_array_equal(ops[s], block_operator(t1, a2, mus[:, s]))
    y0 = rng.standard_normal(2 * r)
    _assert_sweep_matches_single_runs(ops, y0, np.pi / 100.0, 401, implicit_midpoint)
    # a one-slice stack takes the single-operator stepping
    _assert_sweep_matches_single_runs(ops[:1], y0, np.pi / 100.0, 401, implicit_midpoint)


def test_sweep_isolates_singular_and_overflowing_samples():
    dt = 0.1
    x0 = np.array([1e307, 1e306])
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ops = np.stack([
        -np.eye(2),                     # finite
        (2.0 / dt) * np.eye(2),         # I - dt/2 A exactly singular
        rot,                            # finite (norm-preserving)
        (100.0 / dt) * np.eye(2),       # Cayley factor -51/49: overflows
        -0.5 * np.eye(2) + 0.3 * rot,   # finite
    ])
    runs = _assert_sweep_matches_single_runs(ops, x0, dt, 100, implicit_midpoint)
    singular, overflow = runs[1], runs[3]
    assert singular.diverged and singular.first_bad_step == 1
    np.testing.assert_array_equal(singular.states[:, 0], x0)
    assert np.all(np.isnan(singular.states[:, 1:]))
    assert overflow.diverged and overflow.first_bad_step == 73
    assert np.all(np.isfinite(overflow.states[:, :73]))
    assert np.all(np.isnan(overflow.states[:, 73:]))
    for s in (0, 2, 4):
        assert not runs[s].diverged and np.all(np.isfinite(runs[s].states))


def test_sweep_validation():
    y0 = np.ones(2)
    with pytest.raises(ValueError):
        cayley_sweep(np.eye(2), y0, 0.1, 5)  # a matrix, not a stack
    with pytest.raises(ValueError):
        cayley_sweep(np.zeros((3, 3, 3)), y0, 0.1, 5)
    with pytest.raises(ValueError):
        cayley_sweep(np.full((2, 2, 2), np.nan), y0, 0.1, 5)
    with pytest.raises(ValueError, match=r"expected an \(S, n, n\) operator stack with "
                                         r"n = len\(x0\) = 3, got shape \(3, 3\)"):
        cayley_sweep(np.eye(3), np.ones(3), 0.1, 5)


# ----------------------------------------------------------------------
# doubling: once h states are known, one product with Phi^h writes the
# next h of them, x_{h+j} = Phi^h x_j, and Phi^2h = Phi^h Phi^h


def _stepwise_states(a, x0, dt, n_times):
    """The oracle: the Cayley map applied once per step."""
    eye = np.eye(len(x0))
    phi = np.linalg.solve(eye - 0.5 * dt * a, eye + 0.5 * dt * a)
    states = [x0]
    for _ in range(1, n_times):
        states.append(phi @ states[-1])
    return np.stack(states, axis=1)


def test_blocked_stepping_matches_stepwise_oracle_on_a_mass_form_heat_stack():
    # Galerkin heat generators in mass form (a Euclidean-orthonormal basis,
    # so the reduced mass U^T M U is not the identity), 251 times: the
    # largest power formed is Phi^128
    model = build_heat_model(60)
    rng = np.random.default_rng(718)
    u = np.linalg.qr(rng.standard_normal((len(model.mass), 10)))[0]
    mass = project_matrix(model.mass, u)
    q0 = np.linalg.solve(mass, u.T @ (model.mass @ heat_initial_state(model)))
    for mu in rng.uniform(0.1, 1.0, (6, 3)):
        # M qdot = A q integrated in standard form: the same Cayley map
        a = np.linalg.solve(mass, project_matrix(heat_operator(model, mu), u))
        traj = crank_nicolson(a, q0, 0.008, 251)
        expected = _stepwise_states(a, q0, 0.008, 251)
        np.testing.assert_allclose(traj.states, expected, rtol=0,
                                   atol=1e-12 * np.abs(q0).max())


def test_blocked_stepping_matches_stepwise_oracle_on_a_wave_block_stack():
    # symmetric wave generators at r = 10 (2r = 20), 401 times: the largest
    # power formed is Phi^256
    rng = np.random.default_rng(719)
    r = 10
    g = rng.standard_normal((3, r, r))
    t1 = np.moveaxis(g @ g.transpose(0, 2, 1) + np.eye(r), 0, 2)  # SPD slices
    h = rng.standard_normal((r, r))
    a2 = np.eye(r) + 0.05 * (h + h.T)
    mus = rng.uniform(0.8, 2.4, (3, 13))
    ops = block_operator(t1, a2, mus)
    y0 = rng.standard_normal(2 * r)
    model = RomModel(t1=t1, a2=a2, t1_structure="symmetric", a2_structure="symmetric")
    runs = cayley_sweep(ops, y0, np.pi / 100.0, 401)
    for s, run in enumerate(runs):
        expected = _stepwise_states(ops[s], y0, np.pi / 100.0, 401)
        np.testing.assert_allclose(run.states, expected, rtol=0,
                                   atol=1e-12 * np.abs(y0).max())
        energy = reduced_hamiltonian(model, mus[:, s], run.states)
        assert np.max(np.abs(energy - energy[0])) <= 1e-12 * energy[0]


@pytest.mark.parametrize("n_times", [1, 2, 3, 4, 5, 8, 9, 10, 11, 16, 17, 27, 33, 40, 64, 65,
                                     257])
def test_blocked_stepping_covers_every_block_remainder(n_times):
    # the products write blocks of 1, 2, 4, ... states: powers of two fill
    # the last block, 9, 17, 33, 65 and 257 leave it one state, and the
    # others leave it partly filled
    rng = np.random.default_rng(720)
    a = rng.standard_normal((4, 4, 4))
    ops = 0.5 * (a - a.transpose(0, 2, 1)) - 0.2 * np.eye(4)
    y0 = rng.standard_normal(4)
    runs = _assert_sweep_matches_single_runs(ops, y0, 0.1, n_times, implicit_midpoint)
    for op, run in zip(ops, runs):
        assert run.states.shape == (4, n_times)
        np.testing.assert_array_equal(run.states[:, 0], y0)
        np.testing.assert_allclose(run.states, _stepwise_states(op, y0, 0.1, n_times),
                                   rtol=0, atol=1e-13)


def test_overflow_inside_a_block_is_recorded_at_its_step():
    # 122 times: the last product writes steps 64-121 as Phi^64 x_j, and the
    # state (Cayley factor -51/49) overflows at step 73, inside that block
    dt, x0 = 0.1, np.array([1e307, 1e306])
    ops = np.stack([(100.0 / dt) * np.eye(2), -np.eye(2)])
    overflow, finite = _assert_sweep_matches_single_runs(ops, x0, dt, 122, implicit_midpoint)
    assert overflow.diverged and overflow.first_bad_step == 73
    assert np.all(np.isfinite(overflow.states[:, :73]))
    assert np.all(np.isnan(overflow.states[:, 73:]))
    assert not finite.diverged and np.all(np.isfinite(finite.states))


def test_divergence_is_the_step_where_the_state_overflows_not_a_power():
    # The Cayley factor is about -4.5e15, so Phi^32, which writes the steps
    # from 32 on, overflows while the state, from 1e-300, overflows at step 39
    dt = 0.1
    a = np.array([[(2.0 / dt) * (1.0 + 4e-16)]])
    traj = crank_nicolson(a, np.array([1e-300]), dt, 401)
    assert traj.diverged and traj.first_bad_step == 39
    assert np.all(np.isfinite(traj.states[:, :39]))
    assert np.all(np.isnan(traj.states[:, 39:]))
    np.testing.assert_array_equal(traj.states[:, :39],
                                  _stepwise_states(a, np.array([1e-300]), dt, 39))
    runs = _assert_sweep_matches_single_runs(np.stack([a, -np.eye(1)]), np.array([1e-300]),
                                             dt, 401, crank_nicolson)
    assert runs[0].first_bad_step == 39 and not runs[1].diverged


def test_a_power_that_overflows_leaves_a_finite_state_finite():
    # The first Cayley factor is about -5e15, so Phi^32 overflows and inf * 0
    # = NaN reaches the stepped states, yet the state itself stays finite
    dt, n_times = 0.1, 401
    a = np.diag([(2.0 / dt) * (1.0 + 4e-16), -1.0])
    traj = crank_nicolson(a, np.array([0.0, 1.0]), dt, n_times)
    assert not traj.diverged and traj.first_bad_step is None
    np.testing.assert_array_equal(traj.states[0], 0.0)
    decay = ((1.0 - dt / 2.0) / (1.0 + dt / 2.0)) ** np.arange(n_times)
    np.testing.assert_allclose(traj.states[1], decay, rtol=0, atol=1e-15)
    runs = _assert_sweep_matches_single_runs(np.stack([a, -np.eye(2)]), np.array([0.0, 1.0]),
                                             dt, n_times, crank_nicolson)
    assert not any(run.diverged for run in runs)

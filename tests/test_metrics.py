"""Error and drift metrics against explicit summation oracles."""

import numpy as np
import pytest

from topinf import (
    ReducedBasis,
    RomModel,
    Trajectory,
    hamiltonian_drift,
    projection_error,
    relative_l2,
    weighted_norm_sq,
)


def random_mass(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def loop_norm_sq(states, mass):
    states = np.atleast_2d(states.T).T
    total = 0.0
    for k in range(states.shape[1]):
        col = states[:, k]
        total += col @ mass @ col
    return total


def test_weighted_norm_matches_columnwise_loop():
    rng = np.random.default_rng(801)
    mass = random_mass(rng, 5)
    states = rng.standard_normal((5, 7))
    assert abs(weighted_norm_sq(states, mass) - loop_norm_sq(states, mass)) < 1e-10
    vec = rng.standard_normal(5)
    assert abs(weighted_norm_sq(vec, mass) - vec @ mass @ vec) < 1e-12


def test_relative_l2_matches_pooled_formula():
    rng = np.random.default_rng(802)
    mass = random_mass(rng, 4)
    refs = [rng.standard_normal((4, 6)) for _ in range(3)]
    cands = [ref + 0.01 * rng.standard_normal(ref.shape) for ref in refs]
    num = sum(loop_norm_sq(r - c, mass) for r, c in zip(refs, cands))
    den = sum(loop_norm_sq(r, mass) for r in refs)
    expected = np.sqrt(num / den)
    assert abs(relative_l2(refs, cands, mass) - expected) < 1e-12
    # a single matrix pair works without wrapping in a list
    assert abs(
        relative_l2(refs[0], cands[0], mass)
        - np.sqrt(loop_norm_sq(refs[0] - cands[0], mass) / loop_norm_sq(refs[0], mass))
    ) < 1e-12


def test_relative_l2_is_zero_for_identical_and_scales_linearly():
    rng = np.random.default_rng(803)
    mass = random_mass(rng, 4)
    ref = rng.standard_normal((4, 5))
    assert relative_l2(ref, ref.copy(), mass) == 0.0
    bump = rng.standard_normal(ref.shape)
    small = relative_l2(ref, ref + 1e-3 * bump, mass)
    large = relative_l2(ref, ref + 2e-3 * bump, mass)
    assert abs(large / small - 2.0) < 1e-9


def test_relative_l2_validation():
    mass = np.eye(3)
    ref = np.ones((3, 4))
    with pytest.raises(ValueError):
        relative_l2([ref, ref], [ref], mass)
    with pytest.raises(ValueError):
        relative_l2(ref, np.ones((3, 5)), mass)
    with pytest.raises(ValueError):
        relative_l2(np.zeros((3, 4)), ref, mass)


def test_projection_error_matches_reconstruction_oracle():
    rng = np.random.default_rng(804)
    n, r = 8, 3
    mass = random_mass(rng, n)
    chol = np.linalg.cholesky(mass)
    q, _ = np.linalg.qr(np.linalg.solve(chol.T, rng.standard_normal((n, r))))
    u = np.linalg.solve(chol.T, q)  # mass-orthonormal columns
    basis = ReducedBasis(u=u, weight=mass, kind="pod")
    snaps = [rng.standard_normal((n, 5)) for _ in range(2)]
    num = sum(loop_norm_sq(s - u @ (u.T @ mass @ s), mass) for s in snaps)
    den = sum(loop_norm_sq(s, mass) for s in snaps)
    expected = np.sqrt(num / den)
    assert abs(projection_error(snaps, basis) - expected) < 1e-11
    with pytest.raises(ValueError):
        projection_error([np.zeros((n, 4))], basis)


def test_projection_error_is_zero_in_span():
    rng = np.random.default_rng(805)
    n, r = 7, 3
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    basis = ReducedBasis(u=u, weight=np.eye(n), kind="pod")
    in_span = u @ rng.standard_normal((r, 6))
    assert projection_error(in_span, basis) < 1e-13


def test_projection_error_blockwise_for_canonical_bases():
    rng = np.random.default_rng(806)
    n, r = 6, 2
    mass = random_mass(rng, n)
    chol = np.linalg.cholesky(mass)
    q, _ = np.linalg.qr(np.linalg.solve(chol.T, rng.standard_normal((n, r))))
    u_half = np.linalg.solve(chol.T, q)
    u = np.block(
        [[u_half, np.zeros((n, r))], [np.zeros((n, r)), u_half]]
    )
    basis = ReducedBasis(u=u, weight=mass, kind="psd", u_half=u_half)
    snaps = rng.standard_normal((2 * n, 5))
    proj = u_half @ (u_half.T @ mass)
    recon = np.vstack([proj @ snaps[:n], proj @ snaps[n:]])
    num = loop_norm_sq(snaps[:n] - recon[:n], mass) + loop_norm_sq(
        snaps[n:] - recon[n:], mass
    )
    den = loop_norm_sq(snaps[:n], mass) + loop_norm_sq(snaps[n:], mass)
    expected = np.sqrt(num / den)
    assert abs(projection_error(snaps, basis) - expected) < 1e-11


def test_hamiltonian_drift_matches_manual_energies():
    rng = np.random.default_rng(807)
    base = rng.standard_normal((2, 2, 2))
    t1 = base + base.transpose(1, 0, 2)
    a2 = rng.standard_normal((2, 2))
    a2 = a2 + a2.T
    nu = rng.standard_normal(2)
    model = RomModel(t1=t1, a2=a2, t1_structure="symmetric", a2_structure="symmetric")
    states = rng.standard_normal((4, 6))
    pos = t1[:, :, 0] * nu[0] ** 2 + t1[:, :, 1] * nu[1] ** 2
    op = np.block([[pos, np.zeros((2, 2))], [np.zeros((2, 2)), a2]])
    h = 0.5 * np.array([states[:, k] @ op @ states[:, k] for k in range(6)])
    expected = np.abs(h - h[0])
    np.testing.assert_allclose(hamiltonian_drift(model, nu, states), expected, atol=1e-12)
    assert hamiltonian_drift(model, nu, states)[0] == 0.0
    traj = Trajectory(states=states, times=np.arange(6.0))
    np.testing.assert_array_equal(
        hamiltonian_drift(model, nu, traj), hamiltonian_drift(model, nu, states)
    )

"""Operator inference: objective oracles, recovery, equivalence, uniqueness.

The least-squares objective and its gradient are validated against brute
per-sample loops and finite differences, the normal/least-squares system
assemblies against independent Kronecker-product constructions, and every
solver against planted ground-truth operators.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topinf
from topinf import (
    InferenceData,
    NonUniqueSolutionError,
    ResourceLimitError,
    SingularMatrixError,
    assemble_lstsq_system,
    assemble_normal_system,
    compress,
    infer_lstsq,
    infer_normal,
    infer_symmetric,
    objective,
    objective_gradient,
    uniqueness_check,
)


def rel_err(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


def random_data(rng, r=3, p=2, nt=6, ns=5, tensor=None, noise=0.0):
    """Training data whose derivatives come from a planted tensor plus noise."""
    nus = rng.standard_normal((p, ns))
    ys = rng.standard_normal((r, nt, ns))
    if tensor is None:
        tensor = rng.standard_normal((r, r, p))
    zs = np.empty((r, nt, ns))
    for s in range(ns):
        op = sum(tensor[:, :, x] * nus[x, s] for x in range(p))
        zs[:, :, s] = op @ ys[:, :, s]
    if noise:
        zs = zs + noise * rng.standard_normal(zs.shape)
    return InferenceData(nus=nus, ys=ys, zs=zs), tensor


def brute_objective(tensor, data):
    total = 0.0
    for s in range(data.n_samples):
        op = np.zeros((data.r, data.r))
        for x in range(data.p):
            op += tensor[:, :, x] * data.nus[x, s]
        diff = op @ data.ys[:, :, s] - data.zs[:, :, s]
        total += 0.5 * np.sum(diff**2)
    return total


# ----------------------------------------------------------------------
# objective and gradient


def test_objective_matches_per_sample_loop():
    rng = np.random.default_rng(601)
    for _ in range(10):
        data, _ = random_data(rng, noise=0.5)
        t = rng.standard_normal((data.r, data.r, data.p))
        expected = brute_objective(t, data)
        assert abs(objective(t, data) - expected) <= 1e-12 * max(1.0, expected)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(603)
    data, _ = random_data(rng, r=2, p=2, nt=4, ns=4, noise=1.0)
    t = rng.standard_normal((2, 2, 2))
    grad = objective_gradient(t, data)
    eps = 1e-6
    for idx in np.ndindex(2, 2, 2):
        bump = np.zeros_like(t)
        bump[idx] = eps
        fd = (objective(t + bump, data) - objective(t - bump, data)) / (2.0 * eps)
        assert abs(grad[idx] - fd) < 1e-6 * max(1.0, abs(fd))


def test_objective_validates_tensor_shape():
    rng = np.random.default_rng(604)
    data, _ = random_data(rng)
    with pytest.raises(ValueError):
        objective(np.zeros((2, 2, 2)), data)
    with pytest.raises(ValueError):
        objective_gradient(np.zeros((3, 3, 3)), data)


# ----------------------------------------------------------------------
# system assembly vs. Kronecker oracles


def test_normal_system_matches_kronecker_oracle():
    rng = np.random.default_rng(605)
    # the second, study-sized case takes the contraction order the study takes
    for r, p, nt, ns in ((3, 2, 5, 6), (10, 3, 251, 8)):
        data, _ = random_data(rng, r=r, p=p, nt=nt, ns=ns, noise=0.7)
        bhat, chat = assemble_normal_system(data)
        b_oracle = np.zeros((r * p, r * p))
        c_oracle = np.zeros((r, r * p))
        for s in range(data.n_samples):
            nu = data.nus[:, s]
            y = data.ys[:, :, s]
            z = data.zs[:, :, s]
            b_oracle += np.kron(np.outer(nu, nu), y @ y.T)
            c_oracle += np.kron(nu[None, :], z @ y.T)
        assert rel_err(bhat, b_oracle) < 1e-12
        assert rel_err(chat, c_oracle) < 1e-12
        np.testing.assert_allclose(bhat, bhat.T, atol=1e-12 * np.max(np.abs(bhat)))


def test_lstsq_system_matches_kronecker_oracle():
    rng = np.random.default_rng(606)
    data, _ = random_data(rng, r=3, p=2, nt=5, ns=4, noise=0.7)
    d, rstack = assemble_lstsq_system(data)
    d_oracle = np.vstack(
        [np.kron(data.nus[:, s][None, :], data.ys[:, :, s].T) for s in range(data.n_samples)]
    )
    r_oracle = np.hstack([data.zs[:, :, s] for s in range(data.n_samples)])
    assert rel_err(d, d_oracle) < 1e-12
    assert rel_err(rstack, r_oracle) < 1e-12


def test_gram_of_tall_system_equals_normal_matrix():
    rng = np.random.default_rng(607)
    for _ in range(10):
        data, _ = random_data(
            rng,
            r=int(rng.integers(2, 7)),
            p=int(rng.integers(1, 4)),
            nt=int(rng.integers(3, 8)),
            ns=int(rng.integers(5, 9)),
            noise=1.0,
        )
        bhat, _ = assemble_normal_system(data)
        d, _ = assemble_lstsq_system(data)
        assert rel_err(d.T @ d, bhat) < 1e-12


# ----------------------------------------------------------------------
# planted-truth recovery


def test_unconstrained_solvers_recover_planted_tensor():
    rng = np.random.default_rng(609)
    # the last case, p = 1 and one sample, is assembled as a strided view
    # of its normal system, which the in-place solve cannot overwrite
    for r, p, ns in [(4, 3, 6)] * 5 + [(3, 1, 1)]:
        data, truth = random_data(rng, r=r, p=p, nt=6, ns=ns)
        for solver in (infer_normal, infer_lstsq):
            result = solver(data)
            assert rel_err(result.tensor, truth) < 1e-10
            assert result.residual < 1e-18 * max(1.0, brute_objective(0 * truth, data))
            assert result.stationarity < 1e-8
            assert result.cond >= 1.0 and np.isfinite(result.cond)
            assert not result.rank_deficient


def test_symmetric_solver_recovers_planted_symmetric_tensor():
    rng = np.random.default_rng(610)
    base = rng.standard_normal((3, 3, 2))
    truth = 0.5 * (base + base.transpose(1, 0, 2))
    data, _ = random_data(rng, r=3, p=2, nt=5, ns=5, tensor=truth)
    result = infer_symmetric(data)
    assert rel_err(result.tensor, truth) < 1e-10
    assert result.structure == "symmetric"
    np.testing.assert_array_equal(result.tensor, result.tensor.transpose(1, 0, 2))


@pytest.mark.parametrize(
    "r, p, nt, ns",
    [
        (4, 3, 6, 6),
        (3, 1, 6, 1),  # assembled as a strided view of the normal system
        (1, 2, 1, 6),  # likewise
    ],
)
def test_normal_solver_hands_the_in_place_solve_an_array_it_may_overwrite(
        monkeypatch, r, p, nt, ns):
    from topinf import inference

    rng = np.random.default_rng(612)
    data, truth = random_data(rng, r=r, p=p, nt=nt, ns=ns)
    seen = {}
    assemble, solve = inference.assemble_normal_system, inference.solve_sym

    def assemble_spy(d):
        seen["bhat"], chat = assemble(d)
        return seen["bhat"], chat

    def solve_spy(b, c):
        seen["b"] = b
        return solve(b, c)

    monkeypatch.setattr(inference, "assemble_normal_system", assemble_spy)
    monkeypatch.setattr(inference, "solve_sym", solve_spy)
    result = infer_normal(data)
    b, bhat = seen["b"], seen["bhat"]
    assert b.dtype == np.float64 and b.flags.c_contiguous and b.flags.writeable
    assert not np.shares_memory(b, data.ys) and not np.shares_memory(b, data.zs)
    # a C-contiguous assembly is handed over as it is, not copied
    assert (b is bhat) == bhat.flags.c_contiguous
    assert rel_err(result.tensor, truth) < 1e-10


def test_unconstrained_methods_agree_on_noisy_data():
    rng = np.random.default_rng(613)
    for _ in range(5):
        data, _ = random_data(rng, r=4, p=2, nt=6, ns=6, noise=0.3)
        t_normal = infer_normal(data).tensor
        t_lstsq = infer_lstsq(data).tensor
        assert rel_err(t_normal, t_lstsq) < 1e-8


def test_solutions_match_direct_solve_of_oracle_system():
    rng = np.random.default_rng(614)
    data, _ = random_data(rng, r=3, p=2, nt=5, ns=6, noise=0.5)
    bhat, chat = assemble_normal_system(data)
    merged = np.linalg.solve(bhat, chat.T).T  # cvec(T, 1, 2) rows
    expected = np.stack(
        [merged[:, x * data.r : (x + 1) * data.r] for x in range(data.p)], axis=2
    )
    assert rel_err(infer_normal(data).tensor, expected) < 1e-9
    assert rel_err(infer_lstsq(data).tensor, expected) < 1e-9


def kronecker_stationarity_solution(data):
    """Solve the full ``(r*r*p)^2`` constrained stationarity system directly.

    The symmetrized gradient condition reads, for every slice x,
    ``sum_s nu_xs sum_y nu_ys (T_y H_s + H_s T_y) = C_x + C_x^T``
    with ``H_s = Y_s Y_s^T`` and ``C_x = sum_s nu_xs Z_s Y_s^T``.  With
    column-major ``vec``, ``vec(A T B) = (B^T kron A) vec(T)``.
    """
    r, p = data.r, data.p
    eye = np.eye(r)
    b = np.zeros((r * r * p, r * r * p))
    c = np.zeros((r, r, p))
    for s in range(data.n_samples):
        nu = data.nus[:, s]
        h = data.ys[:, :, s] @ data.ys[:, :, s].T
        b += np.kron(np.outer(nu, nu), np.kron(h, eye) + np.kron(eye, h))
        c += (data.zs[:, :, s] @ data.ys[:, :, s].T)[:, :, None] * nu
    c = c + c.transpose(1, 0, 2)
    rhs = np.concatenate([c[:, :, x].ravel(order="F") for x in range(p)])
    t = np.linalg.solve(b, rhs)
    return np.stack([t[x * r * r:(x + 1) * r * r].reshape(r, r, order="F")
                     for x in range(p)], axis=2)


@pytest.mark.parametrize(
    "r, p, nt, ns",
    [
        (3, 2, 6, 6),
        (4, 2, 6, 6),
        (8, 3, 251, 8),  # study-sized
    ],
)
def test_symmetric_solver_matches_kronecker_stationarity_oracle(r, p, nt, ns):
    rng = np.random.default_rng(625)
    data, _ = random_data(rng, r=r, p=p, nt=nt, ns=ns, noise=1.0)
    expected = kronecker_stationarity_solution(data)
    assert rel_err(infer_symmetric(data).tensor, expected) < 1e-9


# ----------------------------------------------------------------------
# constrained solution properties


def test_symmetric_solution_is_a_constrained_minimum():
    # on data a symmetric model cannot fit exactly: the projected gradient
    # vanishes and random symmetric perturbations do not lower the objective
    # (the second, study-sized case takes the contraction order the study takes)
    rng = np.random.default_rng(615)
    for r, p, nt, ns in ((3, 2, 6, 6), (8, 3, 251, 8)):
        data, _ = random_data(rng, r=r, p=p, nt=nt, ns=ns, noise=1.0)
        result = infer_symmetric(data)
        grad = objective_gradient(result.tensor, data)
        projected = 0.5 * (grad + grad.transpose(1, 0, 2))
        scale = np.sqrt(np.sum(objective_gradient(0 * result.tensor, data) ** 2))
        assert np.sqrt(np.sum(projected**2)) < 1e-9 * scale
        assert result.stationarity < 1e-9 * scale
        value = objective(result.tensor, data)
        for _ in range(10):
            bump = rng.standard_normal(result.tensor.shape)
            bump = 0.5 * (bump + bump.transpose(1, 0, 2))
            bump *= 1e-3 / np.sqrt(np.sum(bump**2))
            assert objective(result.tensor + bump, data) >= value - 1e-12 * value


def test_constraint_costs_objective_value():
    rng = np.random.default_rng(616)
    data, _ = random_data(rng, r=3, p=2, nt=6, ns=6, noise=1.0)
    free = infer_lstsq(data).residual
    constrained = infer_symmetric(data).residual
    assert constrained >= free - 1e-12 * max(1.0, free)


def test_symmetric_solver_resource_cap(monkeypatch):
    from topinf import inference

    rng = np.random.default_rng(617)
    data, _ = random_data(rng, r=2, p=2)
    # the cap is read when the fit is called
    monkeypatch.setattr(inference, "SYMMETRIC_UNKNOWN_CAP", 5)
    with pytest.raises(ResourceLimitError):
        infer_symmetric(data)  # needs p * r * (r + 1) / 2 = 6
    monkeypatch.setattr(inference, "SYMMETRIC_UNKNOWN_CAP", 6)
    infer_symmetric(data)
    # the refusal reports the system's size and the fit's expected peak
    large, _ = random_data(rng, r=30, p=3)
    monkeypatch.setattr(inference, "SYMMETRIC_UNKNOWN_CAP", 1394)
    with pytest.raises(ResourceLimitError,
                       match=r"1395 unknowns \(dense system 14\.8 MiB, factored in place: "
                             r"fit peak about 17\.8 MiB\); cap is 1394"):
        infer_symmetric(large)


# ----------------------------------------------------------------------
# uniqueness diagnostics


def test_uniqueness_holds_on_generic_full_rank_data():
    rng = np.random.default_rng(618)
    data, _ = random_data(rng, r=4, p=3, nt=6, ns=6)
    report = uniqueness_check(data)
    assert report.unique
    assert report.feature_rank == 3 and report.snapshot_rank == 4


def test_full_ranks_do_not_make_the_fit_unique():
    # both factors have full rank, yet each sample's snapshots span only the
    # direction its feature selects: T_1 e_2 and T_2 e_1 are never observed,
    # so the design is deficient, the check says so, and infer_normal raises
    # the non-uniqueness error rather than failing in its solve
    nus = np.eye(2)
    ys = np.zeros((2, 3, 2))
    ys[0, :, 0] = [1.0, 2.0, 3.0]
    ys[1, :, 1] = [1.0, -1.0, 2.0]
    zs = np.stack([0.5 * ys[:, :, 0], -ys[:, :, 1]], axis=2)
    data = InferenceData(nus=nus, ys=ys, zs=zs)
    report = uniqueness_check(data)
    assert not report.unique
    assert (report.feature_rank, report.snapshot_rank) == (2, 2)
    assert (report.design_rank, report.design_required) == (2, 4)
    with pytest.raises(NonUniqueSolutionError) as exc:
        infer_normal(data)
    assert exc.value.report == report
    assert "design 2/4" in str(exc.value)
    assert infer_lstsq(data).rank_deficient


def test_too_few_samples_break_feature_rank():
    rng = np.random.default_rng(619)
    data, _ = random_data(rng, r=3, p=4, nt=8, ns=2)  # N_s < p
    report = uniqueness_check(data)
    assert not report.unique
    assert report.feature_rank == 2 and report.feature_required == 4
    assert report.snapshot_rank == 3  # snapshots are still fine
    with pytest.raises(NonUniqueSolutionError) as exc:
        infer_normal(data)
    assert exc.value.report.feature_rank == 2
    assert "features 2/4" in str(exc.value)


def test_subspace_confined_snapshots_break_snapshot_rank():
    rng = np.random.default_rng(620)
    r, p, nt, ns = 4, 2, 6, 5
    nus = rng.standard_normal((p, ns))
    subspace = np.linalg.qr(rng.standard_normal((r, 2)))[0]
    ys = np.einsum("ik,kas->ias", subspace, rng.standard_normal((2, nt, ns)))
    tensor = rng.standard_normal((r, r, p))
    zs = np.stack(
        [
            sum(tensor[:, :, x] * nus[x, s] for x in range(p)) @ ys[:, :, s]
            for s in range(ns)
        ],
        axis=2,
    )
    data = InferenceData(nus=nus, ys=ys, zs=zs)
    report = uniqueness_check(data)
    assert not report.unique
    assert report.snapshot_rank == 2 and report.snapshot_required == 4
    assert report.feature_rank == 2
    with pytest.raises(NonUniqueSolutionError):
        infer_normal(data)
    # the least-squares route still answers, flagged, with the minimum-norm fit
    result = infer_lstsq(data)
    assert result.rank_deficient
    d, rstack = assemble_lstsq_system(data)
    pinv_solution = np.linalg.pinv(d) @ rstack.T
    expected = np.stack(
        [pinv_solution.T[:, x * r : (x + 1) * r] for x in range(p)], axis=2
    )
    assert rel_err(result.tensor, expected) < 1e-8


def test_full_rank_design_too_ill_conditioned_for_the_normal_equations():
    # the design's singular values are 1 and 1e-9: full rank, so the fit is
    # unique, but the normal matrix squares them to a condition of 1e18 that
    # no equilibration removes (equal diagonal), so only the solve refuses
    rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    times = np.linalg.qr(np.random.default_rng(631).standard_normal((4, 2)))[0]
    ys = (rot @ np.diag([1.0, 1e-9]) @ times.T)[:, :, None]
    data = InferenceData(nus=np.ones((1, 1)), ys=ys, zs=-ys)
    report = uniqueness_check(data)
    assert report.unique and report.design_rank == 2
    with pytest.raises(SingularMatrixError):
        infer_normal(data)
    result = infer_lstsq(data)
    assert not result.rank_deficient
    assert rel_err(result.tensor[:, :, 0], -np.eye(2)) < 1e-6


# ----------------------------------------------------------------------
# compression: per-sample QR factors in place of the trajectories


def compression_cases():
    """``(name, data)`` pairs covering the shapes the compression must keep."""
    rng = np.random.default_rng(640)
    cases = [("random", random_data(rng, r=4, p=3, nt=12, ns=5, noise=0.5)[0]),
             ("exact", random_data(rng, r=4, p=2, nt=9, ns=4)[0]),
             ("times_below_r", random_data(rng, r=5, p=2, nt=3, ns=6, noise=0.5)[0]),
             ("times_equal_r", random_data(rng, r=4, p=2, nt=4, ns=5, noise=0.5)[0]),
             ("p1", random_data(rng, r=4, p=1, nt=10, ns=3, noise=0.5)[0]),
             ("one_sample", random_data(rng, r=3, p=1, nt=8, ns=1, noise=0.5)[0])]
    # rank-deficient snapshots: each sample's states confined to a plane of R^4
    r, nt, ns = 4, 10, 5
    plane = np.linalg.qr(rng.standard_normal((r, 2)))[0]
    ys = np.einsum("ik,kas->ias", plane, rng.standard_normal((2, nt, ns)))
    cases.append(("rank_deficient", InferenceData(
        nus=rng.standard_normal((2, ns)), ys=ys, zs=rng.standard_normal((r, nt, ns)))))
    # the wave a2 shape: one feature, equal to one for every sample
    data, _ = random_data(rng, r=4, p=1, nt=15, ns=6, noise=0.5)
    cases.append(("wave_a2", InferenceData(nus=np.ones((1, 6)), ys=data.ys, zs=data.zs)))
    return cases


CASES = compression_cases()


def fit_or_error(fit, data):
    try:
        return fit(data)
    except (NonUniqueSolutionError, SingularMatrixError) as exc:
        return type(exc)


@pytest.mark.parametrize("name, data", CASES, ids=[name for name, _ in CASES])
def test_compressed_data_give_the_same_systems_objective_and_checks(name, data):
    small = compress(data)
    k = min(data.n_times, data.r)
    assert small.ys.shape == (data.r, k + 1, data.n_samples)
    assert np.all(small.ys[:, k] == 0.0) and np.all(small.zs[1:, k] == 0.0)
    assert np.array_equal(small.nus, data.nus)
    for got, want in zip(assemble_normal_system(small), assemble_normal_system(data)):
        assert rel_err(got, want) < 1e-13
    # the designs' singular values, zero-padded to one length (either may have fewer rows)
    sv, small_sv = (np.linalg.svd(assemble_lstsq_system(d)[0], compute_uv=False)
                    for d in (data, small))
    n = max(sv.size, small_sv.size)
    padded = [np.pad(v, (0, n - v.size)) for v in (sv, small_sv)]
    assert np.max(np.abs(padded[1] - padded[0])) <= 1e-13 * sv[0]
    assert uniqueness_check(small) == uniqueness_check(data)
    rng = np.random.default_rng(641)
    for _ in range(3):
        t = rng.standard_normal((data.r, data.r, data.p))
        want = objective(t, data)
        assert abs(objective(t, small) - want) <= 1e-13 * want
        assert rel_err(objective_gradient(t, small), objective_gradient(t, data)) < 1e-13


@pytest.mark.parametrize("name, data", CASES, ids=[name for name, _ in CASES])
def test_every_solver_fits_compressed_data_as_it_fits_the_data(name, data):
    small = compress(data)
    zero = np.zeros((data.r, data.r, data.p))
    scale = objective(zero, data)
    gradient_scale = float(np.linalg.norm(objective_gradient(zero, data)))
    for fit in (infer_normal, infer_lstsq, infer_symmetric):
        want, got = fit_or_error(fit, data), fit_or_error(fit, small)
        if isinstance(want, type):
            assert got is want, (fit.__name__, got)
            continue
        assert rel_err(got.tensor, want.tensor) < 1e-12, fit.__name__
        assert got.rank_deficient == want.rank_deficient
        if np.isfinite(want.cond):
            assert abs(got.cond - want.cond) <= 1e-10 * want.cond, fit.__name__
        else:
            assert not np.isfinite(got.cond)
        assert abs(got.residual - want.residual) <= 1e-12 * scale, fit.__name__
        assert abs(got.stationarity - want.stationarity) <= 1e-12 * gradient_scale, fit.__name__


def test_compressed_exact_data_leave_a_roundoff_residual():
    rng = np.random.default_rng(642)
    for r, p, nt, ns in ((4, 2, 9, 4), (6, 3, 40, 5), (5, 1, 30, 2)):
        data, truth = random_data(rng, r=r, p=p, nt=nt, ns=ns)
        small = compress(data)
        scale = objective(np.zeros((r, r, p)), data)
        assert objective(truth, small) <= 1e-18 * scale
        for fit in (infer_normal, infer_lstsq):
            assert fit(small).residual <= 1e-18 * scale


@pytest.mark.parametrize("name, data", CASES, ids=[name for name, _ in CASES])
def test_compressing_compressed_data_changes_nothing_beyond_rounding(name, data):
    once = compress(data)
    twice = compress(once)
    if data.n_times >= data.r:
        assert twice.ys.shape == once.ys.shape
    for got, want in zip(assemble_normal_system(twice), assemble_normal_system(once)):
        assert rel_err(got, want) < 1e-13
    t = np.random.default_rng(643).standard_normal((data.r, data.r, data.p))
    want = objective(t, once)
    assert abs(objective(t, twice) - want) <= 1e-13 * want
    assert rel_err(objective_gradient(t, twice), objective_gradient(t, once)) < 1e-13


# ----------------------------------------------------------------------
# data container validation


def test_inference_data_validation():
    rng = np.random.default_rng(621)
    good = dict(
        nus=rng.standard_normal((2, 4)),
        ys=rng.standard_normal((3, 5, 4)),
        zs=rng.standard_normal((3, 5, 4)),
    )
    data = InferenceData(**good)
    assert (data.r, data.p, data.n_samples, data.n_times) == (3, 2, 4, 5)
    with pytest.raises(ValueError):
        InferenceData(**{**good, "nus": np.zeros(4)})
    with pytest.raises(ValueError):
        InferenceData(**{**good, "ys": np.zeros((3, 5))})
    with pytest.raises(ValueError):
        InferenceData(**{**good, "zs": np.zeros((3, 5, 3))})  # sample mismatch
    with pytest.raises(ValueError):
        InferenceData(**{**good, "zs": np.zeros((3, 4, 4))})  # time mismatch
    with pytest.raises(ValueError):
        InferenceData(**{**good, "zs": np.zeros((2, 5, 4))})  # state mismatch
    with pytest.raises(ValueError):
        InferenceData(**{**good, "nus": np.full((2, 4), np.nan)})


# ----------------------------------------------------------------------
# symmetric system: restriction of the normal equations


def capture_symmetric_system(monkeypatch, data):
    """The ``(b, c)`` that :func:`infer_symmetric` hands to ``solve_sym``.

    The solve overwrites ``b``, so the spy records copies taken before the call.
    """
    from topinf import inference

    seen = {}
    solve = inference.solve_sym

    def spy(b, c):
        seen["b"], seen["c"] = b.copy(), np.array(c)
        return solve(b, c)

    monkeypatch.setattr(inference, "solve_sym", spy)
    infer_symmetric(data)
    return seen["b"], seen["c"]


def slice_basis(r, p):
    """``P``: column ``(x, k)`` is ``vec_F`` of ``w_k (e_a e_b^T + e_b e_a^T)`` in slice x."""
    a, b = np.triu_indices(r)
    m = a.size
    basis = np.zeros((r * r * p, m * p))
    for x in range(p):
        for k in range(m):
            e = np.zeros((r, r))
            e[a[k], b[k]] += 1.0
            e[b[k], a[k]] += 1.0
            e *= 0.5 if a[k] == b[k] else np.sqrt(0.5)
            basis[x * r * r:(x + 1) * r * r, x * m + k] = e.ravel(order="F")
    return basis


@pytest.mark.parametrize("r, p", [(3, 2), (4, 2), (5, 1), (2, 3)])
def test_symmetric_system_is_the_kronecker_system_restricted_to_slices(monkeypatch, r, p):
    rng = np.random.default_rng(626)
    data, _ = random_data(rng, r=r, p=p, nt=7, ns=6, noise=1.0)
    b, c = capture_symmetric_system(monkeypatch, data)
    eye = np.eye(r)
    k_full = np.zeros((r * r * p, r * r * p))
    c_full = np.zeros((r, r, p))
    for s in range(data.n_samples):
        nu = data.nus[:, s]
        h = data.ys[:, :, s] @ data.ys[:, :, s].T
        k_full += np.kron(np.outer(nu, nu), np.kron(h, eye) + np.kron(eye, h))
        c_full += (data.zs[:, :, s] @ data.ys[:, :, s].T)[:, :, None] * nu
    basis = slice_basis(r, p)
    vec_c = np.concatenate([c_full[:, :, x].ravel(order="F") for x in range(p)])
    assert rel_err(b, 0.5 * basis.T @ k_full @ basis) < 1e-14
    assert rel_err(c, basis.T @ vec_c) < 1e-14


def test_symmetric_system_couples_only_pairs_that_share_an_index(monkeypatch):
    rng = np.random.default_rng(627)
    r, p = 6, 2
    data, _ = random_data(rng, r=r, p=p, nt=7, ns=6, noise=1.0)
    b, _ = capture_symmetric_system(monkeypatch, data)
    a, bb = np.triu_indices(r)
    share = ((a[:, None] == a[None, :]) | (a[:, None] == bb[None, :])
             | (bb[:, None] == a[None, :]) | (bb[:, None] == bb[None, :]))
    block = np.broadcast_to(share[None, :, None, :], (p, a.size, p, a.size))
    system = b.reshape(p, a.size, p, a.size)
    assert np.all(system[~block] == 0.0)
    assert np.all(system[block] != 0.0)


def test_symmetric_fit_peak_memory_stays_near_its_system():
    import tracemalloc

    rng = np.random.default_rng(628)
    r, p = 30, 3
    infer_symmetric(random_data(rng, r=2, p=1)[0])  # first-call set-up outside the trace
    data, _ = random_data(rng, r=r, p=p, nt=251, ns=8, noise=1.0)
    system_bytes = 8 * (p * r * (r + 1) // 2) ** 2
    tracemalloc.start()
    try:
        infer_symmetric(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the assembled system, equilibrated and factored in place by the solver,
    # and at most a tile and a diagonal block of scratch (1.076 at NumPy 2.4)
    assert peak <= 1.1 * system_bytes


def test_symmetric_system_assembly_holds_only_its_system(monkeypatch):
    # the scatters run one feature block at a time: when the solver is
    # handed the system, the assembly's peak is the system and one block's
    # index arrays (1.053 at NumPy 2.4; 1.156 with whole-system scatters)
    import tracemalloc

    from topinf import inference

    class Handed(Exception):
        pass

    def handed(b, c):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise Handed

    rng = np.random.default_rng(630)
    r, p = 30, 3
    data, _ = random_data(rng, r=r, p=p, nt=251, ns=8, noise=1.0)
    monkeypatch.setattr(inference, "solve_sym", handed)
    peaks = []
    tracemalloc.start()
    try:
        with pytest.raises(Handed):
            infer_symmetric(data)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 1.06 * 8 * (p * r * (r + 1) // 2) ** 2


_RESIDENT_FIT_PEAK = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from topinf import InferenceData, infer_symmetric

def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ":"))

def data(rng, r, p, nt, ns):
    return InferenceData(nus=rng.standard_normal((p, ns)), ys=rng.standard_normal((r, nt, ns)),
                         zs=rng.standard_normal((r, nt, ns)))

rng = np.random.default_rng(629)
r, p = 30, 3
infer_symmetric(data(rng, 15, 3, 40, 8))  # imports and every code path, two blocks
fit = data(rng, r, p, 251, 8)
before = status("VmRSS")
infer_symmetric(fit)
print((status("VmHWM") - before) / (8 * (p * r * (r + 1) // 2) ** 2))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM (Linux)")
def test_symmetric_fit_resident_peak_stays_near_its_system():
    # tracemalloc does not see the buffers NumPy's LAPACK wrappers take from
    # malloc; the process's high-water mark does.  Growth above the resident
    # set just before the fit, in a fresh process: an overestimate if any
    # earlier peak was higher.
    src = str(Path(topinf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _RESIDENT_FIT_PEAK, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert float(done.stdout) <= 1.25  # 1.109 at NumPy 2.4

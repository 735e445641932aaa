"""Acceptance suite: one check per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each criterion prints ``[criterion N] <what it checks>: PASS/FAIL (<measured
values>)`` and then asserts.  The two full default experiments (heat and
wave) run once per session and back several criteria.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg as la

from topinf import (
    InferenceData,
    NonUniqueSolutionError,
    assemble_lstsq_system,
    assemble_normal_system,
    build_heat_model,
    crank_nicolson,
    cvec,
    default_config,
    double_contract,
    frobenius,
    heat_features,
    heat_initial_state,
    heat_operator,
    implicit_midpoint,
    infer_lstsq,
    infer_normal,
    infer_symmetric,
    intrusive_project,
    make_rng,
    mode3_product,
    outer,
    run_pipeline,
    rvec,
    sample_conductivities,
    swap_axes,
    uniqueness_check,
    weighted_pod,
)
from topinf.basis import exact_reduced_derivative, project_snapshots


def report(num, description, passed, detail):
    line = f"[criterion {num}] {description}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def rel(actual, expected):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)))) / scale


def frob_dist(a, b):
    denom = float(np.sqrt(np.sum(np.asarray(b) ** 2)))
    return float(np.sqrt(np.sum((np.asarray(a) - np.asarray(b)) ** 2))) / max(denom, 1e-300)


def planted_data(rng, r, p, nt, ns, noise=0.0):
    nus = rng.standard_normal((p, ns))
    ys = rng.standard_normal((r, nt, ns))
    tensor = rng.standard_normal((r, r, p))
    zs = np.stack(
        [mode3_product(tensor, nus[:, s]) @ ys[:, :, s] for s in range(ns)], axis=2
    )
    if noise:
        zs = zs + noise * rng.standard_normal(zs.shape)
    return InferenceData(nus=nus, ys=ys, zs=zs), tensor


@pytest.fixture(scope="module")
def wave_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("wave_default")
    started = time.perf_counter()
    manifest = run_pipeline(default_config("wave1d"), outdir)
    return outdir, manifest, time.perf_counter() - started


@pytest.fixture(scope="module")
def heat_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("heat_default")
    started = time.perf_counter()
    manifest = run_pipeline(default_config("heat1d"), outdir)
    return outdir, manifest, time.perf_counter() - started


def test_criterion_1_tensor_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(100):
        m, n, k, q, p = rng.integers(2, 5, size=5)
        # trace inner product moves a factor to the other side as a transpose
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, k))
        c = rng.standard_normal((m, k))
        worst = max(worst, rel(frobenius(a @ b, c), frobenius(a, c @ b.T)))
        # contracting features inside one slot equals an outer product outside
        t = rng.standard_normal((m, q, p))
        nu = rng.standard_normal(p)
        w = rng.standard_normal((m, q))
        worst = max(worst, rel(frobenius(mode3_product(t, nu), w), frobenius(t, outer(w, nu))))
        # evaluate-multiply-outer collapses to one double contraction
        bmat = rng.standard_normal((q, k))
        lhs = outer(mode3_product(t, nu) @ bmat, nu)
        rhs = double_contract(t, outer(nu, outer(bmat, nu)))
        worst = max(worst, rel(lhs, rhs))
        # a double contraction is matrix multiplication of the vectorizations
        x = rng.standard_normal((p, q, n, k))
        lhs = cvec(double_contract(t, x), 1, 2)
        rhs = cvec(t, 1, 2) @ rvec(cvec(x, 2, 3), 0, 1)
        worst = max(worst, rel(lhs, rhs))
        # Kronecker products are iterated vectorizations of outer products
        worst = max(worst, rel(np.kron(a, bmat), rvec(rvec(outer(a, bmat), 1, 3), 0, 2)))
        cmat3 = rng.standard_normal((n, m))
        triple = rvec(
            rvec(rvec(rvec(outer(a, outer(bmat, cmat3)), 3, 5), 2, 4), 1, 3), 0, 2
        )
        worst = max(worst, rel(np.kron(np.kron(a, bmat), cmat3), triple))
        # row- and column-wise merges exchange under an axis swap
        t4 = rng.standard_normal((m, n, q, k))
        for i, j in ((0, 1), (1, 3), (0, 2)):
            worst = max(worst, rel(rvec(swap_axes(t4, i, j), i, j), cvec(t4, i, j)))
        # full vectorizations and the rank-one Kronecker identity
        worst = max(worst, rel(cvec(a, 0, 1), a.ravel(order="F")))
        worst = max(worst, rel(rvec(a, 0, 1), a.ravel(order="C")))
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        worst = max(worst, rel(cvec(outer(u, v), 0, 1), np.kron(v, u)))
    elapsed = time.perf_counter() - started
    report(
        1,
        "tensor contraction/vectorization identities, 100 random instances each",
        worst <= 1e-12 and elapsed < 5.0,
        f"max rel err {worst:.2e} vs 1e-12, {elapsed:.2f}s vs 5s",
    )


def test_criterion_2_solver_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20260826)
    worst_pair = 0.0
    worst_gram = 0.0
    for _ in range(25):
        r = int(rng.integers(2, 9))
        p = int(rng.integers(1, 5))
        ns = p + 2 + int(rng.integers(0, 3))
        nt = r + int(rng.integers(0, 4))  # enough time points for full rank
        data, _ = planted_data(rng, r, p, nt, ns, noise=0.3)
        worst_pair = max(
            worst_pair, frob_dist(infer_normal(data).tensor, infer_lstsq(data).tensor)
        )
        d, _ = assemble_lstsq_system(data)
        bhat, _ = assemble_normal_system(data)
        worst_gram = max(worst_gram, rel(d.T @ d, bhat))
    elapsed = time.perf_counter() - started
    report(
        2,
        "normal-equations and least-squares fits agree; Gram matrix identity",
        worst_pair <= 1e-8 and worst_gram <= 1e-12 and elapsed < 10.0,
        f"max fit distance {worst_pair:.2e} vs 1e-8, "
        f"max Gram deviation {worst_gram:.2e} vs 1e-12, {elapsed:.2f}s vs 10s",
    )


def test_criterion_3_exact_derivative_recovery():
    started = time.perf_counter()
    cfg = default_config("heat1d")
    model = build_heat_model(101, cfg.breakpoints)  # 100 interior nodes
    x0 = heat_initial_state(model)
    rng = make_rng(cfg.seed, 0)
    params = sample_conductivities(rng, 10, 3, cfg.param_lo, cfg.param_hi)
    dt, n_times = 0.01, 201
    snapshots = [
        crank_nicolson(
            np.linalg.solve(model.mass, heat_operator(model, params[:, s])), x0, dt, n_times
        ).states
        for s in range(10)
    ]
    basis_full = weighted_pod(snapshots, model.mass, 6)
    worst = 0.0
    for r in (4, 6):
        b = basis_full.truncate(r)
        reduced = project_snapshots(b, snapshots)
        derivs = [
            exact_reduced_derivative(b, heat_operator(model, params[:, s]), reduced[s])
            for s in range(10)
        ]
        data = InferenceData(
            nus=np.column_stack([heat_features(params[:, s]) for s in range(10)]),
            ys=np.stack(reduced, axis=2),
            zs=np.stack(derivs, axis=2),
        )
        learned = infer_symmetric(data).tensor
        reference = intrusive_project(-model.stiffness, b)
        worst = max(worst, frob_dist(learned, reference))
    elapsed = time.perf_counter() - started
    report(
        3,
        "symmetry-constrained fit on exact derivatives recovers the projected tensor",
        worst <= 1e-8 and elapsed < 30.0,
        f"max distance {worst:.2e} vs 1e-8 (r=4,6), {elapsed:.2f}s vs 30s",
    )


def test_criterion_4_uniqueness_diagnostics():
    started = time.perf_counter()
    rng = np.random.default_rng(20260827)
    # fewer samples than parameter features
    scarce, _ = planted_data(rng, r=3, p=4, nt=8, ns=2)
    scarce_report = uniqueness_check(scarce)
    scarce_raised = False
    try:
        infer_normal(scarce)
    except NonUniqueSolutionError:
        scarce_raised = True
    # snapshots confined to a low-dimensional subspace
    r, p, nt, ns = 4, 2, 6, 6
    nus = rng.standard_normal((p, ns))
    span = np.linalg.qr(rng.standard_normal((r, 2)))[0]
    ys = np.einsum("ik,kas->ias", span, rng.standard_normal((2, nt, ns)))
    tensor = rng.standard_normal((r, r, p))
    zs = np.stack(
        [mode3_product(tensor, nus[:, s]) @ ys[:, :, s] for s in range(ns)], axis=2
    )
    confined = InferenceData(nus=nus, ys=ys, zs=zs)
    confined_report = uniqueness_check(confined)
    confined_raised = False
    try:
        infer_normal(confined)
    except NonUniqueSolutionError:
        confined_raised = True
    elapsed = time.perf_counter() - started
    passed = (
        not scarce_report.unique
        and scarce_raised
        and not confined_report.unique
        and confined_raised
    )
    report(
        4,
        "uniqueness check flags deficient features and confined snapshots",
        passed,
        f"feature rank {scarce_report.feature_rank}/{scarce_report.feature_required}, "
        f"snapshot rank {confined_report.snapshot_rank}/"
        f"{confined_report.snapshot_required}, both raised, {elapsed:.2f}s",
    )


def test_criterion_5_structured_wave_fits_conserve_energy(wave_run):
    _, manifest, elapsed = wave_run
    sym = manifest["drift_max"]["symmetric_r10"]
    intr = manifest["drift_max"]["intrusive_r10"]
    report(
        5,
        "structured wave fits keep relative energy drift at most 1e-9 (r=10)",
        sym <= 1e-9 and intr <= 1e-9 and elapsed < 60.0,
        f"constrained fit {sym:.2e}, intrusive {intr:.2e} vs 1e-9, "
        f"{elapsed:.1f}s vs 60s",
    )


def test_criterion_6_heat_test_error_at_largest_basis(heat_run):
    _, manifest, elapsed = heat_run
    proj = manifest["projection"]["r10_test"]
    errs = {m: manifest["errors"][f"{m}_r10_test"] for m in ("normal", "lstsq")}
    passed = all(e <= 0.01 and e <= 3.0 * proj for e in errs.values()) and elapsed < 120.0
    report(
        6,
        "heat test error at r=10 is at most 1% and within 3x the projection error",
        passed,
        f"normal {errs['normal']:.2e}, lstsq {errs['lstsq']:.2e} vs 1e-2, "
        f"projection {proj:.2e}, {elapsed:.1f}s vs 120s",
    )


def test_criterion_7_unconstrained_wave_fit_drifts(wave_run):
    _, manifest, elapsed = wave_run
    drift = manifest["drift_max"]["lstsq_r10"]
    report(
        7,
        "unconstrained wave fit shows nonzero energy drift (above 1e-6)",
        drift > 1e-6 and elapsed < 60.0,
        f"drift {drift:.2e} vs 1e-6 floor, {elapsed:.1f}s vs 60s",
    )


def test_criterion_8_integrator_checks():
    started = time.perf_counter()
    omega = 1.3
    a = np.array([[0.0, 1.0], [-(omega**2), 0.0]])
    traj = implicit_midpoint(a, np.array([1.0, 0.4]), 0.01, 10001)
    energy = 0.5 * (omega**2 * traj.states[0] ** 2 + traj.states[1] ** 2)
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])

    rng = np.random.default_rng(20260828)
    sym = rng.standard_normal((3, 3))
    gen = -(sym @ sym.T) - 0.5 * np.eye(3)  # symmetric, hence diagonalizable
    q0 = rng.standard_normal(3)
    exact = la.expm(gen) @ q0
    errors = [
        float(np.linalg.norm(crank_nicolson(gen, q0, 1.0 / s, s + 1).states[:, -1] - exact))
        for s in (50, 100)
    ]
    ratio = errors[0] / errors[1]
    elapsed = time.perf_counter() - started
    report(
        8,
        "midpoint conserves the oscillator invariant; trapezoidal rule is order 2",
        drift <= 1e-12 and abs(ratio - 4.0) <= 0.3 and elapsed < 30.0,
        f"invariant drift {drift:.2e} vs 1e-12 over 1e4 steps, "
        f"halving ratio {ratio:.3f} vs 4 +- 0.3, {elapsed:.2f}s",
    )


def test_criterion_9_pipeline_reruns_are_byte_identical(heat_run, tmp_path):
    outdir, _, _ = heat_run
    started = time.perf_counter()
    rerun = tmp_path / "rerun"
    run_pipeline(default_config("heat1d"), rerun)

    def files(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"  # timings only
        }

    first, second = files(outdir), files(rerun)
    same_names = first.keys() == second.keys()
    diffs = [k for k in first if same_names and first[k] != second[k]]
    elapsed = time.perf_counter() - started
    report(
        9,
        "pipeline reruns with the same configuration and seed match byte for byte",
        same_names and not diffs,
        f"{len(first)} artifacts compared, {len(diffs)} differ, {elapsed:.1f}s",
    )

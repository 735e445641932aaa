"""Reduced bases: weighted orthonormality, optimality, block structure.

The projection error of a weighted POD basis on its own training data has
a closed form in the singular values of the weighted snapshot stack; that
identity is the main oracle here.  The block basis is checked for
equivariance with the canonical symplectic matrix, and the streamed POD
(sets reduced group by group) against the POD of the pooled sets.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from topinf import (
    build_heat_model,
    build_wave_model,
    canonical_j,
    crank_nicolson,
    default_config,
    estimate_time_derivative,
    exact_reduced_derivative,
    heat_initial_state,
    heat_operator,
    load_matrix,
    projection_error,
    project_snapshots,
    psd_cotangent_lift,
    weighted_pod,
)
from topinf import basis as basis_module, pipeline
from topinf.linalg import blas_threads, cholesky_upper


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, cond, n)) @ q.T


def make_snapshots(rng, n, n_sets=3, n_cols=7):
    return [rng.standard_normal((n, n_cols)) for _ in range(n_sets)]


def test_pod_basis_is_mass_orthonormal():
    rng = np.random.default_rng(501)
    for _ in range(5):
        n, r = 12, 4
        mass = random_spd(rng, n)
        basis = weighted_pod(make_snapshots(rng, n), mass, r)
        assert basis.kind == "pod" and basis.r == r
        gram = basis.u.T @ mass @ basis.u
        np.testing.assert_allclose(gram, np.eye(r), atol=1e-12)


def test_projection_error_matches_singular_value_identity():
    # on the training pool: err^2 == 1 - (sum of leading r sv^2) / (sum of all sv^2)
    rng = np.random.default_rng(502)
    n = 15
    mass = random_spd(rng, n)
    snaps = make_snapshots(rng, n, n_sets=2, n_cols=6)
    for r in (1, 3, 5):
        basis = weighted_pod(snaps, mass, r)
        sv = basis.singular_values
        expected = np.sqrt(1.0 - np.sum(sv[:r] ** 2) / np.sum(sv**2))
        assert abs(projection_error(snaps, basis) - expected) < 1e-10


def test_pod_bases_are_nested():
    rng = np.random.default_rng(503)
    mass = random_spd(rng, 10)
    snaps = make_snapshots(rng, 10)
    full = weighted_pod(snaps, mass, 6)
    for r in (1, 3, 6):
        sub = full.truncate(r)
        np.testing.assert_array_equal(sub.u, full.u[:, :r])
        np.testing.assert_array_equal(sub.singular_values, full.singular_values)
    with pytest.raises(ValueError):
        full.truncate(0)
    with pytest.raises(ValueError):
        full.truncate(7)


def test_pod_signs_are_deterministic():
    rng = np.random.default_rng(504)
    mass = random_spd(rng, 9)
    snaps = make_snapshots(rng, 9)
    a = weighted_pod(snaps, mass, 4)
    b = weighted_pod([s.copy() for s in snaps], mass.copy(), 4)
    np.testing.assert_array_equal(a.u, b.u)
    # convention: the largest-magnitude entry of each weighted mode is positive
    chol = cholesky_upper(mass)
    weighted_modes = chol @ a.u
    for col in range(4):
        lead = np.argmax(np.abs(weighted_modes[:, col]))
        assert weighted_modes[lead, col] > 0.0


def test_pod_rejects_rank_deficient_requests():
    rng = np.random.default_rng(505)
    mass = np.eye(8)
    base = rng.standard_normal((8, 2))
    snaps = [base @ rng.standard_normal((2, 5))]  # rank 2 stack
    with pytest.raises(ValueError, match="rank"):
        weighted_pod(snaps, mass, 3)
    weighted_pod(snaps, mass, 2)  # at the rank is fine


def test_pod_input_validation():
    rng = np.random.default_rng(506)
    with pytest.raises(ValueError):
        weighted_pod([], np.eye(3), 1)
    with pytest.raises(ValueError):
        weighted_pod([rng.standard_normal(4)], np.eye(4), 1)  # not a matrix
    with pytest.raises(ValueError):
        weighted_pod([rng.standard_normal((4, 3))], np.eye(5), 1)  # wrong mass
    with pytest.raises(ValueError):
        weighted_pod([rng.standard_normal((4, 3))], np.eye(4), 0)


def test_pod_matches_full_svd_oracle_on_a_study_stack():
    # the basis comes from the SVD of a QR factor of the weighted stack; on a
    # heat1d training stack of study size (202 x 5,020) it must match the
    # basis taken from the full SVD of the weighted stack itself
    model = build_heat_model(201)
    x0 = heat_initial_state(model)
    rng = np.random.default_rng(509)
    snaps = [crank_nicolson(np.linalg.solve(model.mass, heat_operator(
                                model, np.exp(rng.uniform(np.log(0.1), 0.0, 3)))),
                            x0, 0.008, 251).states for _ in range(20)]
    r = 10
    basis = weighted_pod(snaps, model.mass, r)

    chol = cholesky_upper(model.mass)
    u_tilde, svals, _ = np.linalg.svd(chol @ np.hstack(snaps), full_matrices=False)
    u_r = u_tilde[:, :r] * np.sign(u_tilde[np.argmax(np.abs(u_tilde[:, :r]), axis=0),
                                           np.arange(r)])
    oracle = np.linalg.solve(chol, u_r)
    np.testing.assert_allclose(basis.singular_values, svals, rtol=0,
                               atol=1e-12 * svals[0])
    np.testing.assert_allclose(basis.singular_values[:r], svals[:r], rtol=1e-12)
    np.testing.assert_allclose(basis.u, oracle, rtol=0, atol=1e-10 * np.max(np.abs(oracle)))


def test_pod_rejects_non_finite_snapshots():
    rng = np.random.default_rng(510)
    for bad in (np.nan, np.inf):
        snaps = make_snapshots(rng, 6)
        snaps[1][2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            weighted_pod(snaps, np.eye(6), 2)


def test_block_basis_structure_and_equivariance():
    rng = np.random.default_rng(507)
    n, r = 10, 3
    mass = random_spd(rng, n)
    qs = make_snapshots(rng, n, 2, 6)
    ps = make_snapshots(rng, n, 2, 6)
    basis = psd_cotangent_lift(qs, ps, mass, r)
    assert basis.kind == "psd" and basis.r == r
    np.testing.assert_array_equal(basis.u[:n, :r], basis.u_half)
    np.testing.assert_array_equal(basis.u[n:, r:], basis.u_half)
    np.testing.assert_array_equal(basis.u[:n, r:], np.zeros((n, r)))
    gram = basis.u_half.T @ mass @ basis.u_half
    np.testing.assert_allclose(gram, np.eye(r), atol=1e-12)
    # (U^T M2) J == Jhat (U^T M2) with M2 = blockdiag(mass, mass)
    m2 = np.kron(np.eye(2), mass)
    left = (basis.u.T @ m2) @ canonical_j(n)
    right = canonical_j(r) @ (basis.u.T @ m2)
    np.testing.assert_allclose(left, right, atol=1e-12 * np.max(np.abs(left)))


def test_block_basis_pools_position_and_momentum_data():
    # pooled fit: swapping the roles of the q and p stacks changes nothing
    rng = np.random.default_rng(508)
    mass = random_spd(rng, 8)
    qs = make_snapshots(rng, 8, 1, 5)
    ps = make_snapshots(rng, 8, 1, 5)
    a = psd_cotangent_lift(qs, ps, mass, 3)
    b = psd_cotangent_lift(ps, qs, mass, 3)
    np.testing.assert_allclose(a.u_half, b.u_half, atol=1e-12)


def test_pod_of_a_pooled_matrix_matches_the_pod_of_its_sets():
    # a pooled matrix, passed as the one set of a list, is left unchanged and
    # gives the same basis, bit for bit, as the list of sets it pools; for
    # the cotangent lift it holds the positions, then the momenta
    rng = np.random.default_rng(511)
    n = 9
    mass = random_spd(rng, n)
    qs = make_snapshots(rng, n, 2, 6)
    ps = make_snapshots(rng, n, 2, 6)
    for from_sets, pooled, fit in (
            (weighted_pod(qs, mass, 3), np.hstack(qs),
             lambda m: weighted_pod([m], mass, 3)),
            (psd_cotangent_lift(qs, ps, mass, 3), np.hstack(qs + ps),
             lambda m: psd_cotangent_lift([m], (), mass, 3))):
        unchanged = pooled.copy()
        from_matrix = fit(pooled)
        assert from_matrix.kind == from_sets.kind
        np.testing.assert_array_equal(from_matrix.u, from_sets.u)
        np.testing.assert_array_equal(from_matrix.singular_values, from_sets.singular_values)
        np.testing.assert_array_equal(pooled, unchanged)


def _assert_same_basis(a, b, exact):
    if exact:
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)
    else:
        sv = b.singular_values
        np.testing.assert_allclose(a.singular_values, sv, rtol=0, atol=1e-12 * sv[0])
        np.testing.assert_allclose(a.u, b.u, rtol=0, atol=1e-10)


class OnePass:
    """A sized iterator that hands out each of ``sets`` once, as the pipeline's training reader does.

    Its length is ``len(sets)`` unless ``length`` says otherwise.
    """

    def __init__(self, sets, length=None):
        self._sets, self._len = iter(sets), len(sets) if length is None else length

    def __len__(self):
        return self._len

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._sets)


@pytest.mark.parametrize("n_sets, exact", [(2, True), (9, False)], ids=["one-group", "groups"])
def test_pod_of_sized_sets_and_of_their_pooled_matrix_agree(n_sets, exact):
    # the same sets as a list, a tuple, a one-pass sized iterator and one
    # pooled matrix: the sequences and the iterator bit for bit, as their
    # lengths split them alike; the matrix, one set, bit for bit while the
    # sets fit in one group (fewer than 4 N snapshots) and to rounding once
    # they are factored group by group (the cotangent lift's 18 sets go
    # 5 + 5 + 5 + 3 against one QR); no input is modified
    rng = np.random.default_rng(512)
    n, r = 8, 4
    mass = random_spd(rng, n)
    qs = make_snapshots(rng, n, n_sets, 7)
    ps = make_snapshots(rng, n, n_sets, 7)
    kept = [s.copy() for s in qs + ps]
    for fit, sets in ((lambda *a: weighted_pod(*a, mass, r), (qs,)),
                      (lambda *a: psd_cotangent_lift(*a, mass, r), (qs, ps))):
        from_list = fit(*sets)
        from_tuple = fit(*(tuple(group) for group in sets))
        from_iterator = fit(*(OnePass(group) for group in sets))
        pooled = np.hstack([s for group in sets for s in group])
        unchanged = pooled.copy()
        from_matrix = fit([pooled], *([()] if len(sets) == 2 else []))
        _assert_same_basis(from_tuple, from_list, exact=True)
        _assert_same_basis(from_iterator, from_list, exact=True)
        _assert_same_basis(from_matrix, from_list, exact=exact)
        assert from_list.kind == from_iterator.kind == from_matrix.kind
        np.testing.assert_array_equal(pooled, unchanged)
    for before, after in zip(kept, qs + ps):
        np.testing.assert_array_equal(after, before)


def test_pod_refuses_unsized_inputs_before_reading_a_set():
    # the number of sets fixes the groups before any set is read, so an
    # input without a length is refused at once
    rng = np.random.default_rng(516)
    n = 6
    sets = make_snapshots(rng, n)
    read = []

    def generator():
        for states in sets:
            read.append(states)
            yield states

    for fit in (lambda: weighted_pod(generator(), np.eye(n), 2),
                lambda: psd_cotangent_lift(generator(), (), np.eye(n), 2),
                lambda: psd_cotangent_lift(sets, generator(), np.eye(n), 2)):
        with pytest.raises(TypeError):
            fit()
    assert read == []


def test_pod_refuses_a_bare_matrix_and_a_length_it_does_not_read():
    # a bare 2-D array is a sequence of rows, none of them a matrix; a sized
    # input that yields fewer or more sets than its length is refused, not
    # fit from the sets it happens to yield
    rng = np.random.default_rng(517)
    n = 6
    sets = make_snapshots(rng, n)
    for fit in (lambda m: weighted_pod(m, np.eye(n), 2),
                lambda m: psd_cotangent_lift(m, (), np.eye(n), 2)):
        with pytest.raises(ValueError, match="snapshot sets must be matrices"):
            fit(np.hstack(sets))
        for length in (2, 4):
            with pytest.raises(ValueError, match="length"):
                fit(OnePass(sets, length))


def test_pod_groups_sets_of_mixed_widths_by_the_first_sets_width(monkeypatch):
    # n = 5: gathering sets as wide as the first (7) until a group holds 4 n
    # = 20 snapshots takes 3 sets, so 5 sets make 2 groups.  The first takes
    # 3 sets, those of 7 and 9 snapshots and one wider than 4 n (30), a
    # stack of 46; the next stacks the carried 5 x 5 factor over the last
    # two sets (4 + 3), and its QR is the last: the weight goes into the one
    # SVD of the final factor.  The basis matches the full SVD of the
    # weighted pooled stack.
    rng = np.random.default_rng(513)
    n, r = 5, 3
    mass = random_spd(rng, n)
    sets = [rng.standard_normal((n, k)) for k in (7, 9, 30, 4, 3)]
    shapes = []
    real_qr = np.linalg.qr

    def spy(a, mode="reduced"):
        shapes.append(np.shape(a))
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    basis = weighted_pod(sets, mass, r)
    monkeypatch.undo()
    assert shapes == [(46, n), (n + 7, n)]

    chol = cholesky_upper(mass)
    u_tilde, svals, _ = np.linalg.svd(chol @ np.hstack(sets), full_matrices=False)
    u_r = u_tilde[:, :r] * np.sign(u_tilde[np.argmax(np.abs(u_tilde[:, :r]), axis=0),
                                           np.arange(r)])
    np.testing.assert_allclose(basis.singular_values, svals, rtol=0, atol=1e-12 * svals[0])
    np.testing.assert_allclose(basis.u, np.linalg.solve(chol, u_r), rtol=0, atol=1e-10)
    # one set wider than 4 n alone is one group
    shapes.clear()
    monkeypatch.setattr(np.linalg, "qr", spy)
    weighted_pod(sets[2:3], mass, r)
    assert shapes == [(30, n)]


def qr_rows(groups, n, width):
    """Rows of each QR of a POD over groups of ``groups`` sets ``width`` wide, the carried factor on top."""
    return [width * groups[0]] + [n + width * size for size in groups[1:]]


@pytest.mark.parametrize("count, groups", [(8, [5, 3]), (9, [5, 4]), (14, [8, 6]),
                                           (15, [5, 5, 5]), (7, [7])])
def test_pod_balances_the_stacks_of_a_known_number_of_sets(monkeypatch, count, groups):
    # n = 5, sets of 3 snapshots: gathering until a group holds 4 n = 20
    # snapshots would close a group every 7 sets.  A list, or a one-pass
    # iterator that knows its length, is split into as many groups; each
    # group after the first stacks the carried 5 x 5 factor over its sets,
    # so the first takes the sets that make the tallest stack least (8
    # sets: 15 and 14 rows, where 4 + 4 would stack 12 and 17) and the
    # later groups share the rest.  The grouping gives the basis of the
    # pooled stack.
    rng = np.random.default_rng(515)
    n, r = 5, 3
    mass = random_spd(rng, n)
    sets = [rng.standard_normal((n, 3)) for _ in range(count)]
    shapes = []
    real_qr = np.linalg.qr

    def spy(a, mode="reduced"):
        shapes.append(np.shape(a)[0])
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    equal = weighted_pod(sets, mass, r)
    assert shapes == qr_rows(groups, n, 3)
    shapes.clear()
    assert weighted_pod(OnePass(sets), mass, r).u.tobytes() == equal.u.tobytes()
    assert shapes == qr_rows(groups, n, 3)
    monkeypatch.undo()
    _assert_same_basis(weighted_pod([np.hstack(sets)], mass, r), equal, exact=False)


def test_pod_runs_on_one_blas_thread_up_to_its_threshold(monkeypatch, two_blas_threads):
    # every QR of the POD sees one OpenBLAS thread while N is at most
    # _POD_ONE_THREAD_MAX_N, and the process's count once the constant is
    # below N; the count is restored after either, and pod_threads reports
    # the count the QRs saw.  The basis is the same to rounding.
    rng = np.random.default_rng(516)
    n, r = 6, 3
    mass = random_spd(rng, n)
    sets = [rng.standard_normal((n, 7)) for _ in range(5)]
    seen = []
    real_qr = np.linalg.qr

    def spy(a, mode="reduced"):
        seen.append(blas_threads()[1])
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    pinned = weighted_pod(sets, mass, r)
    assert seen == [1, 1] and basis_module.pod_threads(n) == 1
    assert blas_threads()[1] == two_blas_threads
    seen.clear()
    monkeypatch.setattr(basis_module, "_POD_ONE_THREAD_MAX_N", n - 1)
    threaded = weighted_pod(sets, mass, r)
    assert seen == [two_blas_threads] * 2
    assert basis_module.pod_threads(n) == two_blas_threads
    assert blas_threads()[1] == two_blas_threads
    monkeypatch.undo()
    _assert_same_basis(threaded, pinned, exact=False)


@pytest.mark.parametrize("problem", ["heat1d", "wave1d"])
def test_project_matches_the_dense_weight_product(problem):
    # U^T M, formed once per call and applied to each state block, matches
    # U^T (M Q) to 1e-13 relative
    rng = np.random.default_rng(514)
    if problem == "heat1d":
        model = build_heat_model(40)
        mass, n = model.mass, model.n_dof
        basis = weighted_pod(make_snapshots(rng, n, 3, 20), mass, 6)
    else:
        model = build_wave_model(40)
        mass, n = model.mass_w, model.n_w
        basis = psd_cotangent_lift(make_snapshots(rng, n, 2, 20), make_snapshots(rng, n, 2, 20),
                                   mass, 6)
    states = rng.standard_normal((basis.blocks * n, 30))
    expected = np.concatenate([basis.block.T @ (mass @ block)
                               for block in states.reshape(basis.blocks, n, -1)])
    got = basis.project(states)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


@pytest.mark.parametrize("problem, bound", [("heat1d", 0.6), ("wave1d", 0.35)],
                         ids=["heat1d", "wave1d"])
def test_basis_build_holds_one_group_of_training_data(problem, bound, tmp_path):
    # build_basis streams the training files through the POD: one group of
    # at least 4 N snapshots and the carried N x N factor are held at a
    # time, twice during the group's QR (the stack and NumPy's input copy),
    # and no file outlives the copy of its sets into the stack, so the
    # traced peak is a fraction of the training data.  Default heat1d
    # (N = 200, 20 sets of 251) stacks 1,204 of 5,020 rows per group and
    # peaks at about 0.575 times the data, wave1d at about 0.310 (0.410
    # when the last file read outlived its group's copy); pooling all the
    # data, as the pipeline once did, peaks at about 2.1 times.
    cfg = dataclasses.replace(default_config(problem), n_test=0)
    pipeline.simulate_fom(cfg, tmp_path)
    pipeline.build_basis(cfg, tmp_path)  # first-call imports outside the trace
    data_bytes = sum(load_matrix(tmp_path / "fom" / f"train_{i:03d}.tpoi").nbytes
                     for i in range(cfg.n_train))
    tracemalloc.start()
    try:
        pipeline.build_basis(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * data_bytes


def test_project_and_lift_round_trip_in_span():
    rng = np.random.default_rng(509)
    mass = random_spd(rng, 12)
    basis = weighted_pod(make_snapshots(rng, 12), mass, 5)
    coeffs = rng.standard_normal((5, 4))
    states = basis.lift(coeffs)
    np.testing.assert_allclose(basis.project(states), coeffs, atol=1e-12)
    # the nested basis: the leading r coordinates are rows [:r] exactly, and
    # the truncated basis' projection to rounding (numpy may take a dot, not a
    # gemv, for a 1-D state or r = 1)
    for x in (rng.standard_normal(12), rng.standard_normal((12, 6))):
        y = basis.project(x)
        for r in (1, 3, 5):
            np.testing.assert_array_equal(basis.leading(y, r), y[:r])
            np.testing.assert_allclose(basis.leading(y, r), basis.truncate(r).project(x),
                                       rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        basis.project(rng.standard_normal((11, 2)))
    with pytest.raises(ValueError):
        basis.lift(rng.standard_normal((4, 2)))
    with pytest.raises(ValueError):
        basis.leading(rng.standard_normal((4, 2)), 2)


def test_block_project_and_lift_round_trip_in_span():
    rng = np.random.default_rng(510)
    mass = random_spd(rng, 9)
    basis = psd_cotangent_lift(
        make_snapshots(rng, 9), make_snapshots(rng, 9), mass, 4
    )
    coeffs = rng.standard_normal((8, 3))
    states = basis.lift(coeffs)
    assert states.shape == (18, 3)
    np.testing.assert_allclose(basis.project(states), coeffs, atol=1e-12)
    # the leading r coordinates of each block: exactly those rows, and the
    # truncated basis' projection to rounding
    for x in (rng.standard_normal(18), rng.standard_normal((18, 5))):
        y = basis.project(x)
        for r in (1, 2, 4):
            np.testing.assert_array_equal(basis.leading(y, r), np.concatenate([y[:r], y[4:4 + r]]))
            np.testing.assert_allclose(basis.leading(y, r), basis.truncate(r).project(x),
                                       rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        basis.project(rng.standard_normal((9, 2)))
    with pytest.raises(ValueError):
        basis.lift(rng.standard_normal((4, 2)))
    with pytest.raises(ValueError):
        basis.leading(rng.standard_normal((4, 2)), 2)


def test_project_snapshots_projects_each_matrix():
    # one reduced matrix per snapshot matrix, as the basis projects it; an
    # item that is not a matrix, such as a row of a bare 2-D array, is refused
    rng = np.random.default_rng(511)
    mass = random_spd(rng, 6)
    snaps = make_snapshots(rng, 6, 2, 4)
    basis = weighted_pod(snaps, mass, 2)
    reduced = project_snapshots(basis, snaps)
    assert len(reduced) == len(snaps)
    for got, states in zip(reduced, snaps):
        np.testing.assert_array_equal(got, basis.project(states))
    with pytest.raises(ValueError, match="snapshot sets must be matrices"):
        project_snapshots(basis, np.hstack(snaps))


def test_derivative_stencils_are_exact_on_quadratics():
    dt = 0.05
    t = dt * np.arange(9)
    coeffs = np.array([[1.0, -2.0, 0.5], [0.3, 0.0, -1.0]])
    traj = np.stack([c0 + c1 * t + c2 * t**2 for c0, c1, c2 in coeffs])
    exact = np.stack([c1 + 2.0 * c2 * t for _, c1, c2 in coeffs])
    got = estimate_time_derivative(traj, dt)
    np.testing.assert_allclose(got, exact, atol=1e-12)


def test_derivative_stencils_converge_at_second_order():
    errors = []
    for n in (40, 80):
        dt = 1.0 / n
        t = dt * np.arange(n + 1)
        traj = np.sin(2.0 * t)[None, :]
        got = estimate_time_derivative(traj, dt)
        errors.append(np.max(np.abs(got - 2.0 * np.cos(2.0 * t))))
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_derivative_validation():
    with pytest.raises(ValueError):
        estimate_time_derivative(np.zeros(5), 0.1)
    with pytest.raises(ValueError):
        estimate_time_derivative(np.zeros((2, 2)), 0.1)  # needs 3 points
    with pytest.raises(ValueError):
        estimate_time_derivative(np.zeros((2, 5)), 0.0)


def test_exact_reduced_derivative_applies_projected_generator():
    rng = np.random.default_rng(512)
    model = build_heat_model(20)
    mu = np.array([0.5, 0.2, 0.9])
    a = heat_operator(model, mu)  # mass-carried generator of M qdot = A q
    snaps = [rng.standard_normal((model.n_dof, 6))]
    basis = weighted_pod(snaps, model.mass, 4)
    reduced = basis.project(snaps[0])
    a_hat = basis.u.T @ a @ basis.u
    np.testing.assert_allclose(
        exact_reduced_derivative(basis, a, reduced), a_hat @ reduced, atol=1e-12
    )
    with pytest.raises(ValueError):
        exact_reduced_derivative(basis, a, reduced[:2])

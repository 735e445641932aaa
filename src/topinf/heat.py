"""Full-order model: 1D heat equation with piecewise-constant conductivity.

The domain is ``(0, 2*pi)`` with homogeneous Dirichlet boundary conditions,
discretized with continuous piecewise-linear finite elements on a uniform
mesh.  The conductivity is constant on each of ``p`` subdomains delimited
by ``p - 1`` interior breakpoints, which yields the affine parametric form

    M qdot = A(mu) q,     A(mu) = -sum_k mu_k * K_k,

where ``M`` is the interior mass matrix and ``K_k`` is the positive
semidefinite stiffness contribution of subdomain ``k``; the minus sign is
applied by :func:`heat_operator`.  Elements straddling a breakpoint are
assigned to the subdomain containing their midpoint.

The feature map for this problem is the identity: the reduced parametric
operator is affine in ``mu`` itself.

``M`` and every ``K_k`` are tridiagonal, and the model stores their bands
from one vectorized assembly (:func:`p1_assembly`, which also gives the
wave model its flux mass slices); the dense ``M`` and the stacked
``(N, N, p)`` tensor of the ``K_k`` are built on access.
:func:`heat_sweep` steps a whole parameter sweep with Crank-Nicolson
through one stacked tridiagonal factorization of the bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rom import Trajectory, tridiagonal_sweep
from .tensors import mode3_product

__all__ = [
    "HeatModel",
    "p1_assembly",
    "weighted_bands",
    "dense_slices",
    "build_heat_model",
    "heat_operator",
    "heat_sweep",
    "heat_initial_state",
    "heat_features",
    "sample_conductivities",
]

DOMAIN_LENGTH = 2.0 * np.pi

#: Default interior breakpoints (three equal subdomains).
DEFAULT_BREAKPOINTS = (2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)

#: Default conductivity sampling range (log-uniform).
DEFAULT_RANGE = (0.1, 1.0)


def p1_assembly(n_elements: int, breakpoints: tuple[float, ...]) -> tuple:
    """Per-subdomain P1 mass and stiffness bands on the interior nodes of a uniform mesh.

    Returns ``(breakpoints, h, mass, stiffness)``: the checked breakpoints,
    the element width, and for each matrix the pair ``(diag, off)`` of
    shapes ``(p, N)`` and ``(p, N - 1)``, ``N = n_elements - 1``, whose row
    ``k`` holds the bands of subdomain ``k``'s slice.  The local matrices
    are ``(h/6) [[2, 1], [1, 2]]`` and ``(1/h) [[1, -1], [-1, 1]]``.
    """
    if n_elements < 2:
        raise ValueError(f"need at least 2 elements, got {n_elements}")
    breakpoints = tuple(float(b) for b in breakpoints)
    if any(not (0.0 < b < DOMAIN_LENGTH) for b in breakpoints):
        raise ValueError(f"breakpoints must lie inside (0, {DOMAIN_LENGTH})")
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")

    h = DOMAIN_LENGTH / n_elements
    edges = np.linspace(0.0, DOMAIN_LENGTH, n_elements + 1)
    owner = np.searchsorted(np.asarray(breakpoints), 0.5 * (edges[:-1] + edges[1:]))
    member = (owner == np.arange(len(breakpoints) + 1)[:, None]).astype(float)
    # interior node i is shared by elements i and i + 1; the edge (i, i + 1)
    # lies in element i + 1 only
    touching, spanning = member[:, :-1] + member[:, 1:], member[:, 1:-1]
    mass = ((h / 6.0 * 2.0) * touching, (h / 6.0) * spanning)
    stiffness = ((1.0 / h) * touching, np.where(spanning > 0.0, -1.0 / h, 0.0))
    return breakpoints, h, mass, stiffness


def weighted_bands(weights: np.ndarray, diag: np.ndarray, off: np.ndarray) -> tuple:
    """Bands ``(diag, off)`` of ``sum_k w_k slice_k`` for weights ``(p,)`` or ``(p, S)``.

    The slices have bands ``diag`` (p, N) and ``off`` (p, N - 1); with S
    samples the result is ``(S, N)`` and ``(S, N - 1)``.  Summed slice by
    slice, so each sample's bands do not depend on S (a matrix product
    rounds differently for different S).
    """
    weights = np.asarray(weights, dtype=float)[..., None]
    return (sum(w * d for w, d in zip(weights, diag)),
            sum(w * e for w, e in zip(weights, off)))


def dense_slices(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense ``(N, N, p)`` symmetric tridiagonals with bands ``diag`` (p, N), ``off`` (p, N - 1)."""
    n = diag.shape[1]
    out = np.zeros((n, n, diag.shape[0]))
    i = np.arange(n)
    out[i, i] = diag.T
    out[i[:-1], i[1:]] = out[i[1:], i[:-1]] = off.T
    return out


@dataclass(frozen=True)
class HeatModel:
    """FEM operators of the heat problem, stored as tridiagonal bands.

    Attributes
    ----------
    n_elements : int
        Number of uniform elements; there are ``N = n_elements - 1``
        interior degrees of freedom.
    breakpoints : tuple of float
        Interior subdomain boundaries, strictly increasing in ``(0, 2*pi)``.
    h : float
        Element width.
    nodes : ndarray, shape (N,)
        Coordinates of the interior nodes.
    mass_diag, mass_off : ndarray, shapes (N,) and (N - 1,)
        Bands of the interior mass matrix.
    stiffness_diag, stiffness_off : ndarray, shapes (p, N) and (p, N - 1)
        Bands of the per-subdomain stiffness slices.

    The dense :attr:`mass` and :attr:`stiffness` are built on access.
    """

    n_elements: int
    breakpoints: tuple[float, ...]
    h: float
    nodes: np.ndarray
    mass_diag: np.ndarray
    mass_off: np.ndarray
    stiffness_diag: np.ndarray
    stiffness_off: np.ndarray

    @property
    def n_dof(self) -> int:
        return self.n_elements - 1

    @property
    def n_subdomains(self) -> int:
        return len(self.breakpoints) + 1

    @property
    def mass(self) -> np.ndarray:
        """Interior mass matrix ``(N, N)`` (symmetric positive definite)."""
        return dense_slices(self.mass_diag[None], self.mass_off[None])[:, :, 0]

    @property
    def stiffness(self) -> np.ndarray:
        """Per-subdomain stiffness slices ``(N, N, p)``; each is symmetric
        positive semidefinite and they sum to the full stiffness matrix."""
        return dense_slices(self.stiffness_diag, self.stiffness_off)


def build_heat_model(
    n_elements: int = 200,
    breakpoints: tuple[float, ...] = DEFAULT_BREAKPOINTS,
) -> HeatModel:
    """Assemble mass and per-subdomain stiffness bands on a uniform mesh."""
    breakpoints, h, mass, stiffness = p1_assembly(n_elements, breakpoints)
    return HeatModel(
        n_elements=n_elements, breakpoints=breakpoints, h=h,
        nodes=np.linspace(0.0, DOMAIN_LENGTH, n_elements + 1)[1:-1].copy(),
        mass_diag=mass[0].sum(axis=0), mass_off=mass[1].sum(axis=0),
        stiffness_diag=stiffness[0], stiffness_off=stiffness[1],
    )


def _check_conductivities(model: HeatModel, mu: np.ndarray) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (model.n_subdomains,):
        raise ValueError(
            f"expected {model.n_subdomains} conductivities, got shape {mu.shape}"
        )
    if np.any(mu <= 0.0):
        raise ValueError("conductivities must be strictly positive")
    return mu


def heat_operator(model: HeatModel, mu: np.ndarray) -> np.ndarray:
    """Evaluate ``A(mu) = -sum_k mu_k * K_k`` for positive conductivities."""
    return -mode3_product(model.stiffness, _check_conductivities(model, mu))


def heat_sweep(
    model: HeatModel,
    params: np.ndarray,
    q0: np.ndarray,
    dt: float,
    n_times: int,
    t0: float = 0.0,
) -> list[Trajectory]:
    """Crank-Nicolson trajectories of ``M qdot = A(mu) q`` for every column of ``params`` (p, S).

    Each step solves ``(M + dt/2 K(mu)) q+ = (M - dt/2 K(mu)) q`` with
    ``K(mu) = sum_k mu_k K_k``: the S tridiagonal systems are factored
    once, end to end, and one tridiagonal solve per step advances every
    sample (:func:`~topinf.rom.tridiagonal_sweep`).  The states agree with
    ``crank_nicolson(heat_operator(model, mu), q0, dt, n_times, mass=M)``
    to rounding.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2:
        raise ValueError(f"expected one conductivity vector per column, got shape {params.shape}")
    for mu in params.T:
        _check_conductivities(model, mu)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (model.n_dof,):
        raise ValueError(f"initial state must have length {model.n_dof}, got {q0.shape}")

    # dt/2 K(mu) bands of every sample, (S, n) and (S, n - 1)
    k_diag, k_off = weighted_bands(0.5 * dt * params, model.stiffness_diag, model.stiffness_off)
    m_diag, m_off = model.mass_diag, model.mass_off

    # (M - dt/2 K) bands; each sample's off-diagonal ends in a zero coupling,
    # so the product runs over the flattened stack as one tridiagonal
    r_off = np.zeros(k_diag.shape)
    r_off[:, :-1] = m_off - k_off

    def step(solve, q, out, r_diag, r_off):
        q, flat, coupling = q.ravel(), out.ravel(), r_off.ravel()[:-1]
        np.multiply(r_diag.ravel(), q, out=flat)
        flat[:-1] += coupling * q[1:]
        flat[1:] += coupling * q[:-1]
        solve(out)

    return tridiagonal_sweep(step, m_diag + k_diag, m_off + k_off, q0, dt, n_times, t0,
                             per_sample=(m_diag - k_diag, r_off))


def heat_initial_state(model: HeatModel) -> np.ndarray:
    """Nodal interpolant of ``exp(-(x - pi)^2) * sin(x / 2)`` at interior nodes."""
    x = model.nodes
    return np.exp(-((x - np.pi) ** 2)) * np.sin(x / 2.0)


def heat_features(mu: np.ndarray) -> np.ndarray:
    """Feature vector for the affine operator: the identity map."""
    return np.asarray(mu, dtype=float).copy()


def sample_conductivities(
    rng: np.random.Generator,
    count: int,
    n_subdomains: int,
    lo: float = DEFAULT_RANGE[0],
    hi: float = DEFAULT_RANGE[1],
) -> np.ndarray:
    """Draw ``count`` log-uniform conductivity vectors, one per column.

    Each entry is ``exp(u)`` with ``u`` uniform on ``(log lo, log hi)``.
    Returns an array of shape ``(n_subdomains, count)``.
    """
    if count < 1 or n_subdomains < 1:
        raise ValueError("count and n_subdomains must be positive")
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    u = rng.uniform(np.log(lo), np.log(hi), size=(n_subdomains, count))
    return np.exp(u)

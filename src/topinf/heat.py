"""Full-order model: 1D heat equation with piecewise-constant conductivity.

The domain is ``(0, 2*pi)`` with homogeneous Dirichlet boundary conditions,
discretized with continuous piecewise-linear finite elements on a uniform
mesh.  The conductivity is constant on each of ``p`` subdomains delimited
by ``p - 1`` interior breakpoints, which yields the affine parametric form

    M qdot = A(mu) q,     A(mu) = -sum_k mu_k * K_k,

where ``M`` is the interior mass matrix and ``K_k`` is the stiffness
contribution of subdomain ``k``.  The model stores the positive
semidefinite slices ``K_k`` stacked as an order-3 tensor; the minus sign
is applied by :func:`heat_operator`.  Elements straddling a breakpoint are
assigned to the subdomain containing their midpoint.

The feature map for this problem is the identity: the reduced parametric
operator is affine in ``mu`` itself.

``M`` and every ``K_k`` are tridiagonal, so :func:`heat_sweep` steps a
whole parameter sweep with Crank-Nicolson through one stacked
tridiagonal factorization instead of dense step maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rom import Trajectory, tridiagonal_sweep
from .tensors import mode3_product

__all__ = [
    "HeatModel",
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
DEFAULT_RANGE = (0.01, 1.0)


@dataclass(frozen=True)
class HeatModel:
    """Assembled FEM operators for the heat problem.

    Attributes
    ----------
    n_elements : int
        Number of uniform elements; there are ``n_elements - 1`` interior
        degrees of freedom.
    breakpoints : tuple of float
        Interior subdomain boundaries, strictly increasing in ``(0, 2*pi)``.
    h : float
        Element width.
    nodes : ndarray, shape (n_elements - 1,)
        Coordinates of the interior nodes.
    mass : ndarray, shape (N, N)
        Interior mass matrix (tridiagonal, symmetric positive definite).
    stiffness : ndarray, shape (N, N, p)
        Per-subdomain stiffness slices; each slice is symmetric positive
        semidefinite and the slices sum to the full stiffness matrix.
    """

    n_elements: int
    breakpoints: tuple[float, ...]
    h: float
    nodes: np.ndarray
    mass: np.ndarray
    stiffness: np.ndarray

    @property
    def n_dof(self) -> int:
        return self.n_elements - 1

    @property
    def n_subdomains(self) -> int:
        return len(self.breakpoints) + 1


def build_heat_model(
    n_elements: int = 200,
    breakpoints: tuple[float, ...] = DEFAULT_BREAKPOINTS,
) -> HeatModel:
    """Assemble mass and per-subdomain stiffness on a uniform mesh."""
    if n_elements < 2:
        raise ValueError(f"need at least 2 elements, got {n_elements}")
    breakpoints = tuple(float(b) for b in breakpoints)
    if any(not (0.0 < b < DOMAIN_LENGTH) for b in breakpoints):
        raise ValueError(f"breakpoints must lie inside (0, {DOMAIN_LENGTH})")
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")

    h = DOMAIN_LENGTH / n_elements
    all_nodes = np.linspace(0.0, DOMAIN_LENGTH, n_elements + 1)
    n = n_elements - 1
    p = len(breakpoints) + 1
    mass = np.zeros((n, n))
    stiffness = np.zeros((n, n, p))
    local_mass = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    local_stiff = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    bp = np.asarray(breakpoints)

    for e in range(n_elements):
        midpoint = 0.5 * (all_nodes[e] + all_nodes[e + 1])
        k = int(np.searchsorted(bp, midpoint))
        for a in (0, 1):
            i = e + a - 1  # interior index of local node a
            if not (0 <= i < n):
                continue
            for b in (0, 1):
                j = e + b - 1
                if not (0 <= j < n):
                    continue
                mass[i, j] += local_mass[a, b]
                stiffness[i, j, k] += local_stiff[a, b]

    return HeatModel(
        n_elements=n_elements,
        breakpoints=breakpoints,
        h=h,
        nodes=all_nodes[1:-1].copy(),
        mass=mass,
        stiffness=stiffness,
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

    # dt/2 K(mu) bands of every sample, (S, n) and (S, n - 1), summed slice by
    # slice: a matrix product rounds differently for different S
    half = 0.5 * dt * params
    k_diag = sum(w[:, None] * d for w, d in zip(half, np.diagonal(model.stiffness)))
    k_off = sum(w[:, None] * e for w, e in zip(half, np.diagonal(model.stiffness, 1)))
    m_diag, m_off = np.diagonal(model.mass), np.diagonal(model.mass, 1)

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

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
:func:`heat_step` is one Crank-Nicolson step of a whole parameter sweep
through one stacked tridiagonal factorization of the bands, over any
stack of states; :meth:`HeatModel.apply_mass` applies ``M`` through its
bands, and
:func:`heat_projected_stiffness` projects the ``K_k`` through theirs.
Every entry point that takes parameters checks them in one place: the
right shape, every entry finite and positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .linalg import factor_tridiagonals
from .tensors import mode3_product

__all__ = [
    "HeatModel",
    "p1_assembly",
    "weighted_bands",
    "dense_slices",
    "build_heat_model",
    "heat_operator",
    "heat_step",
    "heat_projected_stiffness",
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
    samples the result is positions first, ``(N, S)`` and ``(N - 1, S)``,
    as :func:`~topinf.linalg.factor_tridiagonals` takes them.  Summed slice
    by slice, so each sample's bands do not depend on S (a matrix product
    rounds differently for different S).
    """
    weights = np.asarray(weights, dtype=float)
    cols = (1,) * (weights.ndim - 1)
    return (sum(w * d.reshape(d.shape + cols) for w, d in zip(weights, diag)),
            sum(w * e.reshape(e.shape + cols) for w, e in zip(weights, off)))


def _band_product(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A x`` for the symmetric tridiagonal ``A`` with bands ``diag`` (N,) and ``off`` (N - 1,).

    Applied along the first axis of ``x`` (N,) or (N, k).
    """
    shape = (-1,) + (1,) * (x.ndim - 1)
    d, e = diag.reshape(shape), off.reshape(shape)
    ax = d * x
    ax[:-1] += e * x[1:]
    ax[1:] += e * x[:-1]
    return ax


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

    def apply_mass(self, x: np.ndarray) -> np.ndarray:
        """``M x`` through the mass bands, along the first axis of an array ``x`` (N,) or (N, k)."""
        return _band_product(self.mass_diag, self.mass_off, x)

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


def _check_params(params, n_subdomains: int, name: str, ndim: int = 2) -> np.ndarray:
    """``params`` as floats: one vector ``(p,)`` if ``ndim`` is 1, else one per column ``(p, S)``.

    Raises ``ValueError``, naming the quantity ``name``, unless the shape
    is right, with at least one column, and every entry is finite and
    positive.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != ndim or params.shape[0] != n_subdomains or params.size == 0:
        want = f"({n_subdomains},)" if ndim == 1 else f"({n_subdomains}, S), S >= 1,"
        raise ValueError(f"expected {name} of shape {want}, got shape {params.shape}")
    if not (np.all(params > 0.0) and np.all(np.isfinite(params))):
        raise ValueError(f"{name} must be finite and strictly positive")
    return params


def heat_operator(model: HeatModel, mu: np.ndarray) -> np.ndarray:
    """Evaluate ``A(mu) = -sum_k mu_k * K_k`` for positive conductivities."""
    mu = _check_params(mu, model.n_subdomains, "conductivities", ndim=1)
    return -mode3_product(model.stiffness, mu)


def heat_step(model: HeatModel, params: np.ndarray, dt: float):
    """Crank-Nicolson step of ``M qdot = A(mu) q`` for every column of ``params`` (p, S).

    With ``K(mu) = sum_k mu_k K_k``, each step is in midpoint form: the
    midpoint ``z = (q + q+) / 2`` solves

        (M + dt/2 K(mu)) z = M q,    q+ = 2 z - q,

    the same map as ``(M + dt/2 K(mu)) q+ = (M - dt/2 K(mu)) q``.  ``M``
    does not depend on ``mu``, so the parameter enters only through the
    factored matrices: the S tridiagonals ``(M + dt/2 K(mu)) / 2``, whose
    solves return ``2 z``, are factored once, before this returns, and
    ``M q`` is taken through the mass bands for every sample at once.
    Stepped from ``q0``, the states agree with ``crank_nicolson(
    np.linalg.solve(M, heat_operator(model, mu)), q0, dt, n_times)``, the
    same Cayley map in standard form, to rounding.

    Returns ``step(q, out)``, which writes into ``out``, an array apart
    from ``q``, the states that follow the states ``q``; both are
    C-contiguous stacks ``(N, ..., S)`` whose last axis is the sample, so
    one call advances any number of states of every sample.  No step mixes
    the samples: a sample's states are those of the sample stepped alone,
    bit for bit, and a sample that leaves float range turns non-finite
    without touching the others.
    """
    params = _check_params(params, model.n_subdomains, "conductivities")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    k_diag, k_off = weighted_bands(0.25 * dt * params, model.stiffness_diag, model.stiffness_off)
    solve = factor_tridiagonals(0.5 * model.mass_diag[:, None] + k_diag,
                                0.5 * model.mass_off[:, None] + k_off).solve

    def step(q, out):
        out[...] = model.apply_mass(q)
        solve(out)  # 2 z
        out -= q

    return step


def heat_projected_stiffness(model: HeatModel, u: np.ndarray) -> np.ndarray:
    """Galerkin slices ``U^T K_k U`` of the stiffness, stacked ``(r, r, p)``.

    Each ``K_k U`` is taken through the slice's bands, so the cost is
    ``O(N r^2)`` per slice and no ``(N, N)`` slice is formed.  The slices
    agree with ``intrusive_project(model.stiffness, basis)`` to rounding.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != model.n_dof:
        raise ValueError(f"basis {u.shape} does not have {model.n_dof} rows")
    out = np.empty((u.shape[1], u.shape[1], model.n_subdomains))
    for k, (d, e) in enumerate(zip(model.stiffness_diag, model.stiffness_off)):
        out[:, :, k] = u.T @ _band_product(d, e, u)
    return out


def heat_initial_state(model: HeatModel) -> np.ndarray:
    """Nodal interpolant of ``exp(-(x - pi)^2) * sin(x / 2)`` at interior nodes."""
    x = model.nodes
    return np.exp(-((x - np.pi) ** 2)) * np.sin(x / 2.0)


def heat_features(mu: np.ndarray) -> np.ndarray:
    """Feature vector for the affine operator: the identity map."""
    return np.asarray(mu, dtype=float).copy()


class UniformSource(Protocol):
    """What the parameter samplers draw from, as :func:`topinf.make_rng` returns."""

    def uniform(self, low: float, high: float, size: tuple[int, ...]) -> np.ndarray:
        """Uniform draws on ``[low, high)`` of shape ``size``."""


def sample_conductivities(
    rng: UniformSource,
    count: int,
    n_subdomains: int,
    lo: float = DEFAULT_RANGE[0],
    hi: float = DEFAULT_RANGE[1],
) -> np.ndarray:
    """Draw ``count`` log-uniform conductivity vectors, one per column.

    ``rng`` is any generator with ``uniform(low, high, size)``.  Each entry
    is ``exp(u)`` with ``u`` uniform on ``(log lo, log hi)``.  Returns an
    array of shape ``(n_subdomains, count)``.
    """
    if count < 1 or n_subdomains < 1:
        raise ValueError("count and n_subdomains must be positive")
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    u = rng.uniform(np.log(lo), np.log(hi), size=(n_subdomains, count))
    return np.exp(u)

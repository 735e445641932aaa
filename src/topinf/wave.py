"""Full-order model: 1D linear wave equation with piecewise-constant speed.

The pressure/velocity form of the wave equation on ``(0, 2*pi)`` is
discretized with a mixed pair: piecewise constants for the position-like
variable ``q`` (one degree of freedom per element) and continuous
piecewise-linear functions vanishing at the boundary for the flux space
(one degree of freedom per interior node).  With wave speed ``c(x)``
constant on each of ``p`` subdomains (value ``mu_k`` on subdomain ``k``),
the semi-discrete canonical system for ``y = (q, p)`` reads

    ydot = J A(mu) y,   J = [[0, I], [-I, 0]],   A(mu) = blockdiag(A1(mu), I),

    A1(mu) = Mw^{-1} S^T Mv(mu)^{-1} S,

where ``Mw`` is the (diagonal) element mass matrix, ``S`` the divergence
pairing between the two spaces, and ``Mv(mu) = sum_k mu_k^{-2} Vk`` the
speed-weighted flux mass matrix built from per-subdomain slices ``Vk``.
The discrete energy

    H(y; mu) = 1/2 p^T Mw p + 1/2 q^T S^T Mv(mu)^{-1} S q

is conserved by the continuous dynamics.  ``A1(mu)`` is self-adjoint in
the ``Mw`` inner product, i.e. ``Mw A1(mu)`` is symmetric.

At the reduced level the position block is fitted as affine in the
squared speeds, ``T1(mu) = sum_k mu_k^2 T1_k``, and the momentum block
``A2`` as one parameter-independent matrix, the reduced counterpart of the
identity block of ``A(mu)``.

The flux space is heat's interior-node P1 space, so the ``Vk`` are the heat
model's mass slices (:func:`~topinf.heat.p1_assembly`).  The model stores
their tridiagonal bands; ``Mw = h I``, the constant upper bidiagonal
``S = (+1, -1)`` and the dense ``Vk`` are built on access.
:func:`wave_projected_stiffness` forms the Galerkin blocks
``(S U)^T Mv(mu)^{-1} (S U)`` of a whole parameter sweep through one
stacked tridiagonal factor (:func:`wave_stiffness` is its identity-basis
case), and :func:`wave_step` is one implicit-midpoint step of a whole
parameter sweep, over any stack of states, in a Schur form whose only
solve is one stacked tridiagonal system on the flux space.
Every entry point that takes speeds checks them as heat checks its
conductivities: the right shape, every entry finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heat import (DOMAIN_LENGTH, UniformSource, _check_params, dense_slices, p1_assembly,
                   weighted_bands)
from .linalg import factor_tridiagonals
from .tensors import mode3_product

__all__ = [
    "WaveModel",
    "build_wave_model",
    "wave_mass_v",
    "wave_stiffness",
    "wave_projected_stiffness",
    "wave_operator_a1",
    "wave_full_operator",
    "wave_step",
    "wave_mass_form_operator",
    "wave_rhs",
    "wave_hamiltonian",
    "wave_initial_state",
    "sample_wave_speeds",
    "canonical_j",
]

#: Default interior breakpoints (four equal subdomains).
DEFAULT_BREAKPOINTS = (np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0)

#: Default wave-speed sampling range (uniform).
DEFAULT_RANGE = (0.8, 2.4)

# 3-point Gauss-Legendre rule on [-1, 1].
_GAUSS_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass(frozen=True)
class WaveModel:
    """Mixed-FEM operators of the wave problem, stored as tridiagonal bands.

    Attributes
    ----------
    n_elements : int
        Number of uniform elements: ``q`` has ``Nw = n_elements`` dofs (one
        per element), the flux space ``Nv = n_elements - 1`` (interior nodes).
    breakpoints : tuple of float
        Interior subdomain boundaries.
    h : float
        Element width.
    mass_v_diag, mass_v_off : ndarray, shapes (p, Nv) and (p, Nv - 1)
        Bands of the per-subdomain flux mass slices.

    The dense :attr:`mass_w`, :attr:`s_div` and :attr:`mass_v_slices` are
    built on access.
    """

    n_elements: int
    breakpoints: tuple[float, ...]
    h: float
    mass_v_diag: np.ndarray
    mass_v_off: np.ndarray

    @property
    def n_w(self) -> int:
        return self.n_elements

    @property
    def n_v(self) -> int:
        return self.n_elements - 1

    @property
    def n_subdomains(self) -> int:
        return len(self.breakpoints) + 1

    @property
    def mass_w(self) -> np.ndarray:
        """Diagonal element mass matrix ``(Nw, Nw)``, ``h`` on the diagonal."""
        return self.h * np.eye(self.n_w)

    def apply_mass(self, x: np.ndarray) -> np.ndarray:
        """``Mw x = h x``, the element mass applied to the positions ``x`` (Nw,) or (Nw, k)."""
        return self.h * x

    @property
    def s_div(self) -> np.ndarray:
        """Divergence pairing ``(Nv, Nw)``: column ``e`` has ``+1`` at the row of the
        right node of element ``e``, ``-1`` at that of its left node (if interior)."""
        return np.eye(self.n_v, self.n_w) - np.eye(self.n_v, self.n_w, 1)

    @property
    def mass_v_slices(self) -> np.ndarray:
        """Per-subdomain flux mass slices ``(Nv, Nv, p)``; ``Mv(mu) = sum_k mu_k^{-2} slice_k``."""
        return dense_slices(self.mass_v_diag, self.mass_v_off)


def build_wave_model(
    n_elements: int = 200,
    breakpoints: tuple[float, ...] = DEFAULT_BREAKPOINTS,
) -> WaveModel:
    """Assemble the flux mass bands of the mixed spaces on a uniform mesh."""
    breakpoints, h, (diag, off), _ = p1_assembly(n_elements, breakpoints)
    return WaveModel(n_elements=n_elements, breakpoints=breakpoints, h=h,
                     mass_v_diag=diag, mass_v_off=off)


def wave_mass_v(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Speed-weighted flux mass matrix ``sum_k mu_k^{-2} slice_k``."""
    mu = _check_params(mu, model.n_subdomains, "wave speeds", ndim=1)
    return mode3_product(model.mass_v_slices, mu ** (-2.0))


def wave_projected_stiffness(model: WaveModel, params: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Galerkin blocks ``U^T K(mu) U`` for every column of ``params`` (p, S), stacked ``(S, r, r)``.

    ``U^T K(mu) U = (S U)^T Mv(mu)^{-1} (S U)``: the ``Mv(mu)`` of every
    sample are factored as one stack, one solve takes the r columns of
    ``S U`` for all of them, and each block is symmetrized.  For
    a nested basis the blocks of its leading columns are the leading blocks.
    """
    params = _check_params(params, model.n_subdomains, "wave speeds")
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != model.n_w:
        raise ValueError(f"basis {u.shape} does not have {model.n_w} rows")
    su = u[:-1] - u[1:]  # S U
    diag, off = weighted_bands(params ** (-2.0), model.mass_v_diag, model.mass_v_off)
    # entry [:, a, s] of the (Nv, r, S) right-hand side is column a of S U
    x = factor_tridiagonals(diag, off).solve(np.repeat(su[:, :, None], params.shape[1], axis=2))
    blocks = np.ascontiguousarray(x.T) @ su
    return 0.5 * (blocks + np.swapaxes(blocks, 1, 2))


def wave_stiffness(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Stiffness-like matrix ``K(mu) = S^T Mv(mu)^{-1} S`` (symmetric PSD).

    This is the mass-carried form of the position block,
    ``Mw pdot = -K(mu) q``: :func:`wave_projected_stiffness` with the
    identity basis.
    """
    mu = _check_params(mu, model.n_subdomains, "wave speeds", ndim=1)
    return wave_projected_stiffness(model, mu[:, None], np.eye(model.n_w))[0]


def wave_operator_a1(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Position-block operator ``A1(mu) = Mw^{-1} S^T Mv(mu)^{-1} S``."""
    k = wave_stiffness(model, mu)
    return k / model.h


def wave_full_operator(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Standard-form generator ``J A(mu) = [[0, I], [-A1(mu), 0]]``."""
    a1 = wave_operator_a1(model, mu)
    n = model.n_w
    top = np.hstack([np.zeros((n, n)), np.eye(n)])
    bottom = np.hstack([-a1, np.zeros((n, n))])
    return np.vstack([top, bottom])


def wave_step(model: WaveModel, params: np.ndarray, dt: float):
    """Implicit-midpoint step of ``ydot = J A(mu) y`` for every column of ``params`` (p, S).

    With ``v = q + dt/2 p`` and ``c = dt^2 / (4 h)``, the midpoint
    ``z = (q + q+) / 2`` solves ``(I + dt^2/4 A1(mu)) z = v``; through the
    Schur complement on the flux space,

        (Mv(mu) + c S S^T) sigma = S v,    z = v - c S^T sigma,
        q+ = 2 z - q,                      p+ = (4 / dt) (z - q) - p.

    The S tridiagonal systems are factored once, before this returns.
    Stepped from ``y0``, the states agree with ``implicit_midpoint(
    wave_full_operator(model, mu), y0, dt, n_times)`` to rounding, and the
    energy :func:`wave_hamiltonian` is conserved.

    Returns ``step(y, out)``, which writes into ``out``, an array apart
    from ``y``, the states that follow the states ``y``; both are
    C-contiguous stacks ``(2 Nw, ..., S)`` whose last axis is the sample,
    so one call advances any number of states of every sample.  No step
    mixes the samples: a sample's states are those of the sample stepped
    alone, bit for bit, and a sample that leaves float range turns
    non-finite without touching the others.  A ``dt`` that is not finite
    and positive, or so large that ``dt^2 / (4 h)`` overflows, is refused
    with a ``ValueError``.
    """
    params = _check_params(params, model.n_subdomains, "wave speeds")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    dt = float(dt)  # so that an overflow below is an inf, not a warning
    n = model.n_w
    c = dt * dt / (4.0 * model.h)
    if not math.isfinite(2.0 * c):
        raise ValueError(f"dt is too large: dt^2 / (4 h) of the step overflows, got {dt}")
    # Mv(mu) + c S S^T, with S S^T = tridiag(-1, 2, -1)
    diag, off = weighted_bands(params ** (-2.0), model.mass_v_diag, model.mass_v_off)
    solve = factor_tridiagonals(diag + 2.0 * c, off - c).solve

    def step(y, out):
        q, p = y[:n], y[n:]
        z = q + (0.5 * dt) * p  # v, turned into z in place
        sigma = z[:-1] - z[1:]  # S v
        solve(sigma)
        sigma *= c
        z[:-1] -= sigma  # z = v - c S^T sigma
        z[1:] += sigma
        dz = np.subtract(z, q, out=out[n:])
        np.add(z, dz, out=out[:n])  # q+ = 2 z - q
        dz *= 4.0 / dt
        dz -= p  # p+ = (4/dt) (z - q) - p

    return step


def wave_mass_form_operator(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Mass-carried generator ``[[0, Mw], [-K(mu), 0]]``.

    Satisfies ``blockdiag(Mw, Mw) ydot = wave_mass_form_operator(...) y``;
    this is the form consumed by Galerkin projection ``U^T (.) U``.
    """
    k = wave_stiffness(model, mu)
    n = model.n_w
    top = np.hstack([np.zeros((n, n)), model.mass_w])
    bottom = np.hstack([-k, np.zeros((n, n))])
    return np.vstack([top, bottom])


def wave_rhs(model: WaveModel, mu: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate ``J A(mu) y`` with solves only (no operator assembly)."""
    y = np.asarray(y, dtype=float)
    n = model.n_w
    if y.shape[0] != 2 * n:
        raise ValueError(f"state must have length {2 * n}, got {y.shape[0]}")
    q, pvar = y[:n], y[n:]
    mv = wave_mass_v(model, mu)
    sigma = np.linalg.solve(mv, model.s_div @ q)
    pdot = -(model.s_div.T @ sigma) / model.h
    return np.concatenate([pvar, pdot])


def wave_hamiltonian(model: WaveModel, mu: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Discrete energy ``1/2 p^T Mw p + 1/2 (S q)^T Mv^{-1} (S q)`` per column."""
    states = np.asarray(states, dtype=float)
    squeeze = states.ndim == 1
    if squeeze:
        states = states[:, None]
    n = model.n_w
    if states.shape[0] != 2 * n:
        raise ValueError(f"states must have leading dimension {2 * n}")
    q, pvar = states[:n], states[n:]
    mv = wave_mass_v(model, mu)
    w = model.s_div @ q
    z = np.linalg.solve(mv, w)
    kinetic = 0.5 * np.sum(pvar * (model.mass_w @ pvar), axis=0)
    potential = 0.5 * np.sum(w * z, axis=0)
    h = kinetic + potential
    return float(h[0]) if squeeze else h


def wave_initial_state(model: WaveModel) -> np.ndarray:
    """Initial state: elementwise averages of ``exp(-(x-pi)^2) sin(x)``, zero momentum.

    The averages are the L2 projection onto the piecewise-constant space,
    evaluated with a 3-point Gauss rule per element.
    """
    edges = np.linspace(0.0, DOMAIN_LENGTH, model.n_elements + 1)
    left, right = edges[:-1], edges[1:]
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    # quadrature points per element, shape (n_elements, 3)
    x = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    values = np.exp(-((x - np.pi) ** 2)) * np.sin(x)
    integrals = half * (values @ _GAUSS_WEIGHTS)
    q0 = integrals / model.h
    return np.concatenate([q0, np.zeros(model.n_w)])


def sample_wave_speeds(
    rng: UniformSource,
    count: int,
    n_subdomains: int,
    lo: float = DEFAULT_RANGE[0],
    hi: float = DEFAULT_RANGE[1],
) -> np.ndarray:
    """Draw ``count`` uniform wave-speed vectors, one per column.

    ``rng`` is any generator with ``uniform(low, high, size)``.
    """
    if count < 1 or n_subdomains < 1:
        raise ValueError("count and n_subdomains must be positive")
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    return rng.uniform(lo, hi, size=(n_subdomains, count))


def canonical_j(r: int) -> np.ndarray:
    """Canonical symplectic matrix ``[[0, I_r], [-I_r, 0]]`` of size 2r."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    j = np.zeros((2 * r, 2 * r))
    j[:r, r:] = np.eye(r)
    j[r:, :r] = -np.eye(r)
    return j

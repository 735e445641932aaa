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

At the reduced level the parametric dependence is approximated as affine
in the elementwise square of the speeds, hence the feature map
``(mu_1^2, ..., mu_p^2, 1)`` with the constant slot accounting for the
identity block of ``A(mu)``.

``Mv(mu)`` is tridiagonal and ``S`` upper bidiagonal, and ``Mw = h I``.
:func:`wave_stiffness` therefore solves with a tridiagonal factor of
``Mv(mu)``, and :func:`wave_sweep` steps a whole parameter sweep with the
implicit midpoint rule in a Schur form whose only solve is one stacked
tridiagonal system on the flux space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import factor_tridiagonals
from .rom import Trajectory, tridiagonal_sweep

__all__ = [
    "WaveModel",
    "build_wave_model",
    "wave_mass_v",
    "wave_stiffness",
    "wave_operator_a1",
    "wave_full_operator",
    "wave_sweep",
    "wave_mass_form_operator",
    "wave_rhs",
    "wave_hamiltonian",
    "wave_initial_state",
    "wave_features",
    "sample_wave_speeds",
    "canonical_j",
]

DOMAIN_LENGTH = 2.0 * np.pi

#: Default interior breakpoints (four equal subdomains).
DEFAULT_BREAKPOINTS = (np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0)

#: Default wave-speed sampling range (uniform).
DEFAULT_RANGE = (0.8, 2.4)

# 3-point Gauss-Legendre rule on [-1, 1].
_GAUSS_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass(frozen=True)
class WaveModel:
    """Assembled mixed-FEM operators for the wave problem.

    Attributes
    ----------
    n_elements : int
        Number of uniform elements; ``q`` has one dof per element and the
        flux space has ``n_elements - 1`` interior-node dofs.
    breakpoints : tuple of float
        Interior subdomain boundaries.
    h : float
        Element width.
    mass_w : ndarray, shape (Nw, Nw)
        Diagonal element mass matrix (``h`` on the diagonal).
    s_div : ndarray, shape (Nv, Nw)
        Divergence pairing; column ``e`` has ``+1`` at the row of the right
        node of element ``e`` and ``-1`` at the row of its left node
        (boundary nodes excluded).
    mass_v_slices : ndarray, shape (Nv, Nv, p)
        Per-subdomain flux mass slices; ``Mv(mu) = sum_k mu_k^{-2} slice_k``.
    """

    n_elements: int
    breakpoints: tuple[float, ...]
    h: float
    mass_w: np.ndarray
    s_div: np.ndarray
    mass_v_slices: np.ndarray

    @property
    def n_w(self) -> int:
        return self.n_elements

    @property
    def n_v(self) -> int:
        return self.n_elements - 1

    @property
    def n_subdomains(self) -> int:
        return len(self.breakpoints) + 1


def build_wave_model(
    n_elements: int = 200,
    breakpoints: tuple[float, ...] = DEFAULT_BREAKPOINTS,
) -> WaveModel:
    """Assemble the mixed-space operators on a uniform mesh."""
    if n_elements < 2:
        raise ValueError(f"need at least 2 elements, got {n_elements}")
    breakpoints = tuple(float(b) for b in breakpoints)
    if any(not (0.0 < b < DOMAIN_LENGTH) for b in breakpoints):
        raise ValueError(f"breakpoints must lie inside (0, {DOMAIN_LENGTH})")
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")

    h = DOMAIN_LENGTH / n_elements
    all_nodes = np.linspace(0.0, DOMAIN_LENGTH, n_elements + 1)
    n_w = n_elements
    n_v = n_elements - 1
    p = len(breakpoints) + 1
    bp = np.asarray(breakpoints)

    mass_w = h * np.eye(n_w)

    # (indicator of element e, derivative of hat at node nd): +1 when the
    # element ends at the node, -1 when it starts there.
    s_div = np.zeros((n_v, n_w))
    for nd in range(1, n_elements):
        s_div[nd - 1, nd - 1] = 1.0
        s_div[nd - 1, nd] = -1.0

    mass_v_slices = np.zeros((n_v, n_v, p))
    local_mass = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    for e in range(n_elements):
        midpoint = 0.5 * (all_nodes[e] + all_nodes[e + 1])
        k = int(np.searchsorted(bp, midpoint))
        for a in (0, 1):
            i = e + a - 1
            if not (0 <= i < n_v):
                continue
            for b in (0, 1):
                j = e + b - 1
                if not (0 <= j < n_v):
                    continue
                mass_v_slices[i, j, k] += local_mass[a, b]

    return WaveModel(
        n_elements=n_elements,
        breakpoints=breakpoints,
        h=h,
        mass_w=mass_w,
        s_div=s_div,
        mass_v_slices=mass_v_slices,
    )


def _check_speeds(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (model.n_subdomains,):
        raise ValueError(
            f"expected {model.n_subdomains} wave speeds, got shape {mu.shape}"
        )
    if np.any(mu <= 0.0):
        raise ValueError("wave speeds must be strictly positive")
    return mu


def wave_mass_v(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Speed-weighted flux mass matrix ``sum_k mu_k^{-2} slice_k``."""
    mu = _check_speeds(model, mu)
    return np.einsum("ijk,k->ij", model.mass_v_slices, mu ** (-2.0))


def _mass_v_bands(model: WaveModel, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of ``sum_k w_k slice_k`` for weights ``(p,)`` or ``(p, S)``.

    Summed slice by slice, so each sample's bands do not depend on S (a
    matrix product rounds differently for different S).
    """
    weights = weights[..., None]
    return (sum(w * d for w, d in zip(weights, np.diagonal(model.mass_v_slices))),
            sum(w * e for w, e in zip(weights, np.diagonal(model.mass_v_slices, 1))))


def wave_stiffness(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Stiffness-like matrix ``K(mu) = S^T Mv(mu)^{-1} S`` (symmetric PSD).

    This is the mass-carried form of the position block:
    ``Mw pdot = -K(mu) q``.  ``Mv(mu)`` is factored as a tridiagonal, its
    solve takes the columns of ``S``, and ``S^T`` is applied as the
    bidiagonal it is; no explicit inverse.
    """
    diag, off = _mass_v_bands(model, _check_speeds(model, mu) ** (-2.0))
    # row a of the (N, 1, Nv) right-hand side is column a of S, so row a of
    # x is Mv^{-1} S e_a, and row a of kt is S^T Mv^{-1} S e_a = K e_a
    x = factor_tridiagonals(diag[None], off[None]).solve(
        np.ascontiguousarray(model.s_div.T)[:, None, :])[:, 0]
    kt = np.zeros((model.n_w, model.n_w))
    kt[:, :-1] = np.diagonal(model.s_div) * x
    kt[:, 1:] += np.diagonal(model.s_div, 1) * x
    return np.ascontiguousarray(kt.T)


def wave_operator_a1(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Position-block operator ``A1(mu) = Mw^{-1} S^T Mv(mu)^{-1} S``."""
    k = wave_stiffness(model, mu)
    return k / np.diag(model.mass_w)[:, None]


def wave_full_operator(model: WaveModel, mu: np.ndarray) -> np.ndarray:
    """Standard-form generator ``J A(mu) = [[0, I], [-A1(mu), 0]]``."""
    a1 = wave_operator_a1(model, mu)
    n = model.n_w
    top = np.hstack([np.zeros((n, n)), np.eye(n)])
    bottom = np.hstack([-a1, np.zeros((n, n))])
    return np.vstack([top, bottom])


def wave_sweep(
    model: WaveModel,
    params: np.ndarray,
    y0: np.ndarray,
    dt: float,
    n_times: int,
    t0: float = 0.0,
) -> list[Trajectory]:
    """Implicit-midpoint trajectories of ``ydot = J A(mu) y`` for every column of ``params`` (p, S).

    With ``v = q + dt/2 p`` and ``c = dt^2 / (4 h)``, the midpoint
    ``z = (q + q+) / 2`` solves ``(I + dt^2/4 A1(mu)) z = v``; through the
    Schur complement on the flux space,

        (Mv(mu) + c S S^T) sigma = S v,    z = v - c S^T sigma,
        q+ = 2 z - q,                      p+ = (4 / dt) (z - q) - p.

    The S tridiagonal systems are factored once, end to end, and one
    tridiagonal solve per step advances every sample
    (:func:`~topinf.rom.tridiagonal_sweep`).  The states agree with
    ``implicit_midpoint(wave_full_operator(model, mu), y0, dt, n_times)``
    to rounding, and the energy :func:`wave_hamiltonian` is conserved.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2:
        raise ValueError(f"expected one speed vector per column, got shape {params.shape}")
    for mu in params.T:
        _check_speeds(model, mu)
    y0 = np.asarray(y0, dtype=float)
    n = model.n_w
    if y0.shape != (2 * n,):
        raise ValueError(f"initial state must have length {2 * n}, got {y0.shape}")

    c = dt * dt / (4.0 * model.h)
    s0, s1 = np.diagonal(model.s_div), np.diagonal(model.s_div, 1)
    # S S^T: diagonal s0^2 + s1^2, off-diagonal S[i, i+1] S[i+1, i+1]
    diag, off = _mass_v_bands(model, params ** (-2.0))
    diag = diag + c * (s0**2 + s1**2)
    off = off + c * (s1[:-1] * s0[1:])
    cs0, cs1 = c * s0, c * s1

    def step(solve, y, out):
        q, p = y[:, :n], y[:, n:]
        z = q + (0.5 * dt) * p  # v, turned into z in place
        sigma = s0 * z[:, :-1]
        sigma += s1 * z[:, 1:]
        solve(sigma)
        z[:, :-1] -= cs0 * sigma  # z = v - c S^T sigma
        z[:, 1:] -= cs1 * sigma
        dz = np.subtract(z, q, out=out[:, n:])
        np.add(z, dz, out=out[:, :n])  # q+ = 2 z - q
        dz *= 4.0 / dt
        dz -= p  # p+ = (4/dt) (z - q) - p

    return tridiagonal_sweep(step, diag, off, y0, dt, n_times, t0)


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
    mu = _check_speeds(model, mu)
    y = np.asarray(y, dtype=float)
    n = model.n_w
    if y.shape[0] != 2 * n:
        raise ValueError(f"state must have length {2 * n}, got {y.shape[0]}")
    q, pvar = y[:n], y[n:]
    mv = wave_mass_v(model, mu)
    sigma = np.linalg.solve(mv, model.s_div @ q)
    pdot = -(model.s_div.T @ sigma) / np.diag(model.mass_w)
    return np.concatenate([pvar, pdot])


def wave_hamiltonian(model: WaveModel, mu: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Discrete energy ``1/2 p^T Mw p + 1/2 (S q)^T Mv^{-1} (S q)`` per column."""
    mu = _check_speeds(model, mu)
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


def wave_features(mu: np.ndarray) -> np.ndarray:
    """Feature vector ``(mu_1^2, ..., mu_p^2, 1)`` for the reduced model."""
    mu = np.asarray(mu, dtype=float)
    return np.concatenate([mu**2, [1.0]])


def sample_wave_speeds(
    rng: np.random.Generator,
    count: int,
    n_subdomains: int,
    lo: float = DEFAULT_RANGE[0],
    hi: float = DEFAULT_RANGE[1],
) -> np.ndarray:
    """Draw ``count`` uniform wave-speed vectors, one per column."""
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

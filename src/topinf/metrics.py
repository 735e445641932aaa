"""Accuracy and conservation metrics for reduced-order models.

All trajectory errors are relative L2 errors in a mass-matrix norm,
pooled over parameter samples:

    err = sqrt( sum_s ||Q_s^ref - Q_s^rom||_M^2 / sum_s ||Q_s^ref||_M^2 ),

with ``||Q||_M^2 = trace(Q^T M Q)``.  The projection error uses the
mass-orthogonal reconstruction ``U U^T M Q`` in place of the reduced
trajectory and lower-bounds any Galerkin ROM error in the same norm.

:func:`relative_l2` and :func:`projection_error` are the full-order
reference forms: the pipeline computes the same numbers in reduced
coordinates (see :func:`topinf.pipeline.evaluate`), and the tests check
it against these.
"""

from __future__ import annotations

import numpy as np

from . import rom
from .basis import ReducedBasis

__all__ = [
    "weighted_norm_sq",
    "relative_l2",
    "projection_error",
    "hamiltonian_drift",
]


def weighted_norm_sq(states: np.ndarray, mass: np.ndarray) -> float:
    """Squared mass-weighted norm ``trace(Q^T M Q)`` of a state matrix."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    return float(np.sum(states * (mass @ states)))


def _as_list(x) -> list[np.ndarray]:
    if isinstance(x, np.ndarray):
        return [x]
    return [np.asarray(a, dtype=float) for a in x]


def relative_l2(reference, candidate, mass: np.ndarray) -> float:
    """Pooled relative L2 error of candidate trajectories vs. references.

    ``reference`` and ``candidate`` are matching lists of state matrices
    (or a single pair).  Raises ``ValueError`` when the pooled reference
    norm vanishes.
    """
    refs = _as_list(reference)
    cands = _as_list(candidate)
    if len(refs) != len(cands):
        raise ValueError(f"got {len(refs)} references but {len(cands)} candidates")
    num = 0.0
    den = 0.0
    for ref, cand in zip(refs, cands):
        if ref.shape != cand.shape:
            raise ValueError(f"shape mismatch: {ref.shape} vs {cand.shape}")
        num += weighted_norm_sq(ref - cand, mass)
        den += weighted_norm_sq(ref, mass)
    if den == 0.0:
        raise ValueError("reference trajectories have zero norm")
    return float(np.sqrt(num / den))


def projection_error(snapshots, basis: ReducedBasis) -> float:
    """Pooled relative error of the mass-orthogonal projection onto the basis.

    Computes ``relative_l2`` between each snapshot set and its
    reconstruction ``U (U^T M) Q``; the weight is the basis weight, applied
    to each state block.
    """
    stacks = _as_list(snapshots)
    num = 0.0
    den = 0.0
    for states in stacks:
        recon = basis.lift(basis.project(states))
        num += _basis_norm_sq(states - recon, basis)
        den += _basis_norm_sq(states, basis)
    if den == 0.0:
        raise ValueError("snapshot sets have zero norm")
    return float(np.sqrt(num / den))


def _basis_norm_sq(states: np.ndarray, basis: ReducedBasis) -> float:
    blocks = states.reshape(basis.blocks, basis.weight.shape[0], -1)
    return sum(weighted_norm_sq(block, basis.weight) for block in blocks)


def hamiltonian_drift(model: rom.RomModel, nu: np.ndarray, trajectory) -> np.ndarray:
    """Absolute reduced-energy drift ``|H(y(t_k)) - H(y(t_0))|`` per step.

    ``trajectory`` is a :class:`~topinf.rom.Trajectory` or a state matrix.
    The model must carry symmetric structure flags (see
    :func:`topinf.rom.reduced_hamiltonian`).
    """
    states = getattr(trajectory, "states", trajectory)
    h = rom.reduced_hamiltonian(model, nu, states)
    return np.abs(h - h[0])

"""Dense tensor contractions and axis-merging (vectorization) primitives.

All arrays are ``numpy.ndarray`` with float entries.  An order-3 tensor
``t`` of shape ``(n1, n2, n3)`` acts on a vector ``v`` of length ``n3``
through its last axis, ``mode3_product(t, v)[i, j] = sum_x t[i, j, x] v[x]``;
this is how affine parametric operators ``A(mu) = mode3_product(T, mu)``
are evaluated throughout the package.

Axis merging comes in two flavours that differ only in which of the two
merged indices runs fastest:

* ``cvec(t, i, j)`` merges axes ``i < j`` into a single axis placed at
  position ``i``, with the index of axis ``i`` running fastest
  (column-style merge, merged index ``k_j * n_i + k_i``);
* ``rvec(t, i, j)`` merges them with the index of axis ``j`` fastest
  (row-style merge, merged index ``k_i * n_j + k_j``).

``cmat`` and ``rmat`` are the exact inverses.  Axis arguments are 0-based.
Composing the two merge styles with ``swap_axes`` satisfies
``rvec(swap_axes(t, i, j), i, j) == cvec(t, i, j)``.

Persisted tensors are stored row-major (C order), like matrices; see
:mod:`topinf.storage`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cvec",
    "rvec",
    "cmat",
    "rmat",
    "swap_axes",
    "mode3_product",
    "outer",
    "double_contract",
    "frobenius",
]


def _check_axis_pair(t: np.ndarray, i: int, j: int) -> None:
    if not (0 <= i < j < t.ndim):
        raise ValueError(
            f"need axes 0 <= i < j < ndim={t.ndim}, got i={i}, j={j}"
        )


def cvec(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """Merge axes ``i < j`` of ``t`` with the index of axis ``i`` fastest.

    The merged axis has length ``t.shape[i] * t.shape[j]`` and sits at
    position ``i``; entry ``(.., k_i, .., k_j, ..)`` of ``t`` lands at
    merged index ``k_j * t.shape[i] + k_i``.
    """
    t = np.asarray(t)
    _check_axis_pair(t, i, j)
    moved = np.moveaxis(t, j, i + 1)
    swapped = moved.swapaxes(i, i + 1)
    shape = swapped.shape
    return swapped.reshape(shape[:i] + (shape[i] * shape[i + 1],) + shape[i + 2:])


def rvec(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """Merge axes ``i < j`` of ``t`` with the index of axis ``j`` fastest.

    Entry ``(.., k_i, .., k_j, ..)`` lands at merged index
    ``k_i * t.shape[j] + k_j`` of the axis placed at position ``i``.
    """
    t = np.asarray(t)
    _check_axis_pair(t, i, j)
    moved = np.moveaxis(t, j, i + 1)
    shape = moved.shape
    return moved.reshape(shape[:i] + (shape[i] * shape[i + 1],) + shape[i + 2:])


def cmat(t: np.ndarray, i: int, j: int, sizes: tuple[int, int]) -> np.ndarray:
    """Invert :func:`cvec`: split axis ``i`` into axes of ``sizes`` at ``i, j``."""
    t = np.asarray(t)
    ni, nj = sizes
    if not (0 <= i < j <= t.ndim):
        raise ValueError(f"need 0 <= i < j <= ndim={t.ndim}, got i={i}, j={j}")
    if t.shape[i] != ni * nj:
        raise ValueError(
            f"axis {i} has length {t.shape[i]}, cannot split into {ni}*{nj}"
        )
    shape = t.shape
    split = t.reshape(shape[:i] + (nj, ni) + shape[i + 1:])
    swapped = split.swapaxes(i, i + 1)
    return np.moveaxis(swapped, i + 1, j)


def rmat(t: np.ndarray, i: int, j: int, sizes: tuple[int, int]) -> np.ndarray:
    """Invert :func:`rvec`: split axis ``i`` into axes of ``sizes`` at ``i, j``."""
    t = np.asarray(t)
    ni, nj = sizes
    if not (0 <= i < j <= t.ndim):
        raise ValueError(f"need 0 <= i < j <= ndim={t.ndim}, got i={i}, j={j}")
    if t.shape[i] != ni * nj:
        raise ValueError(
            f"axis {i} has length {t.shape[i]}, cannot split into {ni}*{nj}"
        )
    shape = t.shape
    split = t.reshape(shape[:i] + (ni, nj) + shape[i + 1:])
    return np.moveaxis(split, i + 1, j)


def swap_axes(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """Transpose axes ``i`` and ``j`` (bridges the two merge styles)."""
    return np.swapaxes(np.asarray(t), i, j)


def mode3_product(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Contract the last axis of an order-3 tensor against a vector.

    Returns the matrix ``sum_x t[:, :, x] * v[x]``.
    """
    t = np.asarray(t)
    v = np.asarray(v)
    if t.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got ndim={t.ndim}")
    if v.ndim != 1 or v.shape[0] != t.shape[2]:
        raise ValueError(
            f"vector of length {t.shape[2]} required, got shape {v.shape}"
        )
    return np.einsum("ijx,x->ij", t, v)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (outer) product; the result has ``a.ndim + b.ndim`` axes."""
    return np.tensordot(np.asarray(a), np.asarray(b), axes=0)


def double_contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the last two axes of ``a`` against the first two of ``b``.

    The pairing is reversed: the second-to-last axis of ``a`` meets the
    second axis of ``b`` and the last axis of ``a`` meets the first axis of
    ``b``, so that for matrices ``double_contract(a, b) == sum(a * b.T)``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("both operands need at least two axes")
    if a.shape[-2] != b.shape[1] or a.shape[-1] != b.shape[0]:
        raise ValueError(
            f"trailing axes {a.shape[-2:]} do not match leading axes "
            f"{b.shape[:2]} in reversed order"
        )
    return np.tensordot(a, b, axes=([a.ndim - 2, a.ndim - 1], [1, 0]))


def frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product ``sum(a * b)`` of two same-shaped arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.tensordot(a, b, axes=a.ndim))

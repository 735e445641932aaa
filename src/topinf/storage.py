"""Binary persistence for matrices, vectors and operator tensors.

Every artifact is one record::

    TPOI | version:u32 | ndim:u64 | dim_1:u64 ... dim_ndim:u64 | payload

with the magic bytes ``TPOI``, the version tag (currently 2) and the
dimensions little-endian, and the payload the ``dim_1 * ... * dim_ndim``
entries as 64-bit IEEE-754 little-endian floats in row-major (C) order.
A matrix is the record with two axes.  :func:`save_tensor` and
:func:`load_tensor` write and read every record; :func:`save_matrix` and
:func:`load_matrix` add the two-axis check.

Readers validate magic, version, header sanity, and exact payload length,
raising :class:`~topinf.errors.StorageFormatError` with a ``reason`` of
``"magic"``, ``"version"``, ``"header"``, ``"truncated"`` or ``"payload"``;
a file of an older version is refused, never reinterpreted.  Writers
refuse non-finite data, so identical arrays always produce byte-identical
files.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import StorageFormatError

__all__ = ["save_matrix", "load_matrix", "save_tensor", "load_tensor", "MAGIC", "VERSION"]

MAGIC = b"TPOI"
VERSION = 2

_PREFIX = struct.Struct("<4sIQ")


def save_tensor(path, t: np.ndarray) -> Path:
    """Write an N-D float array (N >= 1); returns the path written."""
    path = Path(path)
    t = np.asarray(t, dtype="<f8")
    if t.ndim < 1:
        raise ValueError("expected at least one axis")
    if not np.all(np.isfinite(t)):
        raise ValueError("refusing to persist non-finite entries")
    header = _PREFIX.pack(MAGIC, VERSION, t.ndim) + struct.pack(f"<{t.ndim}Q", *t.shape)
    path.write_bytes(header + t.tobytes(order="C"))
    return path


def load_tensor(path) -> np.ndarray:
    """Read an array written by :func:`save_tensor` or :func:`save_matrix`."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise StorageFormatError(f"{path}: file shorter than magic+version", reason="truncated")
    magic, version = struct.unpack_from("<4sI", raw, 0)
    if magic != MAGIC:
        raise StorageFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}",
                                 reason="magic")
    if version != VERSION:
        raise StorageFormatError(f"{path}: unsupported version {version}, expected {VERSION}",
                                 reason="version")
    if len(raw) < _PREFIX.size:
        raise StorageFormatError(f"{path}: incomplete header", reason="truncated")
    _, _, ndim = _PREFIX.unpack_from(raw, 0)
    if ndim == 0 or ndim > 32:
        raise StorageFormatError(f"{path}: implausible axis count {ndim}", reason="header")
    dims_end = _PREFIX.size + 8 * ndim
    if len(raw) < dims_end:
        raise StorageFormatError(f"{path}: incomplete dimension list", reason="truncated")
    dims = struct.unpack_from(f"<{ndim}Q", raw, _PREFIX.size)
    count = math.prod(dims)
    expected = dims_end + 8 * count
    if len(raw) != expected:
        raise StorageFormatError(
            f"{path}: payload is {len(raw) - dims_end} bytes, expected "
            f"{8 * count} for shape {tuple(dims)}",
            reason="truncated" if len(raw) < expected else "payload",
        )
    out = np.frombuffer(raw, dtype="<f8", offset=dims_end).reshape(dims).astype(float)
    if not np.all(np.isfinite(out)):
        raise StorageFormatError(f"{path}: non-finite entries in payload", reason="payload")
    return out


def save_matrix(path, a: np.ndarray) -> Path:
    """Write a 2-D float array; returns the path written."""
    if np.ndim(a) != 2:
        raise ValueError(f"expected a matrix, got ndim={np.ndim(a)}")
    return save_tensor(path, a)


def load_matrix(path) -> np.ndarray:
    """Read a two-axis record; any other axis count is a ``"header"`` error."""
    out = load_tensor(path)
    if out.ndim != 2:
        raise StorageFormatError(f"{path}: record has {out.ndim} axes, expected a matrix",
                                 reason="header")
    return out

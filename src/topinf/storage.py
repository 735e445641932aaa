"""Binary persistence for matrices, vectors and operator tensors.

Every artifact is one record::

    TPOI | version:u32 | ndim:u64 | dim_1:u64 ... dim_ndim:u64 | payload

with the magic bytes ``TPOI``, the version tag (currently 2) and the
dimensions little-endian, and the payload the ``dim_1 * ... * dim_ndim``
entries as 64-bit IEEE-754 little-endian floats in row-major (C) order.
A matrix is the record with two axes.  :class:`RowWriter` writes a
record one block of rows (leading-axis slices) at a time, so a record
can be filled while its data are produced; :func:`save_tensor` is its
one-block case.  :func:`load_tensor` reads every record;
:func:`save_matrix` and :func:`load_matrix` add the two-axis check.

Readers validate magic, version, header sanity, and exact payload length,
raising :class:`~topinf.errors.StorageFormatError` with a ``reason`` of
``"magic"``, ``"version"``, ``"header"``, ``"truncated"`` or ``"payload"``;
a file of an older version is refused, never reinterpreted, and a
record whose writer stopped before its last row reads as ``"truncated"``.
Writers refuse non-finite data, so identical arrays always produce
byte-identical files.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import StorageFormatError

__all__ = ["RowWriter", "save_matrix", "load_matrix", "save_tensor", "load_tensor", "MAGIC",
           "VERSION"]

MAGIC = b"TPOI"
VERSION = 2

_PREFIX = struct.Struct("<4sIQ")


class RowWriter:
    """A record of ``shape`` written one block of rows at a time; a context manager.

    A block holds whole rows, the slices along the first axis: its shape
    is ``(k,) + shape[1:]``.  The first :meth:`write` creates the file with
    the record's header, every write appends its block's rows, and the
    file stays open until :meth:`close` (or the end of the ``with``
    block).  A record closed with fewer than ``shape[0]`` rows is read
    back as ``"truncated"``.
    """

    def __init__(self, path, shape):
        self.path = Path(path)
        self.shape = tuple(int(d) for d in shape)
        if not self.shape:
            raise ValueError("expected at least one axis")
        self.rows = 0  # rows written so far
        self._file = None

    def write(self, block: np.ndarray) -> None:
        """Append the rows of ``block``, after the header on the first call.

        The block's own buffer is written, so a C-ordered float64 block is
        written with no copy; any other block is copied once, into C order.
        Refuses, writing nothing, a block of the wrong row shape, rows past
        the record's end and non-finite entries.
        """
        block = np.asarray(block, dtype="<f8", order="C")
        if block.ndim != len(self.shape) or block.shape[1:] != self.shape[1:]:
            raise ValueError(f"a block of shape {block.shape} does not hold rows of the "
                             f"record's shape {self.shape}")
        if self.rows + block.shape[0] > self.shape[0]:
            raise ValueError(f"{self.rows} + {block.shape[0]} rows exceed the record's "
                             f"{self.shape[0]}")
        # the extremes are finite exactly when every entry is (NaN propagates),
        # and reducing to them allocates nothing of the block's size
        if block.size and not (np.isfinite(block.min()) and np.isfinite(block.max())):
            raise ValueError("refusing to persist non-finite entries")
        if self._file is None:
            self._file = open(self.path, "wb")
            self._file.write(_PREFIX.pack(MAGIC, VERSION, len(self.shape)))
            self._file.write(struct.pack(f"<{len(self.shape)}Q", *self.shape))
        self._file.write(block.data)
        self.rows += block.shape[0]

    def close(self) -> None:
        """Close the file, if a write opened it; the record keeps the rows written."""
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "RowWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def save_tensor(path, t: np.ndarray) -> Path:
    """Write an N-D float array (N >= 1) as one block of a :class:`RowWriter`; returns the path.

    The header is written first and then the array's own buffer, so a
    C-ordered float64 array is written with no copy; any other array is
    copied once, into C order.  A refused array writes no file.
    """
    with RowWriter(path, np.shape(t)) as writer:
        writer.write(t)
    return writer.path


def load_tensor(path) -> np.ndarray:
    """Read an array written by :func:`save_tensor` or :func:`save_matrix`.

    The header is read and checked first; the payload is then read straight
    into the returned array, so a load holds its data once.
    """
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_PREFIX.size)
        if len(head) < 8:
            raise StorageFormatError(f"{path}: file shorter than magic+version",
                                     reason="truncated")
        magic, version = struct.unpack_from("<4sI", head, 0)
        if magic != MAGIC:
            raise StorageFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}",
                                     reason="magic")
        if version != VERSION:
            raise StorageFormatError(f"{path}: unsupported version {version}, expected {VERSION}",
                                     reason="version")
        if len(head) < _PREFIX.size:
            raise StorageFormatError(f"{path}: incomplete header", reason="truncated")
        _, _, ndim = _PREFIX.unpack(head)
        if ndim == 0 or ndim > 32:
            raise StorageFormatError(f"{path}: implausible axis count {ndim}", reason="header")
        dims_end = _PREFIX.size + 8 * ndim
        raw_dims = f.read(8 * ndim)
        if len(raw_dims) < 8 * ndim:
            raise StorageFormatError(f"{path}: incomplete dimension list", reason="truncated")
        dims = struct.unpack(f"<{ndim}Q", raw_dims)
        count = math.prod(dims)
        expected = dims_end + 8 * count
        if size != expected:
            raise StorageFormatError(
                f"{path}: payload is {size - dims_end} bytes, expected "
                f"{8 * count} for shape {tuple(dims)}",
                reason="truncated" if size < expected else "payload",
            )
        out = np.empty(dims, dtype="<f8")
        if f.readinto(out) != out.nbytes:
            raise StorageFormatError(f"{path}: file shrank while it was read",
                                     reason="truncated")
    out = out.astype(float, copy=False)
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

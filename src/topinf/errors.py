"""Exception types shared across the package.

Plain ``ValueError`` is used for argument/shape validation everywhere; the
classes below mark failures that carry extra diagnostic payload so callers
can react programmatically instead of parsing messages.
"""

from __future__ import annotations


class NumericError(RuntimeError):
    """A numerical routine could not complete reliably."""


class NotPositiveDefiniteError(NumericError):
    """Cholesky factorization hit a non-positive (or negligible) pivot.

    Attributes
    ----------
    pivot_index : int
        0-based index of the first offending pivot.
    sample : int or None
        For a stack of matrices factored at once, the 0-based index of the
        matrix that broke down; None for a single matrix.
    """

    def __init__(self, message: str, pivot_index: int, sample: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.sample = sample


class SingularMatrixError(NumericError):
    """A linear system is singular to working precision.

    Attributes
    ----------
    rank_estimate : int
        Estimated numerical rank of the matrix.
    cond_estimate : float
        Estimated condition number (may be ``inf``).
    """

    def __init__(self, message: str, rank_estimate: int, cond_estimate: float):
        super().__init__(message)
        self.rank_estimate = rank_estimate
        self.cond_estimate = cond_estimate


class NonUniqueSolutionError(NumericError):
    """The inference problem does not have a unique minimizer.

    Attributes
    ----------
    report : topinf.inference.UniquenessReport
        Rank diagnostics explaining which factor is deficient.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ResourceLimitError(RuntimeError):
    """A requested problem size exceeds a configured resource cap."""


class StructureError(RuntimeError):
    """An operation requires structural flags (e.g. symmetry) that are absent."""


class StorageFormatError(RuntimeError):
    """A persisted artifact does not conform to the binary format.

    Attributes
    ----------
    reason : str
        One of ``"magic"``, ``"version"``, ``"header"``, ``"truncated"``,
        ``"payload"``.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason

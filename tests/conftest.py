"""Fixtures shared by the test modules."""

import pytest

from topinf import linalg


@pytest.fixture
def two_blas_threads():
    """Two OpenBLAS threads while the test runs, so that a pinned thread reads apart; restored after."""
    found = linalg._openblas()
    if found is None:
        pytest.skip("NumPy loaded no OpenBLAS, so there is no thread count to set")
    _, get, put = found
    previous = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("this OpenBLAS runs on one thread only")
        yield 2
    finally:
        put(previous)

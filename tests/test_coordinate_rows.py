"""Property tests of the report's coordinate-row helpers: rows with at
most one entry each, whose null space and independence read off the
columns they touch, as an SVD of the same rows reads them."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ssnsdp.conditions import (  # noqa: E402
    CHECK_TOL,
    _row_split,
    _second_order_margin,
)


@st.composite
def single_entry_rows(draw):
    """CSR rows over n columns, each empty or with one nonzero entry;
    columns may repeat, and some columns are touched by no row."""
    n = draw(st.integers(1, 12))
    entry = st.one_of(
        st.none(),
        st.tuples(st.integers(0, n - 1),
                  st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)))
    rows = draw(st.lists(entry, max_size=15))
    indptr = np.cumsum([0] + [r is not None for r in rows])
    full = [r for r in rows if r is not None]
    return sp.csr_matrix(([v for _, v in full], [c for c, _ in full],
                          indptr), shape=(len(rows), n))


@given(single_entry_rows())
def test_null_basis_keeps_the_untouched_columns(C):
    keep, _ = _row_split(C)
    assert keep.ndim == 1
    want = np.setdiff1d(np.arange(C.shape[1]), np.unique(C.indices))
    assert np.array_equal(keep, want)


@given(single_entry_rows())
def test_independence_margin_of_single_entry_rows(C):
    rows, n = C.shape
    if rows == 0:
        want = float("inf")
    elif rows > n or np.any(np.diff(C.indptr) == 0):
        want = 0.0
    elif np.unique(C.indices).size < rows:
        # two rows share a coordinate
        want = 0.0
    else:
        want = float(np.min(np.abs(C.data)))
    assert _row_split(C)[1] == want


def projector(null, n):
    """Orthogonal projector onto the null directions of _row_split."""
    N = np.eye(n)[:, null] if null.ndim == 1 else null
    return N @ N.T


@settings(deadline=None, derandomize=True)
@given(single_entry_rows(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_coordinate_and_svd_paths_agree(C, seed, diagonal):
    """The coordinate pass over C and the SVD of C.toarray() give the
    same independence verdict, the same margin when independent, the
    same null space, and the same second-order margin on it, for a
    random symmetric curvature, dense and CSR (diagonal or not)."""
    n = C.shape[1]
    null, sigma = _row_split(C)
    basis, dense_sigma = _row_split(C.toarray())
    assert null.ndim == 1 and basis.ndim == 2
    assert (sigma <= CHECK_TOL) == (dense_sigma <= CHECK_TOL)
    if sigma > CHECK_TOL:
        assert_allclose(sigma, dense_sigma, rtol=1e-12)
    assert basis.shape[1] == null.size
    assert_allclose(projector(null, n), projector(basis, n), atol=1e-12)
    A = np.random.default_rng(seed).standard_normal((n, n))
    K = np.diag(np.diag(A)) if diagonal else A + A.T
    for form in (K, sp.csr_matrix(K)):
        assert_allclose(_second_order_margin(null, form),
                        _second_order_margin(basis, form),
                        rtol=1e-10, atol=1e-10)

"""Property tests of the report's coordinate-row helpers: rows with at
most one entry each, whose null space and independence read off the
columns they touch."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from ssnsdp.conditions import _independence_margin, _null_basis  # noqa: E402


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
    kind, keep = _null_basis(C)
    assert kind == "coords"
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
    assert _independence_margin(C) == want

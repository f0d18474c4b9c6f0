"""Property tests of the coordinate-row helpers: rows with at most one
entry each, whose null space and independence read off the columns they
touch, as an SVD of the same rows reads them, and the closed-form
inverse and verdict of a Newton matrix that such rows, with a diagonal
W and a scaled permutation G, split into small blocks."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ssnsdp._reduced import (  # noqa: E402
    _SINGULAR_RCOND,
    _SplitU,
    _coordinate_rows,
)
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


ENTRY = st.sampled_from([0.0, 1e-20, -1e-20, 1e-12, -3e-15, 1.0, -1.0]) \
    | st.floats(-1e3, 1e3)


@st.composite
def split_blocks(draw):
    """(w, gcol, g, v, pin, a) of a random split U (_SplitU): w, g and v
    with signed, zero and tiny entries, a random cone permutation gcol,
    and pins a, signed, zero or tiny too, on distinct random columns."""
    x = draw(st.integers(1, 12))
    w, g, v = (np.array(draw(st.lists(ENTRY, min_size=x, max_size=x)))
               for _ in range(3))
    gcol = np.array(draw(st.permutations(range(x))))
    pin = np.array(draw(st.permutations(range(x)))[:draw(st.integers(0, x))],
                   dtype=np.intp)
    a = np.array(draw(st.lists(ENTRY, min_size=pin.size,
                               max_size=pin.size)))
    return w, gcol, g, v, pin, a


def assembled_split(w, gcol, g, v, pin, a):
    """U of order 2 x + e from its blocks, as _SplitU defines them: x
    coordinate j, read by cone coordinate i (gcol[i] = j) with weight
    g[i], holds [[w_j, g_i], [(v_i - 1) g_i, v_i]] on the unknowns (dx_j,
    dG_i), and row r of J adds a[r] at (j, x + r) and (x + r, j) for j =
    pin[r]."""
    x, e = w.size, pin.size
    c = x + e + np.arange(x)
    U = np.zeros((2 * x + e, 2 * x + e))
    U[np.arange(x), np.arange(x)] = w
    U[gcol, c] = g
    U[c, gcol] = (v - 1.0) * g
    U[c, c] = v
    U[pin, x + np.arange(e)] = U[x + np.arange(e), pin] = a
    return U


@settings(deadline=None, derandomize=True)
@given(split_blocks(), st.integers(0, 2 ** 32 - 1))
def test_split_inverse_is_the_exact_rule_and_the_inverse(blocks, seed):
    """A split U reads singular exactly when the singular values of the
    assembled U, from svdvals, have min below _SINGULAR_RCOND max(1, max);
    otherwise 1-D and (dim, m) products with the closed-form U^{-1} and
    its transpose match np.linalg.solve, and a batch equals its
    columns."""
    split = _SplitU(*blocks)
    assume(math.isfinite(split.sigma + split.scale))
    U = assembled_split(*blocks)
    s = scipy.linalg.svdvals(U)
    ratio = s[-1] / (_SINGULAR_RCOND * max(s[0], 1.0))
    # the verdict reads the largest block Frobenius norm, within sqrt(3)
    # of s[0], and svdvals is off by a few ulps of s[0], a few percent of
    # the threshold: a verdict within a factor 2 of it is left open
    assume(not 0.5 < ratio < 2.0)
    assert split.singular == (ratio < 1.0)
    if split.singular:
        return
    inv = split.inverse(blocks[4].size)
    # two entries a row, three a row of J, so a pinned x coordinate's row
    # stores N's zero (0, 0) entry
    assert inv.nnz == 2 * U.shape[0] + blocks[4].size
    rng = np.random.default_rng(seed)
    for M, Minv in ((U, inv), (U.T, inv.T)):
        for rhs in (rng.standard_normal(U.shape[0]),
                    rng.standard_normal((U.shape[0], 4))):
            got = Minv @ rhs
            want = np.linalg.solve(M, rhs)
            assert got.shape == rhs.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(got, np.column_stack(
            [Minv @ rhs[:, c] for c in range(rhs.shape[1])]))


@pytest.mark.parametrize("rows", [
    # two rows on column 1: dependent
    ([1.0, 2.0], [1, 1], [0, 1, 2]),
    # a row with two entries
    ([1.0, 0.5, 2.0], [0, 2, 1], [0, 2, 3]),
    # an empty row
    ([1.0], [0], [0, 1, 1]),
])
def test_coordinate_rows_that_are_not_independent(rows):
    """Rows with a shared column or an empty row read as dependent
    coordinate rows; a row with two entries is no coordinate row."""
    B = sp.csr_matrix(rows, shape=(len(rows[2]) - 1, 3))
    got = _coordinate_rows(B)
    if np.diff(B.indptr).max() > 1:
        assert got is None
    else:
        assert not got[2]
        assert np.array_equal(got[0], B.indices)
    assert _coordinate_rows(B.toarray()) is None


def test_coordinate_rows_read_canonical_form():
    """Duplicates in one row sum to one entry; a stored zero is an entry,
    so a row holding only one reads independent with value 0."""
    B = sp.csr_matrix(([1.0, 2.0, 0.0], [1, 1, 0], [0, 2, 3]), shape=(2, 3))
    assert not B.has_canonical_format
    cols, vals, independent = _coordinate_rows(B)
    assert cols.tolist() == [1, 0] and vals.tolist() == [3.0, 0.0]
    assert independent
    # the caller's matrix is read, not summed in place
    assert B.nnz == 3
    # the stored zero pins coordinate 0 by a = 0: its block is singular
    assert _SplitU(np.ones(3), np.arange(3), np.ones(3), np.ones(3), cols,
                   vals).singular

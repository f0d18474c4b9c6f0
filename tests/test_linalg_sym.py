"""Unit tests for symmetric vectorization and the spectral operators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ssnsdp.linalg_sym import (
    SpectralDecomposition,
    _classified,
    apply_V,
    dproj_psd,
    eig_sym,
    project_psd,
    smat,
    svec,
    svec_len,
    svec_rotation,
    v_mask,
)

RT2 = np.sqrt(2.0)


def rand_sym(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M + M.T) / 2.0


def sym_with_spectrum(rng, lam):
    """Random symmetric matrix with exactly the given eigenvalues."""
    n = len(lam)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (Q * np.asarray(lam, dtype=float)) @ Q.T


# ---------------------------------------------------------------------------
# svec / smat


def test_svec_identity():
    assert_allclose(svec(np.eye(2)), [1.0, 0.0, 1.0])


def test_svec_offdiagonal_scaling():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(svec(A), [0.0, RT2, 0.0])


def test_svec_preserves_trace_inner_product():
    A = np.array([[1.0, 2.0], [2.0, 3.0]])
    B = np.array([[0.0, 1.0], [1.0, 4.0]])
    assert_allclose(svec(A) @ svec(B), 16.0)
    assert_allclose(svec(A) @ svec(B), np.trace(A @ B))


def test_svec_len_matches_vector_size():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7):
        assert svec(rand_sym(rng, n)).size == svec_len(n)


def test_smat_roundtrip():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 11):
        M = rand_sym(rng, n)
        assert_allclose(smat(svec(M)), M, atol=1e-14)
        v = rng.standard_normal(svec_len(n))
        assert_allclose(svec(smat(v)), v, atol=1e-14)


@pytest.mark.parametrize("n", [0, 1, 150])
@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
def test_svec_smat_bitwise_equal_index_formula(n, layout):
    """The flat-position svec and smat give the same bits as the
    two-array index formulas, whatever the memory layout of the input.
    The input is not symmetric, so reading the wrong triangle shows."""
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    M = {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A),
         "transposed": np.ascontiguousarray(A).T}[layout]
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, RT2)
    v = svec(M)
    ref = M[iu, ju] * scale
    assert v.dtype == ref.dtype and v.tobytes() == ref.tobytes()
    S = np.zeros((n, n))
    S[iu, ju] = v / scale
    S[ju, iu] = S[iu, ju]
    out = smat(v)
    assert out.shape == (n, n) and out.tobytes() == S.tobytes()
    # stacks of shape (m, len), C order and the transpose of the (len, m)
    # columns that _BlockData.cols passes
    for m in (0, 1, 3):
        V = rng.standard_normal((m, v.size))
        S = np.zeros((m, n, n))
        S[:, iu, ju] = V / scale
        S[:, ju, iu] = S[:, iu, ju]
        for stack in (V, np.ascontiguousarray(V.T).T):
            out = smat(stack)
            assert out.shape == (m, n, n) and out.tobytes() == S.tobytes()


def test_smat_rejects_non_triangular_length():
    with pytest.raises(ValueError):
        smat(np.zeros(4))


def test_svec_rotation_action_and_orthogonality():
    rng = np.random.default_rng(2)
    for n in (2, 4, 6):
        P = np.linalg.qr(rng.standard_normal((n, n)))[0]
        S = svec_rotation(P)
        for _ in range(3):
            H = rand_sym(rng, n)
            assert_allclose(S @ svec(H), svec(P.T @ H @ P), atol=1e-13)
        assert_allclose(S.T @ S, np.eye(svec_len(n)), atol=1e-13)


# ---------------------------------------------------------------------------
# eig_sym and classification


def test_eig_sym_orders_and_classifies():
    dec = eig_sym(np.diag([2.0, 0.0, -3.0]))
    assert_allclose(dec.lam, [2.0, 0.0, -3.0])
    assert list(dec.alpha) == [0]
    assert list(dec.beta) == [1]
    assert list(dec.gamma) == [2]


def test_eig_sym_zero_matrix_is_all_beta():
    dec = eig_sym(np.zeros((2, 2)))
    assert list(dec.beta) == [0, 1]
    assert dec.alpha.size == 0 and dec.gamma.size == 0


def test_eig_sym_classifies_relative_to_the_frobenius_norm():
    # ||A||_F = 2, so the zero test is |lam| <= 3e-12; a test relative to
    # max|lam| = 1 alone would call 2e-12 positive
    dec = eig_sym(np.diag([1.0] * 4 + [2e-12]))
    assert list(dec.alpha) == [0, 1, 2, 3]
    assert list(dec.beta) == [4]
    assert dec.gamma.size == 0


@pytest.mark.filterwarnings("error")
def test_eig_sym_classifies_at_large_magnitudes():
    # ||A||_F = 1.4e200: its sum of squares overflows, and a tolerance of
    # inf would call all three eigenvalues beta
    dec = eig_sym(np.diag([1e200, 2.0, -1e200]))
    assert list(dec.alpha) == [0]
    assert list(dec.beta) == [1]
    assert list(dec.gamma) == [2]


def test_eig_sym_empty_block():
    dec = eig_sym(np.zeros((0, 0)))
    assert dec.lam.size == dec.alpha.size == dec.beta.size == 0


def test_classified_counts_signed_zeros_as_beta():
    lam = np.array([1.0, 0.0, -0.0, -1.0])
    dec = _classified(np.eye(4), lam, 0.0)
    assert list(dec.alpha) == [0]
    assert list(dec.beta) == [1, 2]
    assert list(dec.gamma) == [3]


def test_classified_orders_any_spectrum_into_ranges():
    """Property: _classified takes eigenpairs in any order and returns
    them nonincreasing, with alpha, beta and gamma the ranges [0, a),
    [a, k) and [k, n), a C-contiguous P, and the same matrix."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    magnitude = st.floats(1e-6, 1e6)
    eigenvalue = (st.sampled_from([0.0, -0.0, 1e-14, -1e-14]) | magnitude
                  | magnitude.map(lambda t: -t))
    tol = 1e-12

    @hyp.settings(max_examples=200, deadline=None, derandomize=True)
    @hyp.given(lam=st.lists(eigenvalue, max_size=9),
               seed=st.integers(0, 2**16))
    def check(lam, seed):
        lam = np.array(lam, dtype=float)
        n = lam.size
        rng = np.random.default_rng(seed)
        P = np.linalg.qr(rng.standard_normal((n, n)))[0]
        dec = _classified(P, lam, tol)
        assert np.all(np.diff(dec.lam) <= 0.0)
        a, k = dec.alpha.size, n - dec.gamma.size
        assert list(dec.alpha) == list(range(a))
        assert list(dec.beta) == list(range(a, k))
        assert list(dec.gamma) == list(range(k, n))
        assert np.all(dec.lam[:a] > tol)
        assert np.all(np.abs(dec.lam[a:k]) <= tol)
        assert np.all(dec.lam[k:] < -tol)
        assert dec.P.flags.c_contiguous
        scale = 1.0 + np.abs(lam).max(initial=0.0)
        assert_allclose((dec.P * dec.lam) @ dec.P.T, (P * lam) @ P.T,
                        rtol=0, atol=1e-13 * scale)

    check()


def test_eig_sym_is_eigh_reversed_bitwise():
    """eig_sym's P and lam are eigh's output reversed, bit for bit, ties
    included, with P C-contiguous."""
    rng = np.random.default_rng(12)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    mats = [rand_sym(rng, n, scale=3.0) for n in (1, 2, 5, 9)]
    mats.append(np.diag([1.0, 1.0, 1.0, 0.0, 0.0]))
    mats.append((Q * np.array([2.0, -1.0, 2.0, 2.0])) @ Q.T)
    for A in mats:
        lam, P = np.linalg.eigh(A)
        dec = eig_sym(A)
        assert dec.lam.tobytes() == lam[::-1].tobytes()
        assert dec.P.tobytes() == P[:, ::-1].tobytes()
        assert dec.P.flags.c_contiguous


def test_eig_sym_hand_2x2():
    dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(dec.lam, [1.0, -1.0])
    # eigenvectors are +-(1,1)/sqrt(2) and +-(1,-1)/sqrt(2)
    assert_allclose(np.abs(dec.P), np.full((2, 2), 1.0 / RT2), atol=1e-14)


def test_eig_sym_reconstructs():
    rng = np.random.default_rng(3)
    for n in (1, 3, 8):
        A = rand_sym(rng, n, scale=5.0)
        dec = eig_sym(A)
        assert np.all(np.diff(dec.lam) <= 1e-12)
        assert_allclose((dec.P * dec.lam) @ dec.P.T, A, atol=1e-12)
        assert_allclose(dec.P.T @ dec.P, np.eye(n), atol=1e-13)


# ---------------------------------------------------------------------------
# projection


def test_project_psd_clips_negative_eigenvalues():
    out = project_psd(eig_sym(np.diag([2.0, -3.0])))
    assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-14)


def test_project_psd_fixes_psd_matrices():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((4, 4))
    A = B @ B.T
    assert_allclose(project_psd(eig_sym(A)), A, atol=1e-12)


def test_project_psd_hand_2x2():
    out = project_psd(eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_moreau_decomposition():
    rng = np.random.default_rng(5)
    for n in (2, 5, 9):
        for _ in range(5):
            A = rand_sym(rng, n, scale=3.0)
            tol = 1e-10 * (1.0 + np.linalg.norm(A))
            pos = project_psd(eig_sym(A))
            neg = project_psd(eig_sym(-A))
            assert np.linalg.norm(pos - neg - A) <= tol
            assert abs(np.sum(pos * neg)) <= tol


# ---------------------------------------------------------------------------
# divided differences and the directional derivative


def test_xi_matrix_hand_values():
    dec = eig_sym(np.diag([2.0, 0.0, -3.0]))
    Xi = v_mask(dec, "UI")
    assert_allclose(Xi[0, 2], 0.4)  # 2 / (2 - (-3))
    assert_allclose(Xi[2, 0], 0.4)
    assert Xi[0, 0] == 1.0 and Xi[0, 1] == 1.0 and Xi[1, 1] == 1.0
    assert Xi[1, 2] == 0.0 and Xi[2, 2] == 0.0


def test_xi_matrix_alpha_gamma_entries_in_unit_interval():
    rng = np.random.default_rng(6)
    dec = eig_sym(rand_sym(rng, 7, scale=4.0))
    Xi = v_mask(dec, "UI")
    sub = Xi[np.ix_(dec.alpha, dec.gamma)]
    assert np.all(sub > 0.0) and np.all(sub < 1.0)


def test_dproj_hand_case():
    dec = eig_sym(np.diag([1.0, -1.0]))
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(dproj_psd(dec, H), [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)


def test_dproj_at_zero_is_projection():
    rng = np.random.default_rng(7)
    dec = eig_sym(np.zeros((3, 3)))
    H = rand_sym(rng, 3)
    assert_allclose(dproj_psd(dec, H), project_psd(eig_sym(H)), atol=1e-13)


def test_dproj_matches_finite_differences_when_smooth():
    rng = np.random.default_rng(8)
    for n in (2, 4):
        A = sym_with_spectrum(rng, np.linspace(1.0, -1.0, n))
        dec = eig_sym(A)
        assert dec.beta.size == 0
        H = rand_sym(rng, n)
        D = dproj_psd(dec, H)
        errs = []
        ts = [1e-3, 1e-5]
        for t in ts:
            fd = (project_psd(eig_sym(A + t * H)) - project_psd(dec)) / t
            errs.append(np.linalg.norm(fd - D))
        # first-order error shrinks linearly with the step
        assert errs[1] <= errs[0] * 1e-1


# ---------------------------------------------------------------------------
# surrogate derivatives


def test_v_mask_variants_and_unknown():
    dec = eig_sym(np.diag([1.0, 0.0, -1.0]))
    D0 = v_mask(dec, "U0")
    DI = v_mask(dec, "UI")
    assert D0[1, 1] == 0.0
    assert DI[1, 1] == 1.0
    off = ~np.eye(3, dtype=bool)
    assert_allclose(D0[off], DI[off])
    with pytest.raises(ValueError):
        v_mask(dec, "W1")


def test_v_mask_aliases_agree():
    """The variants are named "U0" and "UI" only: the old aliases "V0" and
    "VI" are rejected, by v_mask and through it by apply_V, as
    SolverParams rejects them."""
    rng = np.random.default_rng(9)
    dec = eig_sym(rand_sym(rng, 5))
    for alias in ("V0", "VI"):
        with pytest.raises(ValueError):
            v_mask(dec, alias)
        with pytest.raises(ValueError):
            apply_V(dec, alias, np.eye(5))


def sector_by_sector(dec, beta_beta):
    """The mask written one index-set sector at a time."""
    a, b, g = dec.alpha, dec.beta, dec.gamma
    D = np.zeros((dec.n, dec.n))
    for rows, cols in ((a, a), (a, b), (b, a)):
        D[np.ix_(rows, cols)] = 1.0
    D[np.ix_(b, b)] = beta_beta
    la, lg = dec.lam[a], dec.lam[g]
    frac = la[:, None] / (la[:, None] - lg[None, :])
    D[np.ix_(a, g)] = frac
    D[np.ix_(g, a)] = frac.T
    return D


def test_masks_match_the_sector_by_sector_reference_bitwise():
    """Property: over spectra in any order, with alpha, beta or gamma
    empty, both variants' v_mask equal the sector-by-sector construction
    bit for bit."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    magnitude = st.floats(1e-6, 1e6)
    eigenvalue = (st.sampled_from([0.0, -0.0, 1e-14, -1e-14]) | magnitude
                  | magnitude.map(lambda t: -t))

    @hyp.settings(max_examples=200, deadline=None, derandomize=True)
    @hyp.given(lam=st.lists(eigenvalue, max_size=9))
    @hyp.example(lam=[])
    @hyp.example(lam=[3.0, 0.0])          # gamma empty
    @hyp.example(lam=[3.0, -2.0, 1.0])    # beta empty
    @hyp.example(lam=[0.0, -2.0])         # alpha empty
    def check(lam):
        dec = _classified(np.eye(len(lam)), np.array(lam, dtype=float),
                          1e-12)
        for got, beta_beta in ((v_mask(dec, "UI"), 1.0),
                               (v_mask(dec, "U0"), 0.0)):
            want = sector_by_sector(dec, beta_beta)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    check()


def test_apply_V_agrees_with_dproj_when_strictly_complementary():
    rng = np.random.default_rng(10)
    A = sym_with_spectrum(rng, [3.0, 1.0, -0.5, -2.0])
    dec = eig_sym(A)
    H = rand_sym(rng, 4)
    D = dproj_psd(dec, H)
    assert_allclose(apply_V(dec, "U0", H), D, atol=1e-13)
    assert_allclose(apply_V(dec, "UI", H), D, atol=1e-13)


def test_apply_V_at_zero_matrix():
    rng = np.random.default_rng(11)
    dec = eig_sym(np.zeros((3, 3)))
    H = rand_sym(rng, 3)
    assert_allclose(apply_V(dec, "U0", H), np.zeros((3, 3)), atol=1e-15)
    assert_allclose(apply_V(dec, "UI", H), H, atol=1e-14)


def test_apply_V_hand_case():
    dec = eig_sym(np.diag([2.0, 0.0, -3.0]))
    H = np.ones((3, 3))
    out0 = apply_V(dec, "U0", H)
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    want[0, 1] = want[1, 0] = 1.0
    want[0, 2] = want[2, 0] = 0.4
    assert_allclose(out0, want, atol=1e-14)
    outI = apply_V(dec, "UI", H)
    want[1, 1] = 1.0
    assert_allclose(outI, want, atol=1e-14)


def test_apply_V_operator_is_symmetric_contraction():
    """In svec coordinates the surrogate is a symmetric matrix with
    eigenvalues inside [0, 1]."""
    rng = np.random.default_rng(12)
    for n in (2, 4, 6):
        A = rand_sym(rng, n, scale=2.0)
        dec = eig_sym(A)
        m = svec_len(n)
        for variant in ("U0", "UI"):
            op = np.empty((m, m))
            basis = np.eye(m)
            for j in range(m):
                op[:, j] = svec(apply_V(dec, variant, smat(basis[j])))
            assert_allclose(op, op.T, atol=1e-13)
            w = np.linalg.eigvalsh(op)
            assert w.min() >= -1e-10
            assert w.max() <= 1.0 + 1e-10


def test_eigenbasis_choice_does_not_matter():
    """Repeated eigenvalues leave the eigenbasis ambiguous; the operators
    must not depend on which basis LAPACK picked."""
    rng = np.random.default_rng(13)
    lam = [2.0, 2.0, 0.0, 0.0, -1.0, -1.0]
    A = sym_with_spectrum(rng, lam)
    dec1 = eig_sym(A)
    P2 = dec1.P.copy()
    for val in (2.0, 0.0, -1.0):
        idx = np.where(np.abs(dec1.lam - val) < 1e-8)[0]
        Q = np.linalg.qr(rng.standard_normal((idx.size, idx.size)))[0]
        P2[:, idx] = P2[:, idx] @ Q
    dec2 = SpectralDecomposition(P=P2, lam=dec1.lam.copy(), alpha=dec1.alpha,
                                 beta=dec1.beta, gamma=dec1.gamma)
    H = rand_sym(rng, 6)
    assert_allclose(project_psd(dec1), project_psd(dec2), atol=1e-12)
    assert_allclose(dproj_psd(dec1, H), dproj_psd(dec2, H), atol=1e-12)
    for variant in ("U0", "UI"):
        assert_allclose(apply_V(dec1, variant, H),
                        apply_V(dec2, variant, H), atol=1e-12)


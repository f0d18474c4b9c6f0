"""Symmetric-matrix vectorization and spectral operators.

Everything downstream works in svec coordinates: the upper triangle read
row by row, off-diagonal entries scaled by sqrt(2), so that the Euclidean
inner product of svec vectors equals the trace inner product of the
matrices they encode.

Spectral decompositions carry an eigenvalue classification into positive
(alpha), near-zero (beta) and negative (gamma) index sets, which
_classified, the one place that orders a spectrum, makes ranges of the
nonincreasing eigenvalues.  The projection onto the positive semidefinite
cone, its directional derivative, and the two generalized-derivative
surrogates used by the Newton solver all read the classes as ranges.
"""

import numpy as np
from dataclasses import dataclass
from scipy.linalg.blas import dnrm2


def svec_len(n):
    """Length of the svec image of an n x n symmetric matrix."""
    return n * (n + 1) // 2


_TRIU_CACHE = {}


def _triu(n):
    """Cached (rows, cols, scale, upper, at, scale_at) for the row-major
    upper triangle.

    scale is sqrt(2) on off-diagonal positions and 1 on the diagonal;
    upper holds the flat C-order position rows*n+cols of each pair.  at
    maps every flat position of an n x n matrix to the svec index of its
    pair or of its mirror, and scale_at is scale gathered through at.
    """
    got = _TRIU_CACHE.get(n)
    if got is None:
        iu, ju = np.triu_indices(n)
        scale = np.where(iu == ju, 1.0, np.sqrt(2.0))
        upper = iu * n + ju
        at = np.empty(n * n, dtype=np.intp)
        at[upper] = at[ju * n + iu] = np.arange(iu.size)
        got = (iu, ju, scale, upper, at, scale[at])
        _TRIU_CACHE[n] = got
    return got


def svec(M):
    """Map a symmetric matrix to its svec vector; a stack of matrices,
    shape (..., n, n), maps to a stack of vectors, shape (..., len).

    The input is trusted to be symmetric; only the upper triangle is read.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    _, _, scale, upper, _, _ = _triu(n)
    # reshape reads any memory layout in C order; take on flat positions
    # is several times faster than the two-array index M[iu, ju]
    return M.reshape(M.shape[:-2] + (n * n,)).take(upper, axis=-1) * scale


def smat(v):
    """Inverse of svec, on one vector or on a stack, shape (..., len)."""
    v = np.asarray(v, dtype=float)
    k = v.shape[-1]
    # solve n(n+1)/2 = k for n
    n = int(round((np.sqrt(8 * k + 1) - 1) / 2))
    if svec_len(n) != k:
        raise ValueError(f"svec vector of length {k} has no matrix order")
    _, _, _, _, at, scale_at = _triu(n)
    # one gather from the position map; dividing after the gather gives
    # the same bits as dividing first and scattering twice
    M = v.take(at, axis=-1) / scale_at
    return M.reshape(v.shape[:-1] + (n, n))


def svec_rotation(P):
    """Matrix S with S @ svec(H) == svec(P.T @ H @ P) for all symmetric H.

    S is orthogonal whenever P is.  Rows and columns are indexed by the
    row-major upper triangle.
    """
    return _svec_rotation_rows(P, np.arange(svec_len(P.shape[0])))


def _svec_rotation_rows(P, pairs):
    """Selected rows of svec_rotation(P), one per svec position in pairs.

    Row p, the pair (i, j) with i <= j, applied to svec(H) yields the
    (i, j) svec coordinate of P.T @ H @ P.  Built by chunks of batched
    outer products so large selections stay within a modest memory
    envelope.
    """
    n = P.shape[0]
    iu, ju, scale = _triu(n)[:3]
    k = len(pairs)
    out = np.empty((k, svec_len(n)))
    chunk = max(1, int(2_000_000 // max(svec_len(n), 1)))
    for s in range(0, k, chunk):
        bp = pairs[s:s + chunk]
        # outer(P[:,i], P[:,j]) symmetrized, then svec-scaled
        A = P[:, iu[bp]].T[:, :, None] * P[:, ju[bp]].T[:, None, :]
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        block = A[:, iu, ju] * scale
        out[s:s + chunk] = block * scale[bp][:, None]
    return out


@dataclass
class SpectralDecomposition:
    """Eigendecomposition A = P diag(lam) P.T with classified spectrum.

    lam is nonincreasing (_classified orders it), so alpha / beta /
    gamma, the indices of eigenvalues above, within, and below eig_sym's
    tolerance, are the ranges [0, a), [a, k) and [k, n), and every reader
    takes them as ranges: v_mask and dproj_psd by slices;
    solver._correct_with_decomps keeps them, moving what it clips into
    beta; _reduced._BlockData reads its alpha-gamma pairs, zero-mask
    pairs and T from a and k.
    """

    P: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    @property
    def n(self):
        return self.lam.size


def _classified(P, lam, tol):
    """SpectralDecomposition of P diag(lam) P.T, eigenpairs in any order,
    sorted stably into nonincreasing order (on eigh's output, its
    reversal) with P C-contiguous: alpha / beta / gamma, lam > tol,
    |lam| <= tol and lam < -tol, are the ranges [0, a), [a, k), [k, n)."""
    order = np.argsort(lam, kind="stable")[::-1]
    lam = lam[order]
    idx = np.arange(lam.size)
    a = np.count_nonzero(lam > tol)
    k = lam.size - np.count_nonzero(lam < -tol)
    return SpectralDecomposition(P=P.take(order, axis=1), lam=lam,
                                 alpha=idx[:a], beta=idx[a:k], gamma=idx[k:])


def eig_sym(A):
    """Spectral decomposition with nonincreasing eigenvalues (_classified).

    Eigenvalues within 1e-12 * (1 + ||A||_F) of zero are classified beta;
    the solver, the KKT map and the regularity report all read this one
    rule.  Ties inside repeated eigenvalues resolve to whatever basis
    LAPACK returns; consumers must not depend on the choice.  ||A||_F is
    BLAS dnrm2, which scales: a plain sum of squares overflows at 1.3e154.
    """
    A = np.asarray(A, dtype=float)
    lam, P = np.linalg.eigh(A)
    fro = float(dnrm2(A.ravel())) if A.size else 0.0
    return _classified(P, lam, 1e-12 * (1.0 + fro))


def project_psd(decomp):
    """Projection of the decomposed matrix onto the PSD cone."""
    pos = np.maximum(decomp.lam, 0.0)
    return (decomp.P * pos) @ decomp.P.T


def dproj_psd(decomp, H):
    """Directional derivative of the PSD projection at the decomposed matrix.

    In the eigenbasis the derivative scales sectors by the divided
    differences (the UI mask of v_mask) and projects the beta x beta
    block, the range [a, k), onto its own PSD cone; the beta x gamma and
    gamma x gamma sectors vanish.
    """
    P = decomp.P
    Ht = P.T @ np.asarray(H, dtype=float) @ P
    M = v_mask(decomp, "UI") * Ht
    b = slice(decomp.alpha.size, decomp.n - decomp.gamma.size)
    M[b, b] = project_psd(eig_sym(Ht[b, b]))
    return P @ M @ P.T


def v_mask(decomp, variant):
    """Sector mask of the Newton surrogate for the projection derivative.

    "UI" is the matrix of first divided differences of t -> max(t, 0):
    1 on alpha x alpha, alpha x beta and beta x beta, lam_i / (lam_i -
    lam_j) in (0, 1) on alpha x gamma, 0 on beta x gamma and gamma x
    gamma; "U0" is 0 on beta x beta too.  Each sector is a slice of the
    class ranges.  The returned symmetric matrix D acts as H -> P (D o
    (P.T H P)) P.T and in svec coordinates its operator is orthogonally
    similar to diag(svec-mask), so every operator eigenvalue is an entry
    of D.
    """
    if variant not in ("U0", "UI"):
        raise ValueError(f"unknown variant {variant!r}")
    n, lam = decomp.n, decomp.lam
    a, k = decomp.alpha.size, n - decomp.gamma.size
    D = np.zeros((n, n))
    D[:a, :k] = 1.0
    D[:k, :a] = 1.0
    if variant == "UI":
        D[a:k, a:k] = 1.0
    la = lam[:a, None]
    D[:a, k:] = la / (la - lam[k:])
    D[k:, :a] = D[:a, k:].T
    return D


def apply_V(decomp, variant, H):
    """Apply the Newton surrogate derivative to a symmetric matrix H."""
    P = decomp.P
    Ht = P.T @ np.asarray(H, dtype=float) @ P
    return P @ (v_mask(decomp, variant) * Ht) @ P.T

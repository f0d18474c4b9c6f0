"""Symmetric-matrix vectorization and spectral operators.

Everything downstream works in svec coordinates: the upper triangle read
row by row, off-diagonal entries scaled by sqrt(2), so that the Euclidean
inner product of svec vectors equals the trace inner product of the
matrices they encode.

Spectral decompositions carry an eigenvalue classification into positive
(alpha), near-zero (beta) and negative (gamma) index sets.  The projection
onto the positive semidefinite cone, its directional derivative, and the
two generalized-derivative surrogates used by the Newton solver are all
expressed through that classification.
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
    n = P.shape[0]
    return _svec_rotation_rows(P, *np.triu_indices(n))


def _svec_rotation_rows(P, rows_i, rows_j):
    """Selected rows of svec_rotation(P), one per (i, j) pair with i <= j.

    Row (i, j) applied to svec(H) yields the (i, j) svec coordinate of
    P.T @ H @ P.  Built by chunks of batched outer products so large
    selections stay within a modest memory envelope.
    """
    n = P.shape[0]
    iu, ju, scale = _triu(n)[:3]
    k = len(rows_i)
    out = np.empty((k, svec_len(n)))
    chunk = max(1, int(2_000_000 // max(svec_len(n), 1)))
    for s in range(0, k, chunk):
        bi = rows_i[s:s + chunk]
        bj = rows_j[s:s + chunk]
        # outer(P[:,i], P[:,j]) symmetrized, then svec-scaled
        A = P[:, bi].T[:, :, None] * P[:, bj].T[:, None, :]
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        block = A[:, iu, ju] * scale
        w = np.where(bi == bj, 1.0, np.sqrt(2.0))
        out[s:s + chunk] = block * w[:, None]
    return out


@dataclass
class SpectralDecomposition:
    """Eigendecomposition A = P diag(lam) P.T with classified spectrum.

    lam is nonincreasing.  alpha / beta / gamma hold the indices of
    eigenvalues above, within, and below the classification tolerance.
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
    """SpectralDecomposition of P diag(lam) P.T whose alpha / beta / gamma
    are lam > tol, |lam| <= tol and lam < -tol."""
    idx = np.arange(lam.size)
    return SpectralDecomposition(
        P=P, lam=lam, alpha=idx[lam > tol], beta=idx[np.abs(lam) <= tol],
        gamma=idx[lam < -tol])


def eig_sym(A):
    """Spectral decomposition with nonincreasing eigenvalues.

    Eigenvalues within 1e-12 * (1 + ||A||_F) of zero are classified beta;
    the solver, the KKT map and the regularity report all read this one
    rule.  Ties inside repeated eigenvalues resolve to whatever basis
    LAPACK returns; consumers must not depend on the choice.  ||A||_F is
    BLAS dnrm2, which scales: a plain sum of squares overflows at 1.3e154.
    """
    A = np.asarray(A, dtype=float)
    lam, P = np.linalg.eigh(A)
    fro = float(dnrm2(A.ravel())) if A.size else 0.0
    return _classified(P[:, ::-1].copy(), lam[::-1].copy(),
                       1e-12 * (1.0 + fro))


def project_psd(decomp):
    """Projection of the decomposed matrix onto the PSD cone."""
    pos = np.maximum(decomp.lam, 0.0)
    return (decomp.P * pos) @ decomp.P.T


def xi_matrix(decomp):
    """First divided differences of t -> max(t, 0) on the classified spectrum.

    Entries by sector: 1 on alpha x alpha, alpha x beta and beta x beta;
    lam_i / (lam_i - lam_j) on alpha x gamma (in (0, 1)); 0 on beta x gamma
    and gamma x gamma.  Symmetric.
    """
    a, b, g = decomp.alpha, decomp.beta, decomp.gamma
    ab = np.zeros(decomp.n, dtype=bool)
    ab[a] = True
    ab[b] = True
    Xi = np.outer(ab, ab).astype(float)
    if len(a) and len(g):
        la = decomp.lam[a]
        lg = decomp.lam[g]
        frac = la[:, None] / (la[:, None] - lg[None, :])
        Xi[np.ix_(a, g)] = frac
        Xi[np.ix_(g, a)] = frac.T
    return Xi


def dproj_psd(decomp, H):
    """Directional derivative of the PSD projection at the decomposed matrix.

    In the eigenbasis the derivative scales sectors by the divided
    differences and projects the beta x beta block onto its own PSD cone;
    the beta x gamma and gamma x gamma sectors vanish.
    """
    P = decomp.P
    Ht = P.T @ np.asarray(H, dtype=float) @ P
    M = xi_matrix(decomp) * Ht
    b = decomp.beta
    if len(b):
        sub = eig_sym(Ht[np.ix_(b, b)])
        M[np.ix_(b, b)] = project_psd(sub)
    return P @ M @ P.T


def v_mask(decomp, variant):
    """Sector mask of the Newton surrogate for the projection derivative.

    Variant "U0" takes the zero map on the beta x beta block, "UI" the
    identity; both agree with the divided differences elsewhere.  The
    returned symmetric matrix D acts as H -> P (D o (P.T H P)) P.T and in
    svec coordinates its operator is orthogonally similar to
    diag(svec-mask), so every operator eigenvalue is an entry of D.
    """
    if variant == "U0":
        beta_val = 0.0
    elif variant == "UI":
        beta_val = 1.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    D = xi_matrix(decomp)
    b = decomp.beta
    if len(b):
        D[np.ix_(b, b)] = beta_val
    return D


def apply_V(decomp, variant, H):
    """Apply the Newton surrogate derivative to a symmetric matrix H."""
    P = decomp.P
    Ht = P.T @ np.asarray(H, dtype=float) @ P
    return P @ (v_mask(decomp, variant) * Ht) @ P.T


"""The solver's Newton backends.

Rotating the cone coordinates by the svec form of the eigenbasis turns the
Newton operator into

    Ut = [ W    J'   Gt' ]
         [ J    0    0   ]
         [(D-I)Gt  0  D  ]

with D the diagonal surrogate mask over eigenvalue pairs and Gt the rotated
cone Jacobian.  The variant is the Newton element t UI + (1 - t) U0 of the
segment between the two named ones, t the beta x beta entry of the mask
(linalg_sym.variant_t: "U0" is t = 0, "UI" t = 1, and the regularity
report's Clarke midpoint t = 1/2).  Pairs with d > 0 eliminate in closed
form; pairs with d = 0 survive as constraints.  What remains is one
symmetric system

    R = [ K    J'   Gz' ]      K = W + Gp' C Gp
        [ J    0    0   ]
        [ Gz   0    0   ]

where C = (1 - d)/d is nonzero exactly on the curvature pairs: the
positive/negative eigenvalue pairs, with value -lam_j / lam_i there, and
at 0 < t < 1 the beta x beta pairs, with value (1 - t)/t.  One
factorization of R per iterate serves the Newton steps and, by Lanczos
iteration on (U' U)^{-1}, the smallest singular value, unless U itself
splits into small blocks (see below).

The transpose solve is the forward solve.  In the original coordinates
U = S Y Q with S = diag(I, I, -I), Q = [[I, 0, 0], [0, I, 0], [G, 0, I]]
and Y = [[W - G'G, J', G'], [J, 0, 0], [G, 0, -V]] symmetric, because V
is self-adjoint in svec coordinates.  So U^{-T} = S Y^{-1} Q^{-T} =
S Q U^{-1} S Q^{-T}: solve_t solves forward against (r1 - G' r3, r2, -r3)
and returns (d1, d2, -(d3 + G d1)).  The Woodbury backend is the case
G = I with no equality rows.

The rotation is never applied whole.  With T = {i : D[i, i] != 1} the
non-unit eigenvalue indices of a block (beta and gamma at t < 1, gamma
under UI), a suffix [t0, n) since the spectrum is nonincreasing, every
pair whose mask differs from 1, every zero-mask pair and every
curvature pair touches T, so the solves and the operator's
application work in matrix form on Hh[:, T] = P' (H P_T) and write back
through one rank-2|T| update of P_T (see _BlockData): O(n^2 |T|) flops
per block instead of the O(n^3) of a full rotation, the mask split of
SDPNAL (Zhao, Sun and Toh, SIAM J. Optim. 20 (2010), Sec. 3).  A block
with T empty, where V is the identity, needs no GEMM and no svec/smat at
all.  The Woodbury solve goes one step further: one cols and one back
per block and solve, and its reads and writes on the core's support
pairs touch only the support's rows of P (_SupportMaps).  Of the solve
path, only the build reads rotated rows of G (_BlockData.s_rows):
_border stacks the zero-mask rows into Gz under J, and _curvature forms
K from the curvature rows.  The regularity report in conditions.py
derives its constraint rows and curvature through the same two helpers,
so R and the paper's conditions read one derivation.  All of them read
where a block sits from _block_split, the one constructor of a block
list (see _BlockData's cs and ws).

Every solve and every report runs on ReducedNewtonOperator or
WoodburyNewtonOperator, at every problem size, as _make_backend
chooses.  Their solve and solve_t take a right-hand side of shape (dim,)
or a stack of columns, shape (dim, m), on one code path.  Structure,
not storage, picks the backend (_sparse_diagonal, _coordinate_rows);
storage picks only splu or dense LU, and sparse or dense rows
(_border, _curvature, GT, s_rows).

One analysis per build, _split_blocks, finds where U is a permuted
direct sum of one 2x2 or 3x3 block per x coordinate (_SplitU), as in the
nearest-correlation setting of Qi and Sun (SIAM J. Matrix Anal. Appl.
28 (2006) 360-385): every row of the ex1-reduced benchmark, and the ex1
and ex5 reports at their KKT points.  Its blocks give the verdict,
sigma_min and U^{-1}, one CSR matrix, so a solve is one product, with no
K, border, R, Woodbury core or Lanczos run.

The module also holds what the backends share with the assembled
reference backend in solver.py.  _factor_with_rcond is the one
singularity verdict of every dense factorization: Cholesky with dpocon
for the dense Woodbury cores, all positive semidefinite, and LU with
dgecon for dense R and the assembled Newton matrix.  _factor_solve is
the solve over its factors, and SingularSystemError what a solve raises
on a matrix flagged singular.  Two kinds of Woodbury core are never
factored, since their eigenvalues are known in closed form: a block
where V = I has a diagonal core, and a block with no curvature pair
whose support is every pair of one index set, with one c on it, has a
symmetric Kronecker core (_kronecker_core).  Both are judged by the same
rule, reciprocal condition below _SINGULAR_RCOND against the scale of
the terms, applied exactly (see WoodburyNewtonOperator).  R is solved
sparse exactly when K and the border are, factored through splu, whose
pivot ratio reads the same _SINGULAR_RCOND (SuperLU has no condition
estimator).  splu relaxes supernodes to at most one column and works in
one-column panels (relax=1, panel_size=1); neither setting changes the
column order or the pivoting, so the fill and the verdict are those of
the defaults.  Before any of these, the split included, R with more
border rows [J; Gz] than x_dim reads singular by the count: its last
columns, [B'; 0], have rank at most x_dim.

sigma_min (_sigma_min) reads 0.0 when the build reads singular.  Where U
does not split, _lanczos_sigma_min gives it, from the factorized solves:
exact up to _LANCZOS_BASIS unknowns, above that a deterministic Lanczos
iteration.  It starts from the same fixed Gaussian vector on every call,
with no warm start from an earlier iterate, so a value and its cost
repeat bitwise.  It stops once the top Ritz value has converged, judged
by its residual and by the gap to the next Ritz value, which on Newton
operators with few distinct singular values takes a handful of solves.
It returns nan, not 0.0, when it does not converge within its cap.

Everything here is internal; the public dense contract lives in kkt.py.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .linalg_sym import (smat, svec, svec_len, v_mask, variant_t,
                         _svec_rotation_rows, _triu)
from .problem import (hess_matrix_of, jac_g_matrix_of, jac_h_matrix_of,
                      to_dense)

# sigma_min by Lanczos: residual tolerance of the top Ritz pair, relative to
# its Ritz value; basis vectors kept before a restart (and up to this many
# unknowns, sigma_min is exact instead); cap on the applies
_LANCZOS_TOL = 1e-10
_LANCZOS_BASIS = 30
_LANCZOS_MAX_APPLIES = 1000

# a factored matrix whose 1-norm reciprocal condition estimate falls below
# this is numerically singular
_SINGULAR_RCOND = 1e-14


class SingularSystemError(Exception):
    """Newton matrix is numerically singular (see _factor_with_rcond)."""


def _factor_with_rcond(M, anorm=None, overwrite=False, definite=False):
    """Factors of M, or None when M is numerically singular: the
    factorization breaks down, or the LAPACK estimate of
    1 / (anorm ||M^{-1}||_1) falls below _SINGULAR_RCOND.  anorm is
    ||M||_1 by default, from LAPACK dlange with no copy of M; a matrix
    whose terms cancel passes their scale, so that the rounding noise
    left by the cancellation reads singular.  overwrite lets LAPACK
    factor a Fortran-order M in place.

    A general M gets LU, dgetrf and dgecon, with factors (lu, piv); an
    exact zero pivot reads singular.  A definite M, symmetric positive
    semidefinite in exact arithmetic, gets Cholesky of its lower triangle
    (the upper one is never read), dpotrf and dpocon, with factors
    (L, None); a breakdown, a pivot that is not positive, reads singular.
    """
    if anorm is None:
        # LAPACK reads an F-order M in place, and a C-order M as its
        # F-order transpose, whose infinity norm is ||M||_1: no copy of M
        anorm = float(lapack.dlange("1", M) if M.flags.f_contiguous
                      else lapack.dlange("I", M.T))
    if definite:
        L, info = lapack.dpotrf(M, lower=1, clean=0, overwrite_a=overwrite)
        if info < 0:
            raise RuntimeError(f"dpotrf failed with info={info}")
        if info > 0 or lapack.dpocon(L, anorm, uplo="L")[0] < _SINGULAR_RCOND:
            return None
        return L, None
    lu, piv, info = lapack.dgetrf(M, overwrite_a=overwrite)
    if info < 0:
        raise RuntimeError(f"dgetrf failed with info={info}")
    if info > 0 or lapack.dgecon(lu, anorm, norm="1")[0] < _SINGULAR_RCOND:
        return None
    return lu, piv


def _factor_solve(factors, rhs):
    """x with M x = rhs from _factor_with_rcond's factors; None factors, a
    matrix flagged singular, raise SingularSystemError.  dgetrs directly:
    scipy.linalg.lu_solve re-checks finiteness on every call, which
    dominates the small solves of a Lanczos run.  Cholesky factors solve
    by two dtrtrs calls, L then L', not dpotrs: at 820 unknowns and one
    column (one BLAS thread, Xeon), dpotrs took 565 us against 205 us for
    the two dtrtrs, and dgetrs on LU factors of that order 258 us."""
    if factors is None:
        raise SingularSystemError()
    if factors[1] is not None:
        x, info = lapack.dgetrs(*factors, rhs)
        if info != 0:
            raise RuntimeError(f"dgetrs failed with info={info}")
        return x
    x = rhs[:, None] if rhs.ndim == 1 else rhs
    for trans in (0, 1):
        x, info = lapack.dtrtrs(factors[0], x, lower=1, trans=trans)
        if info != 0:
            raise RuntimeError(f"dtrtrs failed with info={info}")
    return x[:, 0] if rhs.ndim == 1 else x


def _signed_permutation(P):
    """(rows, signs) if P is a signed permutation matrix, column i being
    signs[i] times the unit vector e_rows[i], else None."""
    n = P.shape[0]
    tol = 1e-13
    A = np.abs(P)
    # the cheapest test first: a dense P fails it
    if np.count_nonzero(A > tol) != n:
        return None
    rows = np.argmax(A, axis=0)
    vals = A[rows, np.arange(n)]
    if np.any(np.abs(vals - 1.0) > tol):
        return None
    if np.sort(rows).tolist() != list(range(n)):
        return None
    signs = np.sign(P[rows, np.arange(n)])
    return rows, signs


class _BlockData:
    """Pair bookkeeping for one cone block at one iterate.

    The variant is a point t UI + (1 - t) U0 of the segment between the
    two elements, t = variant_t(variant) on beta x beta of the mask D.
    T = {i : D[i, i] != 1} is the block's non-unit index set: gamma under
    UI (t = 1), beta and gamma at every t < 1.  The classes are ranges of
    the nonincreasing spectrum, alpha [0, a), beta [a, k) and gamma [k,
    n), so T is the suffix [t0, n), t0 = _unit_count(dec, variant).  The
    ag pairs, where 0 < D < 1, are the curvature pairs: alpha x gamma,
    those with i < a and j >= k, with c_ag = -lam_j / lam_i, and at 0 < t
    < 1 beta x beta too, with c_ag = (1 - t) / t.  The zer pairs, where D
    is 0 (beta x gamma, gamma x gamma, and beta x beta at t = 0), are
    those with i >= a and j >= k, or j >= a at t = 0.  Every pair whose
    mask differs from 1 touches T, the zer and ag pairs included, so
    every cone map of the Newton operator reads Hh = P' H P only through
    its T columns Hh[:, T] = P' (H P_T) (cols) and writes back a
    symmetric matrix X supported on the rows and columns T through P X
    P' = Z P_T' + P_T Z', Z = P Y, where Y is X[:, T] with its T rows
    halved (back).  Each costs O(n^2 |T|); a block with T empty costs
    nothing.  Both work on stacks: cols maps svec columns, shape (len,
    m), to an (m, n, |T|) stack, back the reverse; z_at and ag_at index
    a stack, a pair (i, j) at (i, j - t0), since j is in T, and y_ag is
    c_ag with the diagonal pairs halved for Y.  iu, ju and scale (svec's
    1 or sqrt(2) per pair) are linalg_sym._triu's cached arrays, never
    written.  The regularity report reads its pair split from here too:
    a variant's zer pairs are the constraint rows of its conditions, and
    the ag pairs, weighted by c_ag, their curvature.  cs and ws, set by
    _block_split, are the block's slices of the stacked cone coordinates
    and of the stacked zero-mask multipliers; a block built on its own
    has neither, so it fails with AttributeError, not a wrong offset.
    """

    def __init__(self, dec, variant):
        n = dec.n
        t = variant_t(variant)
        self.dec = dec
        self.n = n
        self.len = svec_len(n)
        iu, ju, scale = _triu(n)[:3]
        self.iu, self.ju, self.scale = iu, ju, scale
        self.D = D = v_mask(dec, t)
        # lam is nonincreasing, so alpha is [0, a) and gamma is [k, n)
        a, k = dec.alpha.size, n - dec.gamma.size
        # beta x beta pairs, mask t, are curvature for 0 < t < 1
        bb = (iu >= a) & (ju < k) if 0.0 < t < 1.0 else False
        self.ag = np.where((iu < a) & (ju >= k) | bb)[0]
        t0 = _unit_count(dec, t)
        self.zer = np.where((iu >= a) & (ju >= (k if t else a)))[0]
        lam = dec.lam
        i, j = iu[self.ag], ju[self.ag]
        g = j >= k
        self.c_ag = np.where(g, -lam[j], 1.0 - t) / np.where(g, lam[i], t)
        self.T = np.arange(t0, n)
        if t0 == n:
            return
        self.PT = np.ascontiguousarray(dec.P[:, t0:])
        # masks on Hh[:, T] with the T rows halved, ready for back
        half = np.ones((n, 1))
        half[t0:] = 0.5
        DT = D[:, t0:]
        self.one_minus_d = (1.0 - DT) * half
        inv = np.divide(1.0, DT, out=np.zeros_like(DT), where=DT > 0.0)
        self.one_minus_e = np.where(DT > 0.0, 1.0 - inv, 1.0) * half
        # each zer or ag pair (i, j), i <= j, has j in T (beta or gamma
        # at t < 1, gamma under UI), so it sits at (i, j - t0) of Hh[:, T]
        self.z_at = (slice(None), iu[self.zer], ju[self.zer] - t0)
        # svec scale of each zer pair; half of it puts a pair's svec value
        # into Y (the mirror position stays zero)
        self.z_scale = scale[self.zer]
        self.ag_at = (slice(None), i, j - t0)
        # back doubles a diagonal entry, so a diagonal (beta x beta) pair
        # enters Y at half its weight, as z_scale halves the zer pairs
        self.y_ag = np.where(i == j, 0.5, 1.0) * self.c_ag

    def cols(self, h):
        """Hh[:, T] = P' (smat(h) P_T) per column h of the block's svec
        vectors, as an (m, n, |T|) stack."""
        return self.dec.P.T @ (smat(h.T) @ self.PT)

    def back(self, Y):
        """svec of P X P' for the X that each block of Y encodes (class
        doc), as columns."""
        C = (self.dec.P @ Y) @ self.PT.T
        return svec(C + C.transpose(0, 2, 1)).T

    def v_defect(self, h):
        """svec(H - V(H)) = svec(P ((1 - D) o Hh) P') per column h."""
        return self.back(self.one_minus_d * self.cols(h))

    @functools.cached_property
    def perm(self):
        """_signed_permutation of the eigenbasis, searched for once."""
        return _signed_permutation(self.dec.P)

    def s_rows(self, pairs, G_block):
        """Rows of the eigenbasis-rotated cone Jacobian for the given svec
        pairs: row (i, j) maps dx to the svec entry (i, j) of
        P' smat(G dx) P.  Sparse when the block Jacobian is sparse and
        the eigenbasis is a signed permutation, which is searched for only
        then; dense otherwise."""
        perm = sp.issparse(G_block) and self.perm
        if perm:
            rows, signs = perm
            ri, rj = self.iu[pairs], self.ju[pairs]
            idx = _triu(self.n)[4][rows[ri] * self.n + rows[rj]]
            S = sp.csr_matrix(
                (signs[ri] * signs[rj], (np.arange(ri.size), idx)),
                shape=(ri.size, self.len))
            return S @ G_block
        return to_dense(_svec_rotation_rows(self.dec.P, pairs) @ G_block)


def _block_split(decomps, variant):
    """The variant's _BlockData per cone block, in order, each with cs,
    its slice of the stacked cone coordinates (and rows of G), and ws,
    its slice of the stacked zero-mask multipliers: the order in which
    _border stacks Gz and ReducedNewtonOperator.solve reads w."""
    blocks = [_BlockData(dec, variant) for dec in decomps]
    at = w_at = 0
    for b in blocks:
        b.cs = slice(at, at + b.len)
        b.ws = slice(w_at, w_at + b.zer.size)
        at, w_at = b.cs.stop, b.ws.stop
    return blocks


def _border(J, blocks, G):
    """[J; Gz], the border of R: the equality Jacobian J, with no rows
    when there are no equality constraints, over Gz, the rotated cone
    rows of the blocks with zero-mask pairs.  CSR when every part is sparse
    (see _BlockData.s_rows for when a block's rows are), else dense."""
    rows = [J] + [b.s_rows(b.zer, G[b.cs]) for b in blocks if b.zer.size]
    if all(sp.issparse(r) for r in rows):
        return sp.vstack(rows, format="csr")
    return np.vstack([to_dense(r) for r in rows])


def _curvature(W, blocks, G):
    """K = W + Gp' C Gp of R: W plus, per block with curvature pairs,
    S' S for its ag rows S scaled by sqrt(c_ag).  K stays sparse while W
    and the rows are; otherwise both go dense first."""
    K = W
    for b in blocks:
        if b.ag.size == 0:
            continue
        rows = b.s_rows(b.ag, G[b.cs])
        s = np.sqrt(b.c_ag)[:, None]
        if sp.issparse(K) and sp.issparse(rows):
            rows = rows.multiply(s).tocsr()
        else:
            K, rows = to_dense(K), to_dense(rows) * s
        K = K + rows.T @ rows
    return K


def _unit_count(dec, variant):
    """t0, the count of unit diagonal entries of the variant's mask, which
    come first: |alpha| + |beta| under UI (t = 1), |alpha| otherwise."""
    return dec.alpha.size + dec.beta.size * (variant_t(variant) == 1.0)


def _sigma_min(op):
    """Smallest singular value of the Newton operator at op's iterate,
    cached (a split's build caches its own): 0.0 when the build flagged
    singularity, else _lanczos_sigma_min on its factorized solves (nan
    when that does not converge).  Each backend binds it as sigma_min."""
    if op._sigma is None:
        op._sigma = 0.0 if op.singular else _lanczos_sigma_min(
            op.dim, op.solve, op.solve_t)
    return op._sigma


class ReducedNewtonOperator:
    """Factorized reduced system for one iterate; see module docstring."""

    def __init__(self, problem, z, variant, decomps, split=None,
                 blocks=None):
        self.variant = variant
        self.x_dim = problem.x_dim
        self.eq_dim = problem.eq_dim
        self.blocks = blocks or _block_split(decomps, variant)
        self._problem, self._z = problem, z
        self.J = jac_h_matrix_of(problem, z.x)
        self.G = jac_g_matrix_of(problem, z.x)
        # a block with T empty has no zer pairs and no cone work
        self._t_blocks = [b for b in self.blocks if b.T.size]
        self._any_ag = any(len(b.ag) for b in self.blocks)
        self.dim = problem.total_dim
        # every block has T empty exactly when V = I (see reuse_compatible)
        self.reusable = not self._t_blocks
        self.split = split  # _make_backend's, else _build looks for one
        self._sigma = None
        self._build()

    # read at the first use, which a split found by _make_backend does not
    # reach before a matvec; G' in CSR form applies about twice as fast
    W = functools.cached_property(lambda op: hess_matrix_of(
        op._problem, op._z.x, op._z.xi, op._z.Gamma))
    GT = functools.cached_property(
        lambda op: op.G.T.tocsr() if sp.issparse(op.G) else op.G.T)

    # -- assembly -----------------------------------------------------------

    def _build(self):
        x = self.x_dim
        # more border rows than x_dim: the last columns of R, [B'; 0],
        # have rank at most x_dim, so R is singular by the count alone
        self.singular = self.eq_dim + sum(
            b.zer.size for b in self.blocks) > x
        if self.singular:
            return
        if self.split is None:
            self.split = _split_blocks(self.blocks, _sparse_diagonal(self.W),
                                       self.J, self.G)
        if self.split is not None:
            # the split's verdict and sigma_min; U^{-1} waits for a solve
            self.singular = self.split.singular
            self._sigma = 0.0 if self.singular else self.split.sigma
            return
        K = _curvature(self.W, self.blocks, self.G)
        B = _border(self.J, self.blocks, self.G)
        if sp.issparse(K) and sp.issparse(B):
            R = sp.bmat([[K, B.T], [B, None]], format="csc")
            # No relaxed supernodes, one-column panels: chosen on ex1 at
            # 90/60 (order 18 555, one BLAS thread, Xeon), where a
            # factorization took 1.7 ms against 2.7 ms with the defaults and
            # a solve 0.20 ms against 0.42 ms.  The default COLAMD order and
            # pivoting stay, so the fill and the verdict do not change.
            try:
                self._lu = spla.splu(R, relax=1, panel_size=1)
            except RuntimeError:
                self.singular = True
                return
            du = np.abs(self._lu.U.diagonal())
            if du.size and du.min() < _SINGULAR_RCOND * max(du.max(), 1.0):
                self.singular = True
                return
            self._solve_R = self._lu.solve
            return

        # dense reduction; Fortran order so the factorization works in place
        m = x + B.shape[0]
        R = np.zeros((m, m), order="F")
        R[:x, :x] = to_dense(K)
        B = to_dense(B)
        R[x:, :x] = B
        R[:x, x:] = B.T
        factors = _factor_with_rcond(R, overwrite=True)
        if factors is None:
            self.singular = True
            return
        self._solve_R = lambda rhs: _factor_solve(factors, rhs)

    # -- shared pieces --------------------------------------------------------

    def _split(self, r):
        """(r1, r2, r3), each with m columns, of a vector or a stack."""
        r = np.asarray(r, dtype=float).reshape(self.dim, -1)
        x, e = self.x_dim, self.eq_dim
        return r[:x], r[x:x + e], r[x + e:]

    # -- forward solve: U d = r -----------------------------------------------
    #
    # Per block, with Rh = P' smat(r3) P and E = 1/D where D > 0, 0 where
    # D = 0: u = r3 - back((1 - E) o Rh) is svec(P (E o Rh) P'), so the
    # right-hand side of R is r1 - G' u over the zer entries of -Rh, and
    # the cone part of the answer is u + back(C_ag o Gh + W), with
    # Gh = P' smat(G dx) P and W the multipliers w on the zer pairs.

    @functools.cached_property
    def _u_inv(self):
        """U^{-1} of the split, written at the first solve, not by a report."""
        if self.singular:
            raise SingularSystemError()
        return self.split.inverse(self.eq_dim)

    def solve(self, r):
        if self.singular:
            raise SingularSystemError()
        if self.split is not None:
            return self._u_inv @ r
        r1, r2, r3 = self._split(r)
        u = r3.copy()
        tail = []
        for b in self._t_blocks:
            rT = b.cols(r3[b.cs])
            u[b.cs] -= b.back(b.one_minus_e * rT)
            tail.append(-(rT[b.z_at] * b.z_scale).T)
        rhs = np.concatenate([r1 - self.GT @ u, r2] + tail)
        sol = self._solve_R(rhs)
        x, e = self.x_dim, self.eq_dim
        dx = sol[:x]
        dxi = sol[x:x + e]
        w = sol[x + e:]
        gdx = self.G @ dx if self._any_ag else None
        for b in self._t_blocks:
            Y = np.zeros((r3.shape[1], b.n, b.T.size))
            if len(b.ag):
                Y[b.ag_at] = b.y_ag * b.cols(gdx[b.cs])[b.ag_at]
            Y[b.z_at] = 0.5 * b.z_scale * w[b.ws].T
            u[b.cs] += b.back(Y)
        return np.concatenate([dx, dxi, u]).reshape(np.shape(r))

    def solve_t(self, r):
        """U' d = r, as U^{-T} = S Q U^{-1} S Q^{-T} (module docstring)."""
        if self.split is not None:
            return self._u_inv.T @ r
        r1, r2, r3 = self._split(r)
        d = self.solve(np.concatenate([r1 - self.GT @ r3, r2, -r3]))
        d1, d2, d3 = self._split(d)
        return np.concatenate([d1, d2, -(d3 + self.G @ d1)]
                              ).reshape(np.shape(r))

    # -- application and diagnostics ----------------------------------------

    def matvec(self, d):
        """Apply the (unreduced) Newton operator to a stacked direction."""
        dx, dxi, dG = self._split(d)
        r1 = self.W @ dx + self.GT @ dG + self.J.T @ dxi
        r2 = self.J @ dx
        # V(G dx + dG) - G dx = dG - (I - V)(G dx + dG)
        out3 = dG.copy()
        if self._t_blocks:
            h = self.G @ dx + dG
            for b in self._t_blocks:
                out3[b.cs] -= b.v_defect(h[b.cs])
        return np.concatenate([np.asarray(r1), np.asarray(r2),
                               out3]).reshape(np.shape(d))

    sigma_min = _sigma_min


def _lanczos_sigma_min(dim, solve, solve_t):
    """Smallest singular value of U from factorized forward/transpose solves.

    Up to _LANCZOS_BASIS unknowns a Krylov space would be the whole
    space, so the value is exact instead: 1 / ||U^{-1}||_2, from one solve
    against the identity (solve takes the columns as a batch) and the
    singular values of that small matrix.  It never reads nan, and
    _LANCZOS_MAX_APPLIES does not apply.

    Above that, Lanczos iteration on A = (U' U)^{-1}, applied as
    solve(solve_t(v)), whose largest eigenvalue is 1 / sigma_min^2.  The
    start is the same Gaussian vector on every call, so a result and its
    cost repeat exactly; a Gaussian start has a component in every
    eigenspace with probability one, which makes it safe to stop when the
    Krylov space breaks down (becomes invariant).  Each new vector is
    reorthogonalized fully by two classical Gram-Schmidt passes against
    the stored basis.

    The iteration stops once the top Ritz pair (theta, y) of the
    tridiagonal T_j has a residual res = beta_j |y_j| <= tol * theta; a
    breakdown, beta_j near zero, meets that test as well.  It also stops
    when res^2 <= tol * theta * (theta - theta_2), theta_2 the second
    largest Ritz value, and res <= 10 tol * theta.  The first part is the
    gap bound res^2 / gap on the error of theta (Parlett, The Symmetric
    Eigenvalue Problem, ch. 11).  The cap is there because the Ritz gap
    can be far too large: an eigenvalue within about res of the top one
    stays hidden from T_j until the rest of the spectrum has converged,
    and it moves theta by up to about res.  With the gap test alone, a
    top pair 1e-6 apart, relative, came out 4e-7 off.  The tolerance is
    diagnostic grade: the value feeds trace reporting and certificate
    warnings, where ten significant digits are plenty.  Newton operators
    with few distinct singular values converge within a handful of
    applies.  A full basis of _LANCZOS_BASIS vectors restarts from the
    top Ritz vector.  Returns nan when _LANCZOS_MAX_APPLIES applies pass
    without convergence.
    """
    if dim <= _LANCZOS_BASIS:
        return 1.0 / float(np.linalg.norm(solve(np.eye(dim)), 2))
    m = _LANCZOS_BASIS
    V = np.empty((m, dim))
    # T_j = tridiag(beta[:j], alpha[:j+1], beta[:j]); entries past j are
    # stale after a restart and never read
    alpha = np.empty(m)
    beta = np.zeros(m)
    v = np.random.default_rng(0).standard_normal(dim)
    V[0] = v / np.linalg.norm(v)
    j = 0
    for _ in range(_LANCZOS_MAX_APPLIES):
        w = solve(solve_t(V[j]))
        Vj = V[:j + 1]
        a = 0.0
        for _pass in range(2):
            # ndarray.dot: half the call overhead of @ on small operands
            h = Vj.dot(w)
            w -= h.dot(Vj)
            a += h[j]
        alpha[j] = a
        b = math.sqrt(w.dot(w))
        # the dstev wrapper wants exactly max(1, j) off-diagonal entries;
        # on these small T_j one call costs 3-8 us, against 12-20 us for
        # np.linalg.eigh and about 40 us for eigh_tridiagonal(select="i")
        evals, Y, info = lapack.dstev(alpha[:j + 1], beta[:max(j, 1)])
        if info != 0:
            raise RuntimeError(f"dstev failed with info={info}")
        theta = float(evals[j])
        y = Y[:, j]
        res = b * abs(y[j])
        gap_ok = j and res <= 10 * _LANCZOS_TOL * theta and (
            res * res <= _LANCZOS_TOL * theta * (theta - evals[j - 1]))
        if theta > 0.0 and (res <= _LANCZOS_TOL * theta or gap_ok):
            return 1.0 / math.sqrt(theta)
        if j + 1 == m:
            v = y @ V
            V[0] = v / np.linalg.norm(v)
            j = 0
        else:
            beta[j] = b
            V[j + 1] = w / b
            j += 1
    return float("nan")


def separable_diagonal(problem, z):
    """Hessian diagonal when the bordered-identity solve applies, else None.

    The fast path needs three structural facts, read from patterns in
    any storage: no equality constraints, a constant identity cone
    Jacobian, and a diagonal Hessian (_sparse_diagonal).  The core it
    factors has one row per non-unit diagonal entry, at any count of
    them.  Every w must also lie in [0, 1], so that each core is positive
    semidefinite (see WoodburyNewtonOperator); other w solve exactly on
    ReducedNewtonOperator.
    """
    if problem.eq_dim or problem.hess_matrix_fn is None \
            or problem.jac_g_matrix is None \
            or not _is_identity(problem.jac_g_matrix):
        return None
    w = _sparse_diagonal(hess_matrix_of(problem, z.x, z.xi, z.Gamma))
    if w is None or not np.all((w >= 0.0) & (w <= 1.0)):
        return None
    return np.asarray(w, dtype=float)


def _make_backend(problem, z, variant, decomps):
    """The Newton-matrix backend at z, at every problem size: the
    diagonal-plus-low-rank (Woodbury) form when the problem has one and U
    does not split (_split_blocks), else block elimination, which takes
    the split found here and builds no core."""
    w = separable_diagonal(problem, z)
    if w is None:
        return ReducedNewtonOperator(problem, z, variant, decomps)
    blocks = _block_split(decomps, variant)
    split = _split_blocks(blocks, w, jac_h_matrix_of(problem, z.x),
                          problem.jac_g_matrix)
    if split is None:
        return WoodburyNewtonOperator(problem, z, variant, decomps, w,
                                      blocks)
    return ReducedNewtonOperator(problem, z, variant, decomps, split, blocks)


def _sparse_diagonal(M):
    """The diagonal of a square M, dense or sparse, that holds all its
    nonzero entries (a nan is one), else None.  A sparse M's duplicates
    are summed first, on a copy, and a stored zero is no entry."""
    if M.shape[0] != M.shape[1]:
        return None
    if sp.issparse(M):
        M = M.tocsr()
        if not M.has_canonical_format:
            M = M.copy()
            M.sum_duplicates()
        d, nonzero = M.diagonal(), np.count_nonzero(M.data)
    else:
        d, nonzero = np.diagonal(M).copy(), np.count_nonzero(M)
    return d if nonzero == np.count_nonzero(d) else None


def _coordinate_rows(C):
    """(cols, vals, independent) for a C whose rows hold one entry at
    most, else None: the column and value of each entry in row order, and
    whether every row holds one entry on a column of its own, which makes
    the rows orthogonal and independent.  The entries are a dense C's
    nonzeros, or a sparse C's stored values, duplicates summed (on a
    copy)."""
    m = C.shape[0]
    if sp.issparse(C):
        C = C.tocsr()
        if not C.has_canonical_format:
            C = C.copy()
            C.sum_duplicates()
        per_row, cols, vals = np.diff(C.indptr), C.indices, C.data
    else:
        C = np.asarray(C)
        # more entries than rows: some row holds two
        if np.count_nonzero(C) > m:
            return None
        r, cols = np.nonzero(C)
        per_row, vals = np.bincount(r, minlength=m), C[r, cols]
    if np.any(per_row > 1):
        return None
    independent = vals.size == m and (
        m == 0 or np.bincount(cols).max() == 1)
    return cols, vals, bool(independent)


def _split_blocks(blocks, w, J, G):
    """U's blocks (_SplitU), or None where U is no permuted direct sum of
    one small block per x coordinate; the cheapest tests run first.  w is
    W's diagonal (None when W is not diagonal), J and G the equality and
    the cone Jacobian.

    U splits so when J has coordinate rows on columns of their own
    (_coordinate_rows), G is a square scaled permutation, cone coordinate
    i reading x coordinate gcol[i] with weight g, and V is diagonal in
    svec coordinates, with diagonal v: in every block with T empty, where
    V = I, and in every block whose eigenbasis is a signed permutation
    (_BlockData.perm).  P[:, i] = s_i e_rows[i] takes the svec pair (a, b)
    to the eigenvalue pair (inv[a], inv[b]), inv = argsort(rows), up to a
    sign that V's two rotations cancel, so v there is D[inv[a], inv[b]].
    A nan block value (an overflow) means no split either."""
    if w is None or any(b.T.size and not b.perm for b in blocks):
        return None
    x = w.size
    rows = [_coordinate_rows(C) for C in (G, J)]
    if G.shape != (x, x) or not all(r and r[2] for r in rows):
        return None
    (gcol, g, _), (pin, a, _) = rows
    v = np.ones(x)
    for b in blocks:
        if b.T.size:
            inv = np.argsort(b.perm[0])
            v[b.cs] = b.D[inv[b.iu], inv[b.ju]]
    split = _SplitU(w, gcol, g, v, pin, a)
    return split if math.isfinite(split.sigma + split.scale) else None


class _SplitU:
    """The blocks of a U that splits (_split_blocks).  x coordinate j,
    read by cone coordinate i = cone[j] with weight g, is the block [[w,
    g], [(v - 1) g, v]] on the unknowns (dx_j, dG_i) when it is free, and
    [[w, a, g], [a, 0, 0], [(v - 1) g, 0, v]] on (dx_j, dxi_r, dG_i) when
    row r of J, reading a, pins it (pin[r] = j).  sigma is the smallest
    singular value of the blocks, so U's, and scale their largest
    Frobenius norm, within sqrt(3) of ||U||_2.  U reads singular when
    sigma < _SINGULAR_RCOND max(1, scale): the shared rule, applied
    exactly to the blocks."""

    def __init__(self, w, gcol, g, v, pin, a):
        x = w.size
        self.cone = np.empty(x, dtype=np.intp)
        self.cone[gcol] = np.arange(x)
        # g and v from cone order to x order
        g, v = g[self.cone], v[self.cone]
        sq = w * w + g * g * (1.0 + (v - 1.0) ** 2) + v * v
        sq[pin] += 2.0 * a * a
        self.scale = math.sqrt(sq.max(initial=0.0))
        free = np.ones(x, dtype=bool)
        free[pin] = False
        self.free, self.pin = np.flatnonzero(free), pin
        # a free block [[p, q], [r, s]] has the smallest singular value
        # |det| / smax, smax = (hypot(p + s, q - r) + hypot(p - s, q + r)) / 2
        p, q, s = w[free], g[free], v[free]
        r = (s - 1.0) * q
        self.pqrs, self.det = (p, q, r, s), p * s - q * r
        smax = 0.5 * (np.hypot(p + s, q - r) + np.hypot(p - s, q + r))
        self.N = _pinned_inverse(w[pin], a, g[pin], v[pin])
        # np.min, not min(): a nan block value (an overflow) must reach
        # _split_blocks' finiteness test
        self.sigma = float(np.concatenate([
            np.divide(np.abs(self.det), smax, out=np.zeros_like(smax),
                      where=smax > 0.0),
            _sigma_3x3(self.N)]).min(initial=np.inf))
        self.singular = self.sigma < _SINGULAR_RCOND * max(1.0, self.scale)

    def inverse(self, e):
        """U^{-1} as one CSR matrix, for e equality rows: x coordinate j
        at j, row r of J at x + r, cone coordinate i at x + e + i.  A free
        block's inverse is its adjugate over det, a pinned one's N
        (_pinned_inverse).  A row of J holds three entries, every other
        row two (a pinned x coordinate's stores N's 0 at j)."""
        x = self.cone.size
        dim = 2 * x + e
        idx = np.int32 if 2 * dim + e < 2 ** 31 else np.int64
        f, j, rj = self.free, self.pin, np.arange(x, x + e)
        cf, cj = self.cone[f], self.cone[j]
        indptr = np.concatenate([
            np.arange(0, 2 * x, 2), np.arange(2 * x, 2 * x + 3 * e, 3),
            np.arange(2 * x + 3 * e, 2 * dim + e + 1, 2)]).astype(idx)
        indices = np.empty(2 * dim + e, dtype=idx)
        data = np.empty(2 * dim + e)
        # the x rows, the rows of J and the cone rows (in cone order)
        (xi, ji, ci), (xv, jv, cv) = (
            (a[:2 * x].reshape(x, 2), a[2 * x:2 * x + 3 * e].reshape(e, 3),
             a[2 * x + 3 * e:].reshape(x, 2)) for a in (indices, data))
        p, q, r, s = (m / self.det for m in self.pqrs)
        ia, beta, c, d, iv = self.N
        xi[:, 0] = np.arange(x)
        xi[f, 1], xi[j, 1] = x + e + cf, rj
        xv[f, 0], xv[f, 1], xv[j, 0], xv[j, 1] = s, -q, 0.0, ia
        ji[:, 0], ji[:, 1], ji[:, 2] = j, rj, x + e + cj
        jv[:, 0], jv[:, 1], jv[:, 2] = ia, beta, -c
        ci[cf, 0], ci[cj, 0], ci[:, 1] = f, rj, np.arange(x + e, dim)
        cv[cf, 0], cv[cf, 1], cv[cj, 0], cv[cj, 1] = -r, p, d, iv
        return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _pinned_inverse(w, a, g, v):
    """(1/a, beta, c, d, 1/v) of the inverses N = [[0, 1/a, 0], [1/a, beta,
    -c], [0, d, 1/v]] of the blocks M = [[w, a, g], [a, 0, 0], [(v - 1) g,
    0, v]], with c = g / (a v), beta = ((v - 1) g c - w / a) / a and d =
    -(v - 1) c.  det M = -a^2 v: where a or v is 0, 1/a or 1/v is inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ia, iv = 1.0 / a, 1.0 / v
        c = g * ia * iv
        beta = ((v - 1.0) * g * c - w * ia) * ia
        return ia, beta, c, -(v - 1.0) * c, iv


def _sigma_3x3(N):
    """Smallest singular values of the blocks M with inverses N
    (_pinned_inverse), 1 / sqrt(lambda_max(N N')); 0 where M is singular.
    lambda_max comes from the trigonometric formula for the eigenvalues
    of a symmetric 3x3 matrix (Smith, Comm. ACM 4 (1961) 168), whose
    cosine argument r gives the top eigenvalue to about eps / sqrt(1 + r)
    relative: the few blocks with 1 + r below 1e-4, a nearly double top
    eigenvalue, take eigvalsh instead."""
    ia, beta, c, e, iv = N
    ok = np.isfinite(ia) & np.isfinite(iv)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # N N', upper triangle
        h00, h01, h02 = ia * ia, ia * beta, ia * e
        h11 = ia * ia + beta * beta + c * c
        h12 = beta * e - c * iv
        h22 = e * e + iv * iv
        q = (h00 + h11 + h22) / 3.0
        d0, d1, d2 = h00 - q, h11 - q, h22 - q
        p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                     + 2.0 * (h01 * h01 + h02 * h02 + h12 * h12)) / 6.0)
        det = (d0 * (d1 * d2 - h12 * h12) - h01 * (h01 * d2 - h12 * h02)
               + h02 * (h01 * h12 - d1 * h02))
        r = np.clip(np.divide(det, 2.0 * p * p * p, out=np.ones_like(det),
                              where=p > 0.0), -1.0, 1.0)
        lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
        near = np.flatnonzero(ok & (r < 1e-4 - 1.0))
        if near.size:
            H = np.stack([h00, h01, h02, h01, h11, h12, h02, h12, h22],
                         axis=-1)[near].reshape(-1, 3, 3)
            lam[near] = np.linalg.eigvalsh(H)[:, -1]
        return np.where(ok, 1.0 / np.sqrt(lam), 0.0)


def _is_identity(G):
    """True when G, dense or sparse, is a square identity matrix."""
    d = _sparse_diagonal(G)
    return d is not None and bool(np.all(d == 1.0))


def _support_layout(b, loc):
    """(order, maps): the order that sorts one block's support pairs loc
    by (second index, first index), and the _SupportMaps of the sorted
    pairs.  Every core kind of WoodburyNewtonOperator takes its support in
    this layout."""
    ka, la = b.iu[loc], b.ju[loc]
    order = np.lexsort((ka, la))
    ka, la = ka[order], la[order]
    idx = np.unique(np.concatenate([ka, la]))
    return order, _SupportMaps(b.dec.P[idx], b.T, np.searchsorted(idx, ka),
                               np.searchsorted(idx, la), b.scale[loc[order]])


def _full_pattern(b, loc):
    """True when the support pairs loc of a block are every pair (i, j),
    i <= j, of the indices they touch."""
    touched = np.zeros(b.n, dtype=bool)
    touched[b.iu[loc]] = touched[b.ju[loc]] = True
    k = np.count_nonzero(touched)
    return 2 * loc.size == k * (k + 1)


def _woodbury_core(b, D, loc, c):
    """Lower triangle of the core M = diag(1/c) - V[S, S] of one cone
    block, S the support pairs loc taken in the order `order` of
    _support_layout, the 1-norm ||V[S, S]||_1 for _factor_with_rcond's
    scale (see WoodburyNewtonOperator), and the solve's _SupportMaps.
    Returns (M, vnorm, order, maps); M is Fortran order, ready to be
    factored in place, and its upper triangle outside the diagonal
    blocks is never written.  This is the dense core, which every block
    with a core and a curvature (ag) pair takes; _kronecker_core is the
    closed form of the blocks without one.

    With q_i = P[i, :] the rows of the eigenbasis, D the v_mask matrix
    and w the svec scale b.scale, 1 on diagonal pairs and sqrt(2) off
    them, the entry for support pairs a = (i, j) and b = (p, q) is

        V[a, b] = w_a w_b / 2 * [ (q_i o q_p)' D (q_j o q_q)
                                  + (q_i o q_q)' D (q_j o q_p) ].

    The support pairs are sorted by (second index, first index), so the
    pairs of each second index t take one contiguous range [lo, hi).  Q
    holds the eigenbasis rows the support touches; for each t, Z =
    (Q o q_t) D and one GEMM give the core rows [lo, hi) up to column
    hi, the lower triangle, from the rows of B over the pairs before hi
    only.  That is O(p n^2 + k^2 n) flops, p the index pairs {s, t} with
    s touched by the support, and O(k^2 + k n) memory; no svec
    rotation-row matrix (k by n(n+1)/2) is made.  The column sums of
    |V[S, S]| add up, per t, the column sums of those rows and, by
    symmetry, the row sums of their part left of the diagonal block into
    the columns [lo, hi).
    """
    order, maps = _support_layout(b, loc)
    Q, kl, ll, w = maps.Q, maps.kl, maps.ll, maps.w
    c = c[order]
    # the column scale -w_b rides on the factors of B
    Qk = Q[kl] * -w[:, None]
    Ql = Q[ll] * -w[:, None]
    k = loc.size
    M = np.empty((k, k), order="F")
    colsum = np.zeros(k)
    bounds = np.append(np.flatnonzero(np.diff(ll, prepend=-1)), k).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        Z = (Q * Q[ll[lo]]) @ D
        B = Qk[:hi] * Z[ll[:hi]] + Ql[:hi] * Z[kl[:hi]]
        block = (0.5 * w[lo:hi, None] * Q[kl[lo:hi]]) @ B.T
        a = np.abs(block)
        colsum[:hi] += a.sum(axis=0)
        colsum[lo:hi] += a[:, :lo].sum(axis=1)
        M[lo:hi, :hi] = block
    d = np.arange(k)
    M[d, d] += 1.0 / c
    return M, float(colsum.max()), order, maps


def _kronecker_core(b, maps, c0, variant):
    """The closed-form core of a block with T nonempty, no curvature (ag)
    pair, and a support of every pair of one index set idx, with one c0
    on it, or None when it reads singular (see WoodburyNewtonOperator).
    There V(H) = a H + s Pi H Pi, Pi = P_beta P_beta', and the rows Q =
    P[idx] of maps are orthonormal, so V[S, S](X) = a X + s B X B, B =
    Q_beta Q_beta', and the core is M = (1/c0 - a) I - s (B (x)_s B).
    With B = U diag(b) U', M has the eigenvalues (1/c0 - a) - s b_i b_j
    and the eigenvectors sym(u_i u_j') (Todd, Toh and Tutuncu, SIAM J.
    Optim. 8 (1998), appendix)."""
    # with no alpha-gamma pair, alpha or gamma is empty: D is t on beta x
    # beta and 1 elsewhere when alpha is not (a = 1), t on beta x beta and
    # 0 elsewhere when it is (a = 0), so s = t - a
    a = float(b.dec.alpha.size > 0)
    s = variant_t(variant) - a
    Qb = maps.Q[:, b.dec.alpha.size:b.n - b.dec.gamma.size]
    bv, U = np.linalg.eigh(Qb @ Qb.T)
    # eigenvalues of V[S, S], and of the scaled core c0 M = I - c0 V[S, S]
    v = a + s * np.multiply.outer(bv, bv)
    e = 1.0 - c0 * v
    if e.min() < _SINGULAR_RCOND * (1.0 + np.abs(v).max()):
        return None
    return _KroneckerCore(U, c0 / e, maps)


class _KroneckerCore:
    """A core in closed form (_kronecker_core): M^{-1} maps the idx x idx
    matrix X of each support column to U ((U' X U) o inv) U', inv the
    reciprocal eigenvalues of M as a k x k matrix.  Two small GEMM pairs
    per column stack, O(|idx|^3), in place of a factor of order
    |idx| (|idx| + 1) / 2."""

    def __init__(self, U, inv, maps):
        self.U, self.inv, self.maps = U, inv, maps

    def solve(self, rhs):
        """M^{-1} rhs for support columns rhs, shape (k, m)."""
        U = self.U
        Z = (U.T @ self.maps.smat(rhs) @ U) * self.inv
        return self.maps.svec(U @ Z @ U.T)


class _SupportMaps:
    """What a Woodbury solve reads and writes of one block on its support
    pairs, in core order (see _support_layout): pair a = (i, j) sits at
    (kl[a], ll[a]) of the idx x idx submatrix, idx the eigenbasis rows Q =
    P[idx] that the support touches, and w holds the pairs' svec scales.
    Everything is O(|idx| n |T|) per column, not the O(n^2 |T|) of
    _BlockData's cols and back.
    """

    def __init__(self, Q, T, kl, ll, w):
        ni, k = Q.shape[0], kl.size
        self.Q = Q
        self.QT = Q[:, T]
        self.kl, self.ll, self.w = kl, ll, w
        self.at = kl * ni + ll
        self.at_t = ll * ni + kl
        # every position of the idx x idx submatrix to its support pair,
        # or to the zero past the last one
        self.put = np.full(ni * ni, k)
        self.put[self.at] = self.put[self.at_t] = np.arange(k)

    def smat(self, t):
        """The symmetric idx x idx matrices of support columns t, shape
        (k, m), as an (m, |idx|, |idx|) stack; zero off the support."""
        k, m = t.shape
        ni = self.Q.shape[0]
        v = np.zeros((m, k + 1))
        v[:, :k] = t.T / self.w
        return v.take(self.put, axis=1).reshape(m, ni, ni)

    def svec(self, X):
        """The support columns, shape (k, m), of a stack of symmetric idx x
        idx matrices: smat's inverse."""
        return (X.reshape(X.shape[0], -1).take(self.at, axis=1) * self.w).T

    def read(self, Y):
        """The support entries of _BlockData.back(Y), as (k, m) columns:
        with C = P Y P_T', the svec entries of C + C' on the support read
        only the idx rows and columns of C, Q Y Q_T'."""
        C = ((self.Q @ Y) @ self.QT.T).reshape(Y.shape[0], -1)
        return ((C.take(self.at, axis=1) + C.take(self.at_t, axis=1))
                * self.w).T

    def cols(self, t):
        """_BlockData.cols of the block's svec columns that are t on the
        support and zero elsewhere: smat of them lives on idx x idx, so
        Hh[:, T] = Q' smat(t) Q_T."""
        return self.Q.T @ (self.smat(t) @ self.QT)


class WoodburyNewtonOperator:
    """Newton operator for separable projection-type problems.

    Applies when the problem has no equality constraints, the cone
    Jacobian is the identity, and the Hessian is diagonal, with diagonal
    w from separable_diagonal.  Writing the Hessian as I - C with C
    diagonal and supported on k coordinates, the forward system is

        (V C - I) dx = r3 - V r1,    dGamma = r1 - W dx,

    and the Woodbury identity makes (V C - I)^{-1} an identity plus a
    rank-k update, S being the support of C.  Its k-by-k core is the
    symmetric M = diag(1/c_S) - V[S, S], which factors once per iterate.
    The transpose solve is the forward solve (see the module docstring),
    and the smallest singular value comes from the usual Lanczos
    iteration on the solves.  V is block diagonal over cone blocks, so
    the core is too.

    In svec coordinates V is orthogonally similar to the mask, whose
    entries lie in [0, 1], so 0 <= V[S, S] <= I, and separable_diagonal
    admits only w in [0, 1], so c lies in (0, 1] and each core is
    positive semidefinite (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10).  Cholesky factors its scaling C^{1/2} M C^{1/2}
    = I - C^{1/2} V[S, S] C^{1/2}, through the shared verdict
    _factor_with_rcond, against 1 + ||V[S, S]||_1, which bounds the
    scale of its terms before they cancel: a breakdown, or a core that
    cancels to rounding noise, reads singular, as the assembled matrix
    does; a tiny c, whose 1/c would swamp an unscaled core, does not.
    That is the dense core (_woodbury_core), which every block with a
    curvature pair takes (at 0 < t < 1, every block with beta nonempty).
    Two kinds of block have a core in closed form, with no build and no
    factorization, judged by the same rule applied exactly to the known
    eigenvalues:
    - A block with T empty has V = I there, so its core is the diagonal
      diag(1/c - 1), stored inverted.  Its scaled core diag(1 - c) reads
      singular when min(1 - c) < _SINGULAR_RCOND (1 + max c).
    - A block with no curvature pair, a support S of every pair (i, j)
      of one index set idx, and one c0 on S (on ex5 near its solution:
      the last row of every solve).  There
      alpha or gamma is empty and V(H) = a H + s Pi H Pi, Pi = P_beta
      P_beta', with a = 1 when alpha is nonempty, else 0, and s = t - a:
      (a, s) is (1, -1) or (0, 0) under U0, and (0, 1) under UI, where T
      nonempty forces alpha empty.
      With B = Q_beta Q_beta' = U diag(b) U', Q = P[idx], the core is
      (1/c0 - a) I - s (B (x)_s B) (_kronecker_core), and its scaled
      core c0 M has the eigenvalues e_ij = 1 - c0 a - c0 s b_i b_j.  It
      reads singular when min e < _SINGULAR_RCOND (1 + max |a + s b_i
      b_j|), the 2-norm form of the dense rule, which measures against 1
      + ||V[S, S]||_1.  A solve costs two small GEMM pairs of order
      |idx| per column stack, not two passes over a triangular factor of
      order |S|: at 60/40, |idx| = 40 and |S| = 820.

    A solve is dx = -(b + V t), with b = r3 - V r1 and t = M^{-1} b on
    the support.  V(H) = H - back((1 - D) o cols(H)) (see _BlockData),
    so dx = r1 - r3 - t - back((1 - D) o (cols(r1) - cols(t))): per
    block, one cols of r1 and one back are the only maps over the whole
    block, each O(n^2 |T|) flops, not the O(n^3) of a full rotation.  b
    on the support reads the idx rows and columns of the first back, and
    t, supported on idx x idx, has cols Q' smat(t) Q_T, Q the support's
    rows idx of P (_SupportMaps, built with the core): O(|idx| n |T|)
    each.  A block with T empty costs no matrix product.  On ex5 at
    60/40, |T| is about 40 to 48 of n = 100, and |idx| = 40.
    """

    def __init__(self, problem, z, variant, decomps, w, blocks=None):
        self.variant = variant
        self.x_dim = problem.x_dim
        self.blocks = blocks or _block_split(decomps, variant)
        self._t_blocks = [b for b in self.blocks if b.T.size]
        self.dim = problem.total_dim
        self.reusable = False
        self.w = np.asarray(w, dtype=float)
        self.c = 1.0 - self.w
        self._build()
        self._sigma = None

    def _build(self):
        self.singular = False
        # (core, (support, block, _SupportMaps or None)) per block with a
        # core, the core a diagonal stored inverted, Cholesky factors or a
        # _KroneckerCore; the blocks with T nonempty but no core
        self._cores = []
        self._bare = []
        for b in self.blocks:
            cb = self.c[b.cs]
            loc = np.where(cb != 0.0)[0]
            if loc.size == 0:
                if b.T.size:
                    self._bare.append(b)
                continue
            c = cb[loc]
            at = b.cs.start + loc
            if b.T.size == 0:
                # V = I: the exact rcond of C^{1/2} M C^{1/2} = diag(1 - c)
                if (1.0 - c).min() < _SINGULAR_RCOND * (1.0 + c.max()):
                    self.singular = True
                    return
                self._cores.append((1.0 / (1.0 / c - 1.0), (at, b, None)))
                continue
            if b.ag.size == 0 and np.all(c == c[0]) and _full_pattern(b, loc):
                order, maps = _support_layout(b, loc)
                core = _kronecker_core(b, maps, c[0], self.variant)
                if core is None:
                    self.singular = True
                    return
                self._cores.append((core, (at[order], b, maps)))
                continue
            M, vnorm, order, maps = _woodbury_core(b, b.D, loc, c)
            # factor C^{1/2} M C^{1/2} against its scale 1 + ||V[S, S]||_1
            # (c <= 1), then unscale L to M's factor
            s = np.sqrt(c[order])
            j = np.flatnonzero(s != 1.0)
            M[:, j] *= s[j]
            M[j] *= s[j, None]
            factors = _factor_with_rcond(M, 1.0 + vnorm, overwrite=True,
                                         definite=True)
            if factors is None:
                self.singular = True
                return
            factors[0][j] /= s[j, None]
            self._cores.append((factors, (at[order], b, maps)))

    def _v_apply(self, v):
        """V applied to each column of v, shape (x_dim, m)."""
        out = v.copy()
        for b in self._t_blocks:
            out[b.cs] -= b.v_defect(v[b.cs])
        return out

    def _split(self, r):
        """(r1, r3), each of shape (x_dim, m), of a vector or a stack."""
        r = np.asarray(r, dtype=float).reshape(self.dim, -1)
        return r[:self.x_dim], r[self.x_dim:]

    def solve(self, r):
        """U d = r: dx = -(b + V t), with b = r3 - V r1 and t = M^{-1} b on
        the support, is r1 - r3 - t - back((1 - D) o (cols(r1) - cols(t)))
        block by block, one full cols and one back each; b on the support
        and the cols of t read only the support's rows of P."""
        if self.singular:
            raise SingularSystemError()
        r1, r3 = self._split(r)
        dx = r1 - r3
        for core, (at, b, maps) in self._cores:
            # r3 - r1 on the support: dx there is still r1 - r3
            rhs = -dx[at]
            if maps is None:
                # V = I on the block, and the core is stored inverted
                dx[at] -= core[:, None] * rhs
                continue
            Y = b.one_minus_d * b.cols(r1[b.cs])
            rhs += maps.read(Y)
            t = (core.solve(rhs) if isinstance(core, _KroneckerCore)
                 else _factor_solve(core, rhs))
            dx[at] -= t
            dx[b.cs] -= b.back(Y - b.one_minus_d * maps.cols(t))
        for b in self._bare:
            dx[b.cs] -= b.v_defect(r1[b.cs])
        dG = r1 - self.w[:, None] * dx
        return np.concatenate([dx, dG]).reshape(np.shape(r))

    def solve_t(self, r):
        """U' d = r, as ReducedNewtonOperator.solve_t with G = I."""
        r1, r3 = self._split(r)
        d1, d3 = self._split(self.solve(np.concatenate([r1 - r3, -r3])))
        return np.concatenate([d1, -(d3 + d1)]).reshape(np.shape(r))

    def matvec(self, d):
        dx, dG = self._split(d)
        return np.concatenate([self.w[:, None] * dx + dG,
                               self._v_apply(dx + dG) - dx]
                              ).reshape(np.shape(d))

    sigma_min = _sigma_min


def reuse_compatible(cached, problem, z_new, decomps, variant):
    """True when a cached operator's factorization remains valid.

    Requires a backend built where V = I (reusable), the same variant,
    V = I at the new iterate (t0 = n in every block), explicitly constant
    Jacobians, and a Hessian that evaluates to the same matrix at the new
    iterate; R = [[W, J'], [J, 0]] then reads no eigenbasis at either.
    """
    if cached is None or cached.singular or not cached.reusable:
        return False
    if cached.variant != variant or any(
            _unit_count(dec, variant) < dec.n for dec in decomps):
        return False
    if problem.eq_dim and problem.jac_h_matrix is None:
        return False
    if problem.jac_g_matrix is None or problem.hess_matrix_fn is None:
        return False
    W_new = hess_matrix_of(problem, z_new.x, z_new.xi, z_new.Gamma)
    return _same_matrix(W_new, cached.W)


def _same_matrix(A, B):
    """A and B hold the same values, in any storage: |A - B| sums to zero
    exactly when A - B has no nonzero entry, a nan reading as one."""
    return A.shape == B.shape and float(abs(A - B).sum()) == 0.0

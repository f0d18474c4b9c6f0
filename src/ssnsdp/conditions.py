"""Executable regularity checks at a KKT point.

Four conditions are implemented, each returning a holds/margin pair:

* weak second order condition (check_w_soc): the curvature form is
  positive definite on the subspace cut out by the equality Jacobian and
  the zero/negative sectors of the rotated cone Jacobian, including the
  two-sided zero sector.
* strong second order condition (check_s_sosc): same form, positive
  definite on the larger subspace that leaves the two-sided zero sector
  free.
* weak residual constraint qualification (check_w_srcq): equality
  gradients together with the mixed and doubly-negative sector rows are
  linearly independent.
* constraint nondegeneracy (check_cn): same with the two-sided zero
  sector rows added.

Margins are the smallest eigenvalue of the reduced curvature form for
the second order conditions and the smallest singular value of the
stacked gradients for the qualification conditions.  A condition whose
constraint set is empty holds vacuously with margin +inf.

Every entry point validates that the supplied point actually satisfies
the KKT system (residual norm at most 1e-10) and raises ValueError
otherwise; the sector split is meaningless away from a solution.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from dataclasses import dataclass, field

from .linalg_sym import svec_len
from .problem import hess_matrix_of, jac_g_matrix_of, jac_h_matrix_of, to_dense
from .kkt import assemble_U, cone_decompositions, kkt_residual, min_singular_value
from ._reduced import (ReducedNewtonOperator, WoodburyNewtonOperator,
                       _sector_codes, rotated_rows, separable_diagonal)

RESIDUAL_TOL = 1e-10

# margins at or below this are treated as failures of the (open) condition
CHECK_TOL = 1e-8

# per-sector pair codes (0 alpha, 1 beta, 2 gamma); index order within a
# block follows the eigenvalue sort, so code pairs always come sorted
_SOSC_SECTORS = ((1, 2), (2, 2))
_SOC_SECTORS = ((1, 1), (1, 2), (2, 2))

# above this total dimension the report computes Newton-matrix singular
# values through the factorized reduced form instead of a dense SVD
_DENSE_SIGMA_LIMIT = 1200


@dataclass
class ConditionResult:
    holds: bool
    margin: float


@dataclass
class ConditionReport:
    """The four condition results plus the smallest singular values of the
    zero-sided (U0) and identity-sided (UI) Newton matrices at the point.
    A sigma_min of 0.0 means the matrix is singular; nan means the
    Lanczos iteration of the structured path did not converge, so the
    value is unknown (it raises no certificate warning)."""

    problem_name: str
    w_soc: ConditionResult
    s_sosc: ConditionResult
    w_srcq: ConditionResult
    cn: ConditionResult
    u0_sigma_min: float
    ui_sigma_min: float
    warnings: list = field(default_factory=list)


def _checked_decomps(problem, z, class_tol=None):
    decomps = cone_decompositions(problem, z, class_tol)
    res = kkt_residual(problem, z, _decomps=decomps).norm()
    if not res <= RESIDUAL_TOL:
        raise ValueError(
            f"point does not satisfy the KKT system (residual {res:.3e}); "
            "sector-based checks need a solution")
    return decomps


def _g_blocks(problem, x):
    G = jac_g_matrix_of(problem, x)
    offs = np.cumsum([0] + [svec_len(n) for n in problem.cone_blocks])
    return [G[offs[i]:offs[i + 1]] for i in range(len(problem.cone_blocks))]


def _sector_pairs(dec, sectors):
    c = _sector_codes(dec)
    iu, ju = np.triu_indices(dec.n)
    mask = np.zeros(iu.size, dtype=bool)
    for ci, cj in sectors:
        mask |= (c[iu] == ci) & (c[ju] == cj)
    k = np.where(mask)[0]
    return iu[k], ju[k]


def _constraint_rows(problem, z, decomps, sectors):
    """Equality Jacobian plus the selected rotated cone sectors, as a
    list of row blocks (sparse or dense)."""
    rows = []
    if problem.eq_dim:
        rows.append(jac_h_matrix_of(problem, z.x))
    for dec, Gb in zip(decomps, _g_blocks(problem, z.x)):
        ri, rj = _sector_pairs(dec, sectors)
        if ri.size:
            rows.append(rotated_rows(dec, ri, rj, Gb))
    return rows


def _null_basis(rows, x_dim):
    """Orthonormal null-space basis of the stacked rows.

    Returned as ("coords", indices) when every row touches at most one
    coordinate (then the basis is a subset of unit vectors), otherwise
    as ("dense", N).
    """
    if not rows:
        return ("coords", np.arange(x_dim))
    if all(sp.issparse(r) for r in rows):
        C = sp.vstack(rows).tocsr()
        C.eliminate_zeros()
        if np.all(np.diff(C.indptr) <= 1):
            keep = np.setdiff1d(np.arange(x_dim), np.unique(C.indices))
            return ("coords", keep)
        C = C.toarray()
    else:
        C = np.vstack([to_dense(r) for r in rows])
    if x_dim <= 400:
        return ("dense", scipy.linalg.null_space(C, rcond=1e-10))
    Q, R, _ = scipy.linalg.qr(C.T, mode="full", pivoting=True)
    d = np.abs(np.diag(R)) if min(R.shape) else np.zeros(0)
    rank = int(np.sum(d > 1e-10 * (d[0] if d.size else 0.0)))
    return ("dense", Q[:, rank:])


def _add(A, B):
    if sp.issparse(A) and not sp.issparse(B):
        return A.toarray() + B
    if sp.issparse(B) and not sp.issparse(A):
        return A + B.toarray()
    return A + B


def _curvature_matrix(problem, z, decomps):
    """Lagrangian Hessian plus the cone curvature term.

    The extra term is a positive combination of the alpha-gamma sector
    rows weighted by -lam_j / lam_i; the sqrt(2) svec scaling of the
    off-diagonal rows supplies the pair-counting factor 2.
    """
    Q = hess_matrix_of(problem, z.x, z.xi, z.Gamma)
    for dec, Gb in zip(decomps, _g_blocks(problem, z.x)):
        ri, rj = _sector_pairs(dec, ((0, 2),))
        if ri.size == 0:
            continue
        w = -dec.lam[rj] / dec.lam[ri]
        R = rotated_rows(dec, ri, rj, Gb)
        if sp.issparse(R):
            Q = _add(Q, R.T @ sp.diags(w) @ R)
        else:
            Q = _add(Q, R.T @ (w[:, None] * R))
    return Q


def _psd_margin(Q, basis):
    """Smallest eigenvalue of Q restricted to the given basis (+inf when
    the basis is empty)."""
    kind, data = basis
    if kind == "coords":
        idx = np.asarray(data)
        if idx.size == 0:
            return float("inf")
        if sp.issparse(Q):
            diag = Q.diagonal()
            off = Q - sp.diags(diag)
            off.eliminate_zeros()
            if off.nnz == 0:
                return float(np.min(diag[idx]))
            M = Q.tocsr()[idx][:, idx].toarray()
        else:
            M = np.asarray(Q)[np.ix_(idx, idx)]
    else:
        N = data
        if N.shape[1] == 0:
            return float("inf")
        M = np.asarray(N.T @ (Q @ N))
    M = 0.5 * (M + M.T)
    return float(scipy.linalg.eigvalsh(M)[0])


def _independence_margin(rows, x_dim):
    """Smallest singular value of the stacked rows (+inf when there are
    none, 0.0 when there are more rows than columns)."""
    total = sum(r.shape[0] for r in rows)
    if total == 0:
        return float("inf")
    if total > x_dim:
        return 0.0
    if all(sp.issparse(r) for r in rows):
        C = sp.vstack(rows).tocsr()
        C.eliminate_zeros()
        per_row = np.diff(C.indptr)
        if np.any(per_row == 0):
            return 0.0
        if np.all(per_row == 1):
            # mutually orthogonal unless two rows share a coordinate
            if np.unique(C.indices).size < C.shape[0]:
                return 0.0
            return float(np.min(np.abs(C.data)))
        C = C.toarray()
    else:
        C = np.vstack([to_dense(r) for r in rows])
    w = scipy.linalg.eigvalsh(C @ C.T)
    return float(np.sqrt(max(w[0], 0.0)))


def _basis_to_dense(basis, x_dim):
    kind, data = basis
    if kind == "dense":
        return data
    idx = np.asarray(data)
    N = np.zeros((x_dim, idx.size))
    N[idx, np.arange(idx.size)] = 1.0
    return N


def appl_basis(problem, z, class_tol=None):
    """Orthonormal basis (columns) of the subspace used by check_w_soc."""
    decomps = _checked_decomps(problem, z, class_tol)
    rows = _constraint_rows(problem, z, decomps, _SOC_SECTORS)
    return _basis_to_dense(_null_basis(rows, problem.x_dim), problem.x_dim)


def app_basis(problem, z, class_tol=None):
    """Orthonormal basis (columns) of the subspace used by check_s_sosc."""
    decomps = _checked_decomps(problem, z, class_tol)
    rows = _constraint_rows(problem, z, decomps, _SOSC_SECTORS)
    return _basis_to_dense(_null_basis(rows, problem.x_dim), problem.x_dim)


def check_w_soc(problem, z, check_tol=CHECK_TOL, class_tol=None,
                _decomps=None):
    decomps = _decomps if _decomps is not None \
        else _checked_decomps(problem, z, class_tol)
    basis = _null_basis(
        _constraint_rows(problem, z, decomps, _SOC_SECTORS), problem.x_dim)
    margin = _psd_margin(_curvature_matrix(problem, z, decomps), basis)
    return ConditionResult(margin > check_tol, margin)


def check_s_sosc(problem, z, check_tol=CHECK_TOL, class_tol=None,
                 _decomps=None):
    decomps = _decomps if _decomps is not None \
        else _checked_decomps(problem, z, class_tol)
    basis = _null_basis(
        _constraint_rows(problem, z, decomps, _SOSC_SECTORS), problem.x_dim)
    margin = _psd_margin(_curvature_matrix(problem, z, decomps), basis)
    return ConditionResult(margin > check_tol, margin)


def check_w_srcq(problem, z, check_tol=CHECK_TOL, class_tol=None,
                 _decomps=None):
    decomps = _decomps if _decomps is not None \
        else _checked_decomps(problem, z, class_tol)
    rows = _constraint_rows(problem, z, decomps, _SOSC_SECTORS)
    margin = _independence_margin(rows, problem.x_dim)
    return ConditionResult(margin > check_tol, margin)


def check_cn(problem, z, check_tol=CHECK_TOL, class_tol=None,
             _decomps=None):
    decomps = _decomps if _decomps is not None \
        else _checked_decomps(problem, z, class_tol)
    rows = _constraint_rows(problem, z, decomps, _SOC_SECTORS)
    margin = _independence_margin(rows, problem.x_dim)
    return ConditionResult(margin > check_tol, margin)


def _newton_sigma(problem, z, variant, decomps):
    if problem.total_dim <= _DENSE_SIGMA_LIMIT:
        return min_singular_value(
            assemble_U(problem, z, variant, _decomps=decomps))
    w = separable_diagonal(problem, z)
    if w is not None:
        op = WoodburyNewtonOperator(problem, z, variant, decomps, w)
    else:
        op = ReducedNewtonOperator(problem, z, variant, decomps)
    return op.sigma_min()


def regularity_report(problem, z, check_tol=CHECK_TOL, class_tol=None):
    """All four condition checks plus Newton-matrix singular values.

    Nonsingularity certificates: w_soc together with cn certifies the
    zero-sided Newton matrix, s_sosc together with w_srcq the
    identity-sided one.  A warning is recorded whenever a certificate
    holds but the computed smallest singular value is still tiny.
    """
    decomps = _checked_decomps(problem, z, class_tol)
    w_soc = check_w_soc(problem, z, check_tol, _decomps=decomps)
    s_sosc = check_s_sosc(problem, z, check_tol, _decomps=decomps)
    w_srcq = check_w_srcq(problem, z, check_tol, _decomps=decomps)
    cn = check_cn(problem, z, check_tol, _decomps=decomps)
    u0_sigma = _newton_sigma(problem, z, "U0", decomps)
    ui_sigma = _newton_sigma(problem, z, "UI", decomps)
    warnings = []
    if w_soc.holds and cn.holds and u0_sigma <= 1e-8:
        warnings.append(
            f"U0 certified nonsingular but sigma_min is {u0_sigma:.3e}")
    if s_sosc.holds and w_srcq.holds and ui_sigma <= 1e-8:
        warnings.append(
            f"UI certified nonsingular but sigma_min is {ui_sigma:.3e}")
    return ConditionReport(
        problem_name=problem.name, w_soc=w_soc, s_sosc=s_sosc,
        w_srcq=w_srcq, cn=cn, u0_sigma_min=u0_sigma, ui_sigma_min=ui_sigma,
        warnings=warnings)

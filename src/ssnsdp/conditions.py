"""Executable regularity checks at a KKT point.

Each condition pairs with the Newton element it certifies: W-SOC together
with CN certifies the zero-sided U0, S-SOSC together with W-SRCQ the
identity-sided UI (the classical form of this link is D. Sun, Math. Oper.
Res. 31 (2006) 761-776).  A check reads the pair split of its variant's
reduced Newton system (_BlockData in _reduced.py):

* constraint rows: the equality Jacobian plus the rotated cone Jacobian
  rows of the eigenvalue pairs that the variant's mask zeroes, which are
  beta-beta, beta-gamma and gamma-gamma under U0, and beta-gamma and
  gamma-gamma under UI;
* curvature: the Lagrangian Hessian plus the alpha-gamma rows weighted by
  -lam_j / lam_i, the same under either variant.

The second order conditions (check_w_soc on U0, check_s_sosc on UI) ask
the curvature form to be positive definite on the null space of the
rows; the margin is its smallest eigenvalue there.  The qualification
conditions (check_cn on U0, check_w_srcq on UI) ask the rows to be
linearly independent; the margin is their smallest singular value.  A
condition over a zero subspace or over no rows holds vacuously with
margin +inf.

Every entry point validates that the supplied point actually satisfies
the KKT system (residual norm at most 1e-10) and raises ValueError
otherwise; the pair split is meaningless away from a solution.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from dataclasses import dataclass, field
from typing import Optional

from .linalg_sym import svec_len
from .problem import hess_matrix_of, jac_g_matrix_of, jac_h_matrix_of, to_dense
from .kkt import (assemble_U, clarke_combination, cone_decompositions,
                  kkt_residual, min_singular_value)
from ._reduced import _BlockData
from .solver import _make_backend

RESIDUAL_TOL = 1e-10

# margins at or below this are treated as failures of the (open) condition
CHECK_TOL = 1e-8

# the Clarke-midpoint probe assembles both Newton matrices and takes a full
# SVD of their midpoint, so it runs only up to this many unknowns
CLARKE_PROBE_LIMIT = 1200


@dataclass
class ConditionResult:
    holds: bool
    margin: float


@dataclass
class ConditionReport:
    """The four condition results plus the smallest singular values of the
    zero-sided (U0) and identity-sided (UI) Newton matrices at the point,
    as the solver's backends compute them.  A sigma_min of 0.0 means the
    backend's factorization flagged the matrix singular, on every backend.
    Up to _LANCZOS_BASIS (30) unknowns a sigma_min is exact.  nan can
    only appear above that: it means the backend's Lanczos iteration did
    not converge, so the value is unknown (it raises no certificate
    warning).

    clarke_mid_sigma_min probes the Clarke midpoint 0.5 (U0 + UI), which
    can be nonsingular although both endpoints are not: the full-SVD
    smallest singular value of the assembled midpoint when both sigmas
    are at most 1e-8 and the problem has at most CLARKE_PROBE_LIMIT
    unknowns, None otherwise."""

    problem_name: str
    w_soc: ConditionResult
    s_sosc: ConditionResult
    w_srcq: ConditionResult
    cn: ConditionResult
    u0_sigma_min: float
    ui_sigma_min: float
    clarke_mid_sigma_min: Optional[float] = None
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


def _constraint_rows(problem, z, decomps, variant):
    """Equality Jacobian plus the rotated cone rows of the pairs that the
    variant's mask zeroes, as a list of row blocks (sparse or dense)."""
    rows = []
    if problem.eq_dim:
        rows.append(jac_h_matrix_of(problem, z.x))
    for dec, Gb in zip(decomps, _g_blocks(problem, z.x)):
        b = _BlockData(dec, variant)
        if b.zer.size:
            rows.append(b.s_rows(b.zer, Gb))
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

    The extra term is a positive combination of the alpha-gamma rows
    weighted by c_ag = -lam_j / lam_i; the sqrt(2) svec scaling of the
    off-diagonal rows supplies the pair-counting factor 2.  Those rows
    and weights do not depend on the variant, and UI's block data is the
    cheaper to build (its T, gamma only, is the smaller).
    """
    Q = hess_matrix_of(problem, z.x, z.xi, z.Gamma)
    for dec, Gb in zip(decomps, _g_blocks(problem, z.x)):
        b = _BlockData(dec, "UI")
        if b.ag.size == 0:
            continue
        R = b.s_rows(b.ag, Gb)
        if sp.issparse(R):
            Q = _add(Q, R.T @ sp.diags(b.c_ag) @ R)
        else:
            Q = _add(Q, R.T @ (b.c_ag[:, None] * R))
    return Q


def _second_order_margin(problem, z, decomps, variant):
    """Smallest eigenvalue of the curvature form on the null space of the
    variant's constraint rows (+inf when that space is zero)."""
    kind, data = _null_basis(_constraint_rows(problem, z, decomps, variant),
                             problem.x_dim)
    Q = _curvature_matrix(problem, z, decomps)
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


def _independence_margin(problem, z, decomps, variant):
    """Smallest singular value of the variant's stacked constraint rows
    (+inf when there are none, 0.0 when there are more rows than
    columns)."""
    rows = _constraint_rows(problem, z, decomps, variant)
    total = sum(r.shape[0] for r in rows)
    if total == 0:
        return float("inf")
    if total > problem.x_dim:
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


def _check(margin_of, variant, problem, z, check_tol, class_tol, decomps):
    if decomps is None:
        decomps = _checked_decomps(problem, z, class_tol)
    margin = margin_of(problem, z, decomps, variant)
    return ConditionResult(margin > check_tol, margin)


def check_w_soc(problem, z, check_tol=CHECK_TOL, class_tol=None,
                _decomps=None):
    return _check(_second_order_margin, "U0", problem, z, check_tol,
                  class_tol, _decomps)


def check_s_sosc(problem, z, check_tol=CHECK_TOL, class_tol=None,
                 _decomps=None):
    return _check(_second_order_margin, "UI", problem, z, check_tol,
                  class_tol, _decomps)


def check_w_srcq(problem, z, check_tol=CHECK_TOL, class_tol=None,
                 _decomps=None):
    return _check(_independence_margin, "UI", problem, z, check_tol,
                  class_tol, _decomps)


def check_cn(problem, z, check_tol=CHECK_TOL, class_tol=None,
             _decomps=None):
    return _check(_independence_margin, "U0", problem, z, check_tol,
                  class_tol, _decomps)


def _newton_sigma(problem, z, variant, decomps):
    """Smallest singular value of the Newton matrix at z, from the solver's
    own backend (see its sigma_min)."""
    return _make_backend(problem, z, variant, decomps).sigma_min()


def regularity_report(problem, z, check_tol=CHECK_TOL, class_tol=None):
    """All four condition checks plus Newton-matrix singular values.

    Nonsingularity certificates: w_soc together with cn certifies the
    zero-sided Newton matrix, s_sosc together with w_srcq the
    identity-sided one.  A warning is recorded whenever a certificate
    holds but the computed smallest singular value is still tiny.  When
    both are tiny on a problem of at most CLARKE_PROBE_LIMIT unknowns,
    the report also probes the Clarke midpoint of the two assembled
    matrices.
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
    clarke_mid = None
    if (u0_sigma <= 1e-8 and ui_sigma <= 1e-8
            and problem.total_dim <= CLARKE_PROBE_LIMIT):
        mid = clarke_combination(
            assemble_U(problem, z, "U0", _decomps=decomps),
            assemble_U(problem, z, "UI", _decomps=decomps), 0.5)
        clarke_mid = min_singular_value(mid)
    return ConditionReport(
        problem_name=problem.name, w_soc=w_soc, s_sosc=s_sosc,
        w_srcq=w_srcq, cn=cn, u0_sigma_min=u0_sigma, ui_sigma_min=ui_sigma,
        clarke_mid_sigma_min=clarke_mid, warnings=warnings)

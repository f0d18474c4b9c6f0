"""Executable regularity checks at a KKT point.

Each condition pairs with the Newton element it certifies: W-SOC together
with CN certifies the zero-sided U0, S-SOSC together with W-SRCQ the
identity-sided UI (the classical form of this link is D. Sun, Math. Oper.
Res. 31 (2006) 761-776).  The conditions are statements about the blocks
of the variant's reduced Newton system R = [[K, J', Gz'], [J, 0, 0],
[Gz, 0, 0]] (see _reduced.py), and a check derives them with the same
helpers that build R, over the variant's pair split (_BlockData):

* constraint rows, the border [J; Gz] (_border): the equality Jacobian
  plus the rotated cone Jacobian rows of the eigenvalue pairs that the
  variant's mask zeroes, which are beta-beta, beta-gamma and gamma-gamma
  under U0, and beta-gamma and gamma-gamma under UI;
* curvature, K: the Lagrangian Hessian plus the alpha-gamma rows weighted
  by -lam_j / lam_i (_curvature), the same under either variant.

The second order conditions (check_w_soc on U0, check_s_sosc on UI) ask
the curvature form to be positive definite on the null space of the
rows; the margin is its smallest eigenvalue there.  The qualification
conditions (check_cn on U0, check_w_srcq on UI) ask the rows to be
linearly independent; the margin is their smallest singular value.  A
condition over a zero subspace or over no rows holds vacuously with
margin +inf.  regularity_report derives each variant's rows and the
curvature once and hands them to the four checks.

Every entry point validates that the supplied point actually satisfies
the KKT system (residual norm at most 1e-10) and raises ValueError
otherwise; the pair split is meaningless away from a solution.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dnrm2
from dataclasses import dataclass, field
from typing import Optional

from .problem import hess_matrix_of, jac_g_matrix_of, jac_h_matrix_of
from .kkt import (assemble_U, clarke_combination, cone_decompositions,
                  kkt_residual, min_singular_value)
from ._reduced import _BlockData, _border, _curvature
from .solver import _make_backend

RESIDUAL_TOL = 1e-10

# the report's one zero test, read when a check runs: a condition margin
# or a Newton sigma_min at or below this counts as zero
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
    are at most CHECK_TOL and the problem has at most CLARKE_PROBE_LIMIT
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


def _checked_decomps(problem, z):
    decomps = cone_decompositions(problem, z)
    # dnrm2 scales, so a finite F past 1.3e154 reads finite, not overflow
    res = dnrm2(kkt_residual(problem, z, _decomps=decomps))
    if not res <= RESIDUAL_TOL:
        raise ValueError(
            f"point does not satisfy the KKT system (residual {res:.3e}); "
            "sector-based checks need a solution")
    return decomps


def _constraint_rows(problem, z, blocks, G):
    """The border [J; Gz] of R for the blocks' variant (_border), with
    no explicit zeros when sparse."""
    J = jac_h_matrix_of(problem, z.x) if problem.eq_dim else None
    C = _border(J, blocks, G)
    if sp.issparse(C):
        C.eliminate_zeros()
    return C


def _null_basis(C):
    """Orthonormal null-space basis of the rows C.

    Returned as ("coords", indices) when C is sparse and every row
    touches at most one coordinate (then the basis is a subset of unit
    vectors), otherwise as ("dense", N).
    """
    if sp.issparse(C):
        if np.all(np.diff(C.indptr) <= 1):
            hits = np.bincount(C.indices, minlength=C.shape[1])
            return ("coords", np.flatnonzero(hits == 0))
        C = C.toarray()
    return ("dense", scipy.linalg.null_space(C, rcond=1e-10))


def _curvature_matrix(problem, z, blocks, G):
    """K of R: the Lagrangian Hessian plus the alpha-gamma curvature of
    the blocks.  The sqrt(2) svec scaling of the off-diagonal rows
    supplies the pair-counting factor 2.  Those rows and weights do not
    depend on the variant."""
    return _curvature(hess_matrix_of(problem, z.x, z.xi, z.Gamma), blocks, G)


def _second_order_margin(C, Q):
    """Smallest eigenvalue of the curvature form Q on the null space of
    the rows C (+inf when that space is zero)."""
    kind, data = _null_basis(C)
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


def _independence_margin(C):
    """Smallest singular value of the rows C (+inf when there are none,
    0.0 when there are more rows than columns)."""
    if C.shape[0] == 0:
        return float("inf")
    if C.shape[0] > C.shape[1]:
        return 0.0
    if sp.issparse(C):
        per_row = np.diff(C.indptr)
        if np.any(per_row == 0):
            return 0.0
        if np.all(per_row == 1):
            # mutually orthogonal unless two rows share a coordinate
            if np.bincount(C.indices).max() > 1:
                return 0.0
            return float(np.min(np.abs(C.data)))
        C = C.toarray()
    w = scipy.linalg.eigvalsh(C @ C.T)
    return float(np.sqrt(max(w[0], 0.0)))


def _lone_blocks(problem, z, variant):
    """What a check called on its own derives for itself: the variant's
    block data at the validated point, and the cone Jacobian."""
    decomps = _checked_decomps(problem, z)
    return ([_BlockData(dec, variant) for dec in decomps],
            jac_g_matrix_of(problem, z.x))


def _second_order(variant, problem, z, C, K):
    if C is None or K is None:
        blocks, G = _lone_blocks(problem, z, variant)
        C = _constraint_rows(problem, z, blocks, G)
        K = _curvature_matrix(problem, z, blocks, G)
    margin = _second_order_margin(C, K)
    return ConditionResult(margin > CHECK_TOL, margin)


def _independence(variant, problem, z, C):
    if C is None:
        C = _constraint_rows(problem, z, *_lone_blocks(problem, z, variant))
    margin = _independence_margin(C)
    return ConditionResult(margin > CHECK_TOL, margin)


def check_w_soc(problem, z, _rows=None, _K=None):
    return _second_order("U0", problem, z, _rows, _K)


def check_s_sosc(problem, z, _rows=None, _K=None):
    return _second_order("UI", problem, z, _rows, _K)


def check_w_srcq(problem, z, _rows=None):
    return _independence("UI", problem, z, _rows)


def check_cn(problem, z, _rows=None):
    return _independence("U0", problem, z, _rows)


def _checks(problem, z, decomps):
    """The four condition results of the report, from each variant's rows
    and the curvature derived once.  The curvature reads UI's block data,
    the cheaper to build (its T, gamma only, is the smaller); it does not
    depend on the variant.  All of it is freed before the Newton sigmas
    are computed."""
    G = jac_g_matrix_of(problem, z.x)
    u0 = [_BlockData(dec, "U0") for dec in decomps]
    ui = [_BlockData(dec, "UI") for dec in decomps]
    C0 = _constraint_rows(problem, z, u0, G)
    CI = _constraint_rows(problem, z, ui, G)
    K = _curvature_matrix(problem, z, ui, G)
    return (check_w_soc(problem, z, _rows=C0, _K=K),
            check_s_sosc(problem, z, _rows=CI, _K=K),
            check_w_srcq(problem, z, _rows=CI),
            check_cn(problem, z, _rows=C0))


def _newton_sigma(problem, z, variant, decomps):
    """Smallest singular value of the Newton matrix at z, from the solver's
    own backend (see its sigma_min)."""
    return _make_backend(problem, z, variant, decomps).sigma_min()


def regularity_report(problem, z):
    """All four condition checks plus Newton-matrix singular values.

    Nonsingularity certificates: w_soc together with cn certifies the
    zero-sided Newton matrix, s_sosc together with w_srcq the
    identity-sided one.  A warning is recorded whenever a certificate
    holds but the computed smallest singular value is still at most
    CHECK_TOL.  When both are that small on a problem of at most
    CLARKE_PROBE_LIMIT unknowns, the report also probes the Clarke
    midpoint of the two assembled matrices.
    """
    decomps = _checked_decomps(problem, z)
    w_soc, s_sosc, w_srcq, cn = _checks(problem, z, decomps)
    u0_sigma = _newton_sigma(problem, z, "U0", decomps)
    ui_sigma = _newton_sigma(problem, z, "UI", decomps)
    warnings = []
    if w_soc.holds and cn.holds and u0_sigma <= CHECK_TOL:
        warnings.append(
            f"U0 certified nonsingular but sigma_min is {u0_sigma:.3e}")
    if s_sosc.holds and w_srcq.holds and ui_sigma <= CHECK_TOL:
        warnings.append(
            f"UI certified nonsingular but sigma_min is {ui_sigma:.3e}")
    clarke_mid = None
    if (u0_sigma <= CHECK_TOL and ui_sigma <= CHECK_TOL
            and problem.total_dim <= CLARKE_PROBE_LIMIT):
        mid = clarke_combination(
            assemble_U(problem, z, "U0", _decomps=decomps),
            assemble_U(problem, z, "UI", _decomps=decomps), 0.5)
        clarke_mid = min_singular_value(mid)
    return ConditionReport(
        problem_name=problem.name, w_soc=w_soc, s_sosc=s_sosc,
        w_srcq=w_srcq, cn=cn, u0_sigma_min=u0_sigma, ui_sigma_min=ui_sigma,
        clarke_mid_sigma_min=clarke_mid, warnings=warnings)

"""Executable regularity checks at a KKT point.

Each condition pairs with the Newton element it certifies: W-SOC together
with CN certifies the zero-sided U0, S-SOSC together with W-SRCQ the
identity-sided UI (the classical form of this link is D. Sun, Math. Oper.
Res. 31 (2006) 761-776).  The conditions are statements about the blocks
of the variant's reduced Newton system R = [[K, J', Gz'], [J, 0, 0],
[Gz, 0, 0]] (see _reduced.py), and a check derives them with the same
helpers that build R, over the variant's pair split (_block_split):

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
margin +inf.  One analysis of a variant's rows (_row_split) answers
both questions, under the one zero test CHECK_TOL.  regularity_report
builds each variant's backend once, for its sigma_min, and reads the
variant's rows from that backend's block data, and the curvature from
UI's, so R and the conditions read one derivation (a third backend, at
the Clarke midpoint, gives the midpoint's sigma_min); it splits each
variant's rows once, and the four checks get the splits ready made.

Every entry point validates the point (problem._validate_point) and
that it actually satisfies the KKT system (residual norm at most 1e-10),
and raises ValueError otherwise; the pair split is meaningless away from
a solution.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dnrm2
from dataclasses import dataclass, field
from typing import Optional

from .problem import (_validate_point, hess_matrix_of, jac_g_matrix_of,
                      jac_h_matrix_of)
# assemble_U and min_singular_value: unused here, kept for perfbench's spans
from .kkt import (assemble_U, cone_decompositions, kkt_residual,
                  min_singular_value)
from ._reduced import (_block_split, _border, _coordinate_rows, _curvature,
                       _make_backend, _sparse_diagonal)

RESIDUAL_TOL = 1e-10

# the report's one zero test, read when a check runs: a condition margin,
# a singular value of the constraint rows (so a null direction of theirs)
# or a Newton sigma_min at or below this counts as zero
CHECK_TOL = 1e-8


@dataclass
class ConditionResult:
    holds: bool
    margin: float


@dataclass
class ConditionReport:
    """The four condition results plus the smallest singular values of the
    zero-sided (U0) and identity-sided (UI) Newton matrices at the point,
    as the solver's backends compute them.  A sigma_min of 0.0 means the
    backend's verdict flagged the matrix singular, on every backend.
    A sigma_min is exact up to _LANCZOS_BASIS (30) unknowns, and at any
    size where the matrix splits into one 2x2 or 3x3 block per x
    coordinate (_reduced._split_blocks), as on ex1 and ex5 at their
    catalog solutions.  nan can only appear elsewhere: it means the
    backend's Lanczos iteration did not converge, so the value is unknown
    (it raises no certificate warning).

    clarke_mid_sigma_min probes the Clarke midpoint 0.5 (U0 + UI), which
    can be nonsingular although both endpoints are not: the sigma_min of
    the solver's backend at t = 0.5 (_reduced's segment t UI + (1 - t)
    U0), read as the two above, when both sigmas are at most CHECK_TOL,
    at any problem size; None otherwise."""

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
    _validate_point(problem, z, "point")
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
    C = _border(jac_h_matrix_of(problem, z.x), blocks, G)
    if sp.issparse(C):
        C.eliminate_zeros()
    return C


def _row_split(C):
    """(null, sigma): the directions on which the rows C have a singular
    value of at most CHECK_TOL, and C's smallest singular value (+inf with
    no rows, 0.0 with more rows than columns or an empty sparse row).
    Sparse rows of one entry at most (_coordinate_rows) read both off
    their columns, null as the column indices of 2-norm at most
    CHECK_TOL; other rows take one SVD of C, not of C C', which would
    square their conditioning."""
    m, n = C.shape
    rows = _coordinate_rows(C)
    if rows is not None:
        cols, vals, independent = rows
        norm2 = np.bincount(cols, weights=vals ** 2, minlength=n)
        null = np.flatnonzero(norm2 <= CHECK_TOL ** 2)
        dependent = not independent
        smallest = np.min(np.abs(vals), initial=np.inf)
    else:
        sparse = sp.issparse(C)
        dependent = m > n or (sparse and 0 in np.diff(C.indptr))
        _, s, vt = scipy.linalg.svd(C.toarray() if sparse else C)
        null = vt[np.count_nonzero(s > CHECK_TOL):].T
        smallest = np.min(s, initial=np.inf)
    return null, (float("inf") if m == 0 else 0.0 if dependent
                  else float(smallest))


def _curvature_matrix(problem, z, blocks, G):
    """K of R: the Lagrangian Hessian plus the alpha-gamma curvature of
    the blocks.  The sqrt(2) svec scaling of the off-diagonal rows
    supplies the pair-counting factor 2.  Those rows and weights do not
    depend on the variant."""
    return _curvature(hess_matrix_of(problem, z.x, z.xi, z.Gamma), blocks, G)


def _second_order_margin(null, K):
    """Smallest eigenvalue of the curvature form K on the null space of
    _row_split, given as column indices or as a basis (+inf when that
    space is zero)."""
    if null.size == 0:
        return float("inf")
    if null.ndim == 2:
        M = np.asarray(null.T @ (K @ null))
    elif not sp.issparse(K):
        M = np.asarray(K)[np.ix_(null, null)]
    elif (d := _sparse_diagonal(K)) is not None:
        return float(np.min(d[null]))
    else:
        M = K.tocsr()[null][:, null].toarray()
    M = 0.5 * (M + M.T)
    return float(scipy.linalg.eigvalsh(M)[0])


def _check(variant, problem, z, split, K, second_order):
    """The second order or the independence condition of the variant's
    rows, from their split and K, derived here when not given."""
    if split is None or (second_order and K is None):
        blocks = _block_split(_checked_decomps(problem, z), variant)
        G = jac_g_matrix_of(problem, z.x)
        split = _row_split(_constraint_rows(problem, z, blocks, G))
        if second_order:
            K = _curvature_matrix(problem, z, blocks, G)
    margin = _second_order_margin(split[0], K) if second_order else split[1]
    return ConditionResult(margin > CHECK_TOL, margin)


def check_w_soc(problem, z, _split=None, _K=None):
    return _check("U0", problem, z, _split, _K, True)


def check_s_sosc(problem, z, _split=None, _K=None):
    return _check("UI", problem, z, _split, _K, True)


def check_w_srcq(problem, z, _split=None):
    return _check("UI", problem, z, _split, None, False)


def check_cn(problem, z, _split=None):
    return _check("U0", problem, z, _split, None, False)


def _newton_sigma(problem, z, variant, decomps):
    """Smallest singular value of the Newton matrix at z, from the solver's
    own backend (see its sigma_min), and the backend's block data.  The
    backend and its factorization are freed on return."""
    op = _make_backend(problem, z, variant, decomps)
    return op.sigma_min(), op.blocks


def regularity_report(problem, z):
    """All four condition checks plus Newton-matrix singular values.

    One backend per variant, U0 then UI, each freed before the next is
    built; the rows and the curvature come from their block data once
    both are gone.  Nonsingularity certificates: w_soc together with cn
    certifies the zero-sided Newton matrix, s_sosc together with w_srcq
    the identity-sided one.  A warning is recorded whenever a certificate
    holds but the computed smallest singular value is still at most
    CHECK_TOL.  When both are that small, the report also probes the
    Clarke midpoint 0.5 (U0 + UI), on a third backend, built at t = 0.5
    after the other two are freed.
    """
    decomps = _checked_decomps(problem, z)
    u0_sigma, u0 = _newton_sigma(problem, z, "U0", decomps)
    ui_sigma, ui = _newton_sigma(problem, z, "UI", decomps)
    G = jac_g_matrix_of(problem, z.x)
    split0 = _row_split(_constraint_rows(problem, z, u0, G))
    split_i = _row_split(_constraint_rows(problem, z, ui, G))
    K = _curvature_matrix(problem, z, ui, G)
    w_soc = check_w_soc(problem, z, _split=split0, _K=K)
    s_sosc = check_s_sosc(problem, z, _split=split_i, _K=K)
    w_srcq = check_w_srcq(problem, z, _split=split_i)
    cn = check_cn(problem, z, _split=split0)
    warnings = [f"{v} certified nonsingular but sigma_min is {sigma:.3e}"
                for v, sigma, a, b in (("U0", u0_sigma, w_soc, cn),
                                       ("UI", ui_sigma, s_sosc, w_srcq))
                if a.holds and b.holds and sigma <= CHECK_TOL]
    clarke_mid = None
    if u0_sigma <= CHECK_TOL and ui_sigma <= CHECK_TOL:
        clarke_mid = _newton_sigma(problem, z, 0.5, decomps)[0]
    return ConditionReport(
        problem_name=problem.name, w_soc=w_soc, s_sosc=s_sosc,
        w_srcq=w_srcq, cn=cn, u0_sigma_min=u0_sigma, ui_sigma_min=ui_sigma,
        clarke_mid_sigma_min=clarke_mid, warnings=warnings)

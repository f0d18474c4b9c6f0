"""Built-in test problems with certified reference solutions.

Each builder returns (problem, solution) where solution carries the
reference KKT point, the largest safe correction radius, and the expected
outcome of every regularity check.  Solutions were verified by hand:
stationarity, feasibility and complementarity hold exactly in rational
arithmetic, so the residual at the reference point is zero to rounding.

Matrix variables enter through svec coordinates.  Where an equality
constraint pins individual matrix entries (ex1, ex2), the constraint rows
use the raw entry, so cross-position rows carry 1/sqrt(2) in svec
coordinates; reported margins and minimal singular values depend on this
normalization, and the reference values were derived for it.
"""

import numpy as np
import scipy.sparse as sp

from .linalg_sym import svec, smat, svec_len
from .problem import (
    BlockSymMatrix,
    KktPoint,
    KnownSolution,
    NlsdpProblem,
    qsdp_problem,
)


def _block_coord_masks(l1, l2):
    """svec-coordinate masks for the 2x2 block split of order l1+l2."""
    for name, size in (("l1", l1), ("l2", l2)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    n = l1 + l2
    iu, ju = np.triu_indices(n)
    in11 = ju < l1
    in22 = iu >= l1
    in12 = ~(in11 | in22)
    return in11, in12, in22


def example1(l1=60, l2=40):
    """Indefinite quadratic over the PSD cone with a zero solution.

    minimize 0.5 ||X_11||^2 - 0.5 ||X_22||^2 subject to X_12 = 0,
    X_22 = 0, X PSD.  The solution is X = 0 with zero multipliers; the
    multiplier set of the original program is unbounded there, so the
    nondegeneracy condition fails while the strong second-order and
    strict-Robinson conditions hold.
    """
    n = l1 + l2
    N = svec_len(n)
    in11, in12, in22 = _block_coord_masks(l1, l2)
    sgn = np.zeros(N)
    sgn[in11] = 1.0
    sgn[in22] = -1.0

    # Each row reads one raw matrix entry, so off-diagonal coordinates
    # (stored scaled by sqrt(2)) get coefficient 1/sqrt(2).
    iu, ju = np.triu_indices(n)
    cross = np.where(in12)[0]
    lower = np.where(in22)[0]
    cols = np.concatenate([cross, lower])
    off = iu[cols] != ju[cols]
    vals = np.where(off, 1.0 / np.sqrt(2.0), 1.0)
    eq_dim = cols.size
    J = sp.csr_matrix((vals, (np.arange(eq_dim), cols)), shape=(eq_dim, N))

    problem = NlsdpProblem(
        name="ex1",
        x_dim=N,
        eq_dim=eq_dim,
        cone_blocks=[n],
        f=lambda x: float(0.5 * x @ (sgn * x)),
        grad_f=lambda x: sgn * x,
        h=lambda x: J @ x,
        jac_h=lambda x, v: J @ v,
        jac_h_adj=lambda x, w: J.T @ w,
        g=lambda x: BlockSymMatrix([smat(x)]),
        jac_g=lambda x, v: BlockSymMatrix([smat(v)]),
        jac_g_adj=lambda x, W: W.svec(),
        hess_lagrangian=lambda x, xi, Gamma, v: sgn * v,
        convex=False,
        jac_h_matrix=J,
        jac_g_matrix=sp.identity(N, format="csr"),
        hess_matrix_fn=lambda x, xi, Gamma: sp.diags(sgn).tocsr(),
    )
    solution = KnownSolution(
        z_bar=KktPoint(np.zeros(N), np.zeros(eq_dim),
                       BlockSymMatrix.zeros([n])),
        delta_max=np.inf,
        expected_conditions={"w_soc": True, "s_sosc": True,
                             "w_srcq": True, "cn": False},
    )
    return problem, solution


def example2():
    """Feasibility-only program: minimize 0 s.t. X_12 = 0, X in S^2_+.

    Every generalized derivative of the KKT map at the zero solution is
    singular, but strict convex combinations of the two Newton surrogates
    are nonsingular; the solver's operator lattice over the derivative
    family is exercised through this problem.
    """
    r = 1.0 / np.sqrt(2.0)
    data = {
        "x_dim": 3, "eq_dim": 1, "cone_blocks": [2],
        "Q": np.zeros((3, 3)).tolist(),
        "c": [0.0, 0.0, 0.0],
        "H": [[0.0, r, 0.0]],
        "p": [0.0],
        "G": np.eye(3).tolist(),
        "q": [0.0, 0.0, 0.0],
    }
    problem = qsdp_problem(data, name="ex2")
    solution = KnownSolution(
        z_bar=KktPoint(np.zeros(3), np.zeros(1), BlockSymMatrix.zeros([2])),
        delta_max=np.inf,
        expected_conditions={"w_soc": True, "s_sosc": False,
                             "w_srcq": True, "cn": False},
    )
    return problem, solution


def example3():
    """Convex quadratic over S^2_+ with a trace cap.

    minimize 0.5 (X_11 - 1)^2 + 0.5 (X_22 - 2 X_12)^2 subject to
    <ones, X> <= 1, X PSD.  Solution X = e1 e1', zero multipliers, where
    the strong second-order condition fails but nondegeneracy holds.
    """
    r2 = np.sqrt(2.0)
    data = {
        "x_dim": 3, "eq_dim": 0, "cone_blocks": [2, 1],
        "Q": [[1.0, 0.0, 0.0], [0.0, 2.0, -r2], [0.0, -r2, 1.0]],
        "c": [-1.0, 0.0, 0.0],
        "H": [],
        "p": [],
        "G": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
              [-1.0, -r2, -1.0]],
        "q": [0.0, 0.0, 0.0, -1.0],
    }
    problem = qsdp_problem(data, name="ex3")
    problem.f = lambda x: float(0.5 * (x[0] - 1.0) ** 2
                                + 0.5 * (x[2] - r2 * x[1]) ** 2)
    solution = KnownSolution(
        z_bar=KktPoint(np.array([1.0, 0.0, 0.0]), np.zeros(0),
                       BlockSymMatrix.zeros([2, 1])),
        delta_max=1.0,
        expected_conditions={"w_soc": True, "s_sosc": False,
                             "w_srcq": True, "cn": True},
    )
    return problem, solution


# shared data for the primal-dual pair below
_B4 = np.array([[1.5, -2.0], [-2.0, 3.0]])


def _b4_sqrt():
    lam, P = np.linalg.eigh(_B4)
    return (P * np.sqrt(lam)) @ P.T


def example4_primal(eps=0.0):
    """Least-squares primal with a diagonal-plus-rank-one cone constraint.

    minimize 0.5 ||x + b||^2 + t subject to
    Diag(B^{1/2} x) + t ones + I + Diag(-eps, eps) PSD, t >= 0.
    For eps = 0 the solution and multipliers are known in closed form;
    for eps != 0 no reference solution is recorded.
    """
    if not np.isfinite(eps):
        raise ValueError("eps must be finite")
    B12 = _b4_sqrt()
    b = np.linalg.solve(B12, np.array([2.5, -1.0]))
    r2 = np.sqrt(2.0)
    data = {
        "x_dim": 3, "eq_dim": 0, "cone_blocks": [2, 1],
        "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        "c": [b[0], b[1], 1.0],
        "H": [],
        "p": [],
        "G": [[B12[0, 0], B12[0, 1], 1.0],
              [0.0, 0.0, r2],
              [B12[1, 0], B12[1, 1], 1.0],
              [0.0, 0.0, 1.0]],
        "q": [-(1.0 - eps), 0.0, -(1.0 + eps), 0.0],
    }
    problem = qsdp_problem(data, name="ex4_primal")
    problem.f = lambda x: float(0.5 * np.sum((x[:2] + b) ** 2) + x[2])
    if eps != 0.0:
        return problem, None
    x_bar = -b + B12[:, 0]
    Gamma = BlockSymMatrix([np.array([[-1.0, 0.0], [0.0, 0.0]]),
                            np.zeros((1, 1))])
    solution = KnownSolution(
        z_bar=KktPoint(np.array([x_bar[0], x_bar[1], 0.0]), np.zeros(0),
                       Gamma),
        delta_max=1.0,
        expected_conditions={"w_soc": True, "s_sosc": True,
                             "w_srcq": True, "cn": False},
    )
    return problem, solution


def example4_dual(eps=0.0):
    """Dual of example4_primal, a convex quadratic over S^2_+ with a trace cap.

    minimize 0.5 ||B^{1/2} diag(Y) - b||^2 + <I + Diag(-eps, eps), Y>
    subject to <ones, Y> <= 1, Y PSD (the negated dual objective, so the
    recorded optimum matches the primal optimum with opposite sign
    convention).  For eps = 0 the solution is Y = e1 e1' with zero
    multipliers.
    """
    if not np.isfinite(eps):
        raise ValueError("eps must be finite")
    B12 = _b4_sqrt()
    b = np.linalg.solve(B12, np.array([2.5, -1.0]))
    B12b = B12 @ b
    r2 = np.sqrt(2.0)
    data = {
        "x_dim": 3, "eq_dim": 0, "cone_blocks": [2, 1],
        "Q": [[_B4[0, 0], 0.0, _B4[0, 1]],
              [0.0, 0.0, 0.0],
              [_B4[1, 0], 0.0, _B4[1, 1]]],
        "c": [-B12b[0] + 1.0 - eps, 0.0, -B12b[1] + 1.0 + eps],
        "H": [],
        "p": [],
        "G": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
              [-1.0, -r2, -1.0]],
        "q": [0.0, 0.0, 0.0, -1.0],
    }
    problem = qsdp_problem(data, name="ex4_dual")

    def f_true(x):
        resid = B12 @ np.array([x[0], x[2]]) - b
        return float(0.5 * resid @ resid
                     + (1.0 - eps) * x[0] + (1.0 + eps) * x[2])

    problem.f = f_true
    if eps != 0.0:
        return problem, None
    solution = KnownSolution(
        z_bar=KktPoint(np.array([1.0, 0.0, 0.0]), np.zeros(0),
                       BlockSymMatrix.zeros([2, 1])),
        delta_max=1.0,
        expected_conditions={"w_soc": True, "s_sosc": False,
                             "w_srcq": True, "cn": True},
    )
    return problem, solution


def example5(l1=60, l2=40):
    """Nearest-matrix problem whose objective ignores one diagonal block.

    minimize 0.5 ||X_11 - I||^2 + 0.5 ||X_12||^2 + 0.5 ||X_21||^2 over
    X PSD.  Solution X = blkdiag(I, 0) with zero multiplier; the strong
    second-order condition fails (the objective has a flat block) while
    nondegeneracy holds.
    """
    n = l1 + l2
    N = svec_len(n)
    in11, in12, in22 = _block_coord_masks(l1, l2)
    mask = (in11 | in12).astype(float)
    target = np.zeros(N)
    X_bar = np.zeros((n, n))
    X_bar[:l1, :l1] = np.eye(l1)
    target[:] = svec(X_bar)

    problem = NlsdpProblem(
        name="ex5",
        x_dim=N,
        eq_dim=0,
        cone_blocks=[n],
        f=lambda x: float(0.5 * np.sum(mask * (x - target) ** 2)),
        grad_f=lambda x: mask * (x - target),
        h=lambda x: np.zeros(0),
        jac_h=lambda x, v: np.zeros(0),
        jac_h_adj=lambda x, w: np.zeros(N),
        g=lambda x: BlockSymMatrix([smat(x)]),
        jac_g=lambda x, v: BlockSymMatrix([smat(v)]),
        jac_g_adj=lambda x, W: W.svec(),
        hess_lagrangian=lambda x, xi, Gamma, v: mask * v,
        convex=True,
        jac_h_matrix=sp.csr_matrix((0, N)),
        jac_g_matrix=sp.identity(N, format="csr"),
        hess_matrix_fn=lambda x, xi, Gamma: sp.diags(mask).tocsr(),
    )
    solution = KnownSolution(
        z_bar=KktPoint(target.copy(), np.zeros(0), BlockSymMatrix.zeros([n])),
        delta_max=1.0,
        expected_conditions={"w_soc": True, "s_sosc": False,
                             "w_srcq": True, "cn": True},
    )
    return problem, solution


def example7():
    """Projection onto a polyhedron written with scalar cone blocks.

    minimize 0.5 ||x - (0,1,0)||^2 subject to x1 + x2 = 1, x1 + x3 = 0,
    x >= 0 componentwise (three order-1 cone blocks).  The multiplier set
    is a ray, so nondegeneracy fails, yet the strict-Robinson and strong
    second-order conditions hold.
    """
    data = {
        "x_dim": 3, "eq_dim": 2, "cone_blocks": [1, 1, 1],
        "Q": np.eye(3).tolist(),
        "c": [0.0, -1.0, 0.0],
        "H": [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
        "p": [1.0, 0.0],
        "G": np.eye(3).tolist(),
        "q": [0.0, 0.0, 0.0],
    }
    problem = qsdp_problem(data, name="ex7")
    problem.f = lambda x: float(0.5 * ((x[0]) ** 2 + (x[1] - 1.0) ** 2
                                       + (x[2]) ** 2))
    solution = KnownSolution(
        z_bar=KktPoint(np.array([0.0, 1.0, 0.0]), np.zeros(2),
                       BlockSymMatrix.zeros([1, 1, 1])),
        delta_max=1.0,
        expected_conditions={"w_soc": True, "s_sosc": True,
                             "w_srcq": True, "cn": False},
    )
    return problem, solution


def example7_start(eps):
    """Degenerate warm start for example7 with tunable activity error.

    Requires 0 < eps < 0.1.  The cone argument at this point has
    eigenvalues (-eps, 1+eps, -eps): the two near-active entries sit on
    the wrong side of zero, which makes every classical Newton matrix
    singular until the correction snaps them back.
    """
    if not 0.0 < eps < 0.1:
        raise ValueError("eps must lie in (0, 0.1)")
    return KktPoint(
        np.array([-eps, 1.0 + eps, 0.0]),
        np.array([0.0, eps]),
        BlockSymMatrix([np.zeros((1, 1)), np.zeros((1, 1)),
                        np.array([[-eps]])]),
    )


_BUILDERS = {
    "ex1": example1,
    "ex2": example2,
    "ex3": example3,
    "ex4_primal": example4_primal,
    "ex4_dual": example4_dual,
    "ex5": example5,
    "ex7": example7,
}


def catalog_names():
    return sorted(_BUILDERS)


def catalog(name, **params):
    """Build a named example; returns (problem, solution-or-None).

    ex1/ex5 accept l1, l2 block sizes; ex4_primal/ex4_dual accept eps.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}; "
                         f"choose from {catalog_names()}") from None
    return builder(**params)

"""KKT residual map and its Newton operators.

The stationarity system is

    F(x, xi, Gamma) = [ grad f + h'(x)* xi + g'(x)* Gamma ;
                        h(x) ;
                        -g(x) + proj(g(x) + Gamma) ]

with proj the blockwise PSD projection.  F vanishes exactly at KKT points
(with the cone multiplier stored so that g + Gamma has the multiplier's
negative part).  The projection is nonsmooth; Newton matrices replace its
derivative with one of two surrogates ("U0" zeroes the undecided
eigenvalue block, "UI" keeps it), giving

    U = [ W   J'   G' ]
        [ J   0    0  ]
        [(V-I)G  0  V ]

in svec coordinates, where V is the surrogate applied after rotating into
the eigenbasis of g + Gamma.
"""

import warnings

import numpy as np
import scipy.linalg

from .linalg_sym import (eig_sym, project_psd, svec, svec_rotation, v_mask,
                         _triu)
from .problem import (
    hess_matrix_of,
    jac_g_matrix_of,
    jac_h_matrix_of,
    to_dense,
)
from .catalog import example2


def cone_decompositions(problem, z):
    """Spectral decompositions of g(x) + Gamma, one per block."""
    gx = problem.g(z.x)
    return [eig_sym(Gb + Cb) for Gb, Cb in zip(gx.blocks, z.Gamma.blocks)]


def kkt_residual(problem, z, _decomps=None):
    """F at a primal-dual point, as one vector of length
    problem.total_dim laid out like KktPoint.to_vector: the stationarity
    row, then h(x), then svec(-g_b(x) + proj(g_b(x) + Gamma_b)) for each
    cone block b in order."""
    if _decomps is None:
        _decomps = cone_decompositions(problem, z)
    gx = problem.g(z.x)
    stat = problem.grad_f(z.x) + problem.jac_g_adj(z.x, z.Gamma)
    if problem.eq_dim:
        stat = stat + problem.jac_h_adj(z.x, z.xi)
    feas = problem.h(z.x) if problem.eq_dim else np.zeros(0)
    cone = [svec(-Gb + project_psd(dec))
            for Gb, dec in zip(gx.blocks, _decomps)]
    return np.concatenate([stat, feas, *cone])


def _svec_diag(D):
    """svec-coordinate diagonal of a Hadamard mask matrix."""
    iu, ju = _triu(D.shape[0])[:2]
    return D[iu, ju]


def assemble_U(problem, z, variant, _decomps=None):
    """Dense Newton matrix at z for the given surrogate variant, as a
    fresh N x N array (N = problem.total_dim).

    Memory is quadratic in x_dim + eq_dim + cone svec length.  The solver
    never assembles U: its backends work on the structured form at every
    size.  The assembled matrix is the oracle the tests compare them
    against.  variant is "U0", "UI" or a number t in [0, 1], the element
    t UI + (1 - t) U0 (linalg_sym.variant_t).
    """
    decomps = (_decomps if _decomps is not None
               else cone_decompositions(problem, z))
    W = to_dense(hess_matrix_of(problem, z.x, z.xi, z.Gamma))
    J = to_dense(jac_h_matrix_of(problem, z.x))
    G = to_dense(jac_g_matrix_of(problem, z.x))
    Vblocks = []
    for dec in decomps:
        S = svec_rotation(dec.P)
        d = _svec_diag(v_mask(dec, variant))
        Vblocks.append(S.T @ (d[:, None] * S))
    V = scipy.linalg.block_diag(*Vblocks)
    nx, ne, nc = problem.x_dim, problem.eq_dim, problem.cone_dim
    N = nx + ne + nc
    U = np.zeros((N, N))
    U[:nx, :nx] = W
    U[:nx, nx:nx + ne] = J.T
    U[:nx, nx + ne:] = G.T
    U[nx:nx + ne, :nx] = J
    U[nx + ne:, :nx] = (V - np.eye(nc)) @ G
    U[nx + ne:, nx + ne:] = V
    return U


def fd_jacobian(problem, z, step=1e-5):
    """Central-difference Jacobian of the residual map at z, as an
    N x N array.

    Valid only where F is differentiable: every eigenvalue of each cone
    argument must clear the step size by a safe factor, otherwise the
    difference quotient straddles the projection's kink and a warning is
    issued.
    """
    margin = np.inf
    for dec in cone_decompositions(problem, z):
        if dec.lam.size:
            margin = min(margin, float(np.min(np.abs(dec.lam))))
    if margin <= 10.0 * step:
        warnings.warn(
            f"finite differences straddle the projection kink "
            f"(eigenvalue margin {margin:.2e} <= 10 * step)",
            stacklevel=2)
    N = problem.total_dim
    M = np.zeros((N, N))
    for i in range(N):
        e = np.zeros(N)
        e[i] = step
        zp = z.add_vector(e)
        zm = z.add_vector(-e)
        M[:, i] = (kkt_residual(problem, zp)
                   - kkt_residual(problem, zm)) / (2.0 * step)
    return M


def min_singular_value(M):
    """Smallest singular value of an assembled matrix, by a full SVD."""
    return float(scipy.linalg.svdvals(M)[-1])


def clarke_combination(U0, UI, t):
    """Convex combination t * U0 + (1 - t) * UI of two assembled matrices.

    t = 1 returns the first operand, t = 0 the second; t in [0, 1].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if U0.shape != UI.shape:
        raise ValueError("operands have different shapes")
    return t * U0 + (1.0 - t) * UI


def example2_family(omega):
    """Generalized-derivative family member for example2 at its solution.

    omega is the 2 x 2 Hadamard mask of the projection surrogate in the
    (identity) eigenbasis.  Admissible masks: the all-zeros and all-ones
    corners, and the two edges [[0, t], [t, 1]] / [[1, t], [t, 0]] for
    t in [0, 1].  omega = 0 reproduces the "U0" matrix, omega = ones
    the "UI" matrix; the member is returned as a 6 x 6 array.
    """
    omega = np.asarray(omega, dtype=float)
    tol = 1e-12
    if omega.shape != (2, 2) or abs(omega[0, 1] - omega[1, 0]) > tol:
        raise ValueError("omega must be a symmetric 2 x 2 mask")
    d11, d22 = omega[0, 0], omega[1, 1]
    t = omega[0, 1]
    if not -tol <= t <= 1.0 + tol:
        raise ValueError("off-diagonal mask entry must lie in [0, 1]")
    near = lambda a, b: abs(a - b) <= tol
    if near(d11, 0.0) and near(d22, 0.0):
        if not near(t, 0.0):
            raise ValueError("zero-diagonal mask must be the zero corner")
    elif near(d11, 1.0) and near(d22, 1.0):
        if not near(t, 1.0):
            raise ValueError("ones-diagonal mask must be the all-ones corner")
    elif not ((near(d11, 0.0) and near(d22, 1.0))
              or (near(d11, 1.0) and near(d22, 0.0))):
        raise ValueError("mask diagonal must be (0,0), (1,1), (0,1) or (1,0)")

    problem, solution = example2()
    z = solution.z_bar
    U = assemble_U(problem, z, "U0")
    nx, ne = problem.x_dim, problem.eq_dim
    V = np.diag(_svec_diag(omega))
    U[nx + ne:, :nx] = V - np.eye(3)
    U[nx + ne:, nx + ne:] = V
    return U

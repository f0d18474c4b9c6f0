"""Problem abstraction for cone-constrained nonlinear programs.

A problem bundles evaluators for

    minimize f(x)  subject to  h(x) = 0,  g(x) in S_+^{n_1} x ... x S_+^{n_k}

with x a plain vector; g maps into a tuple of symmetric blocks.  Matrix
quantities cross the interface as BlockSymMatrix values; the svec
convention from linalg_sym makes block inner products plain dot products.

Derivative evaluators are callables (Jacobian actions and adjoints plus a
Lagrangian Hessian action).  Problems whose derivatives are constant may
also carry explicit matrices, which the solver and the condition checkers
use to avoid column-by-column reconstruction; dense and scipy.sparse
matrices are both accepted there, and read alike, by their pattern.
"""

import json
import numbers

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass, field
from typing import Callable, Optional

from .linalg_sym import smat, svec, svec_len


class BlockSymMatrix:
    """Tuple of symmetric matrices with vector-space operations.

    Used for cone values, cone multipliers, and residual blocks.
    """

    def __init__(self, blocks):
        self.blocks = [np.asarray(b, dtype=float) for b in blocks]

    @property
    def orders(self):
        return [b.shape[0] for b in self.blocks]

    @classmethod
    def zeros(cls, orders):
        return cls([np.zeros((n, n)) for n in orders])

    @classmethod
    def from_svec(cls, orders, v):
        v = np.asarray(v, dtype=float)
        if v.ndim != 1:
            raise ValueError("svec vector must be one-dimensional")
        out = []
        at = 0
        for n in orders:
            k = svec_len(n)
            out.append(smat(v[at:at + k]))
            at += k
        if at != v.size:
            raise ValueError("svec vector length does not match block orders")
        return cls(out)

    def svec(self):
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate([svec(b) for b in self.blocks])

    def copy(self):
        return BlockSymMatrix([b.copy() for b in self.blocks])

    def norm(self):
        return float(np.sqrt(sum(np.sum(b * b) for b in self.blocks)))

    def inner(self, other):
        return float(sum(np.sum(a * b)
                         for a, b in zip(self.blocks, other.blocks)))

    def __add__(self, other):
        return BlockSymMatrix([a + b
                               for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return BlockSymMatrix([a - b
                               for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, s):
        return BlockSymMatrix([s * b for b in self.blocks])

    __rmul__ = __mul__

    def __repr__(self):
        return f"BlockSymMatrix(orders={self.orders})"


@dataclass
class NlsdpProblem:
    """Evaluator bundle; see the module docstring for the template.

    Conventions: jac_h(x, v) applies the equality Jacobian to a primal
    direction, jac_h_adj(x, w) its transpose to a multiplier vector;
    jac_g / jac_g_adj likewise for the cone map, with BlockSymMatrix on
    the matrix side.  hess_lagrangian(x, xi, Gamma, v) applies the
    x-Hessian of f + <xi, h> + <Gamma, g>.

    jac_h_matrix / jac_g_matrix, when present, are the constant Jacobians
    (cone rows svec-stacked, blocks in order).  hess_matrix_fn, when
    present, returns the Hessian as a matrix at a given multiplier point.
    qsdp_data holds the serializable description for problems expressible
    in the quadratic-objective affine-constraint JSON schema.
    """

    name: str
    x_dim: int
    eq_dim: int
    cone_blocks: list
    f: Callable
    grad_f: Callable
    h: Callable
    jac_h: Callable
    jac_h_adj: Callable
    g: Callable
    jac_g: Callable
    jac_g_adj: Callable
    hess_lagrangian: Callable
    jac_h_matrix: Optional[object] = None
    jac_g_matrix: Optional[object] = None
    hess_matrix_fn: Optional[Callable] = None
    qsdp_data: Optional[dict] = field(default=None, repr=False)

    @property
    def cone_dim(self):
        return sum(svec_len(n) for n in self.cone_blocks)

    @property
    def total_dim(self):
        return self.x_dim + self.eq_dim + self.cone_dim


@dataclass
class KktPoint:
    """Primal-dual point (x, xi, Gamma); Gamma collects the cone multipliers."""

    x: np.ndarray
    xi: np.ndarray
    Gamma: BlockSymMatrix

    def to_vector(self):
        return np.concatenate([self.x, self.xi, self.Gamma.svec()])

    def copy(self):
        return KktPoint(self.x.copy(), self.xi.copy(), self.Gamma.copy())

    def norm(self):
        return float(np.linalg.norm(self.to_vector()))

    def add_vector(self, d):
        """Point shifted by a stacked direction (x, xi, svec blocks)."""
        d = np.asarray(d, dtype=float)
        nx = self.x.size
        ne = self.xi.size
        dG = BlockSymMatrix.from_svec(self.Gamma.orders, d[nx + ne:])
        return KktPoint(self.x + d[:nx], self.xi + d[nx:nx + ne],
                        self.Gamma + dG)

    def distance_to(self, other):
        return float(np.linalg.norm(self.to_vector() - other.to_vector()))


@dataclass
class KnownSolution:
    """Reference KKT point with certification metadata.

    delta_max is the largest correction radius that cannot clip a genuinely
    active eigenvalue at the solution (infinite when the cone argument has
    no nonzero spectrum).  expected_conditions maps condition names
    ("w_soc", "s_sosc", "w_srcq", "cn") to the flags the checkers must
    reproduce.
    """

    z_bar: KktPoint
    delta_max: float
    expected_conditions: dict


def _validate_point(problem, z, what):
    """Raise ValueError, naming the field, unless z fits problem: x, xi and
    the Gamma blocks of the problem's dimensions, every entry finite, and
    each Gamma block symmetric to 1e-12 max(1, max|B|).  what opens the
    message ("start point", "point FILE")."""
    blocks = z.Gamma.blocks
    for field, got, want in (
            ("x", np.shape(z.x), (problem.x_dim,)),
            ("xi", np.shape(z.xi), (problem.eq_dim,)),
            ("Gamma", [b.shape for b in blocks],
             [(n, n) for n in problem.cone_blocks])):
        if got != want:
            raise ValueError(f"{what}: {field} has dimensions {got}, "
                             f"{problem.name} needs {want}")
    for field, parts in (("x", [z.x]), ("xi", [z.xi]), ("Gamma", blocks)):
        if not all(np.all(np.isfinite(a)) for a in parts):
            raise ValueError(f"{what} has a non-finite entry in {field}")
    for i, B in enumerate(blocks):
        if np.max(np.abs(B - B.T)) > 1e-12 * max(1.0, np.max(np.abs(B))):
            raise ValueError(f"{what}: Gamma block {i} is not symmetric")


def _by_columns(rows, cols, apply):
    """The rows x cols matrix whose column i is apply(e_i)."""
    M = np.zeros((rows, cols))
    e = np.zeros(cols)
    for i in range(cols):
        e[i] = 1.0
        M[:, i] = apply(e)
        e[i] = 0.0
    return M


def jac_h_matrix_of(problem, x):
    """Equality Jacobian as a matrix, assembled by columns when needed;
    with no equality constraints, an empty CSR matrix of x_dim columns."""
    if not problem.eq_dim:
        return sp.csr_matrix((0, problem.x_dim))
    if problem.jac_h_matrix is not None:
        return problem.jac_h_matrix
    return _by_columns(problem.eq_dim, problem.x_dim,
                       lambda e: problem.jac_h(x, e))


def jac_g_matrix_of(problem, x):
    """Cone Jacobian as an svec-stacked matrix."""
    if problem.jac_g_matrix is not None:
        return problem.jac_g_matrix
    return _by_columns(problem.cone_dim, problem.x_dim,
                       lambda e: problem.jac_g(x, e).svec())


def hess_matrix_of(problem, x, xi, Gamma):
    """Lagrangian Hessian as a matrix at the given multiplier point."""
    if problem.hess_matrix_fn is not None:
        return problem.hess_matrix_fn(x, xi, Gamma)
    return _by_columns(problem.x_dim, problem.x_dim,
                       lambda e: problem.hess_lagrangian(x, xi, Gamma, e))


def to_dense(M):
    """Materialize a possibly-sparse matrix as an ndarray."""
    if sp.issparse(M):
        return M.toarray()
    return np.asarray(M, dtype=float)


def fd_check_derivatives(problem, point, step=1e-6, seed=0, tol=1e-5):
    """Finite-difference and adjoint consistency audit of the evaluators.

    Central differences along 3 random directions per evaluator; adjoint
    identities are checked algebraically.  Returns a dict of relative
    errors plus an "ok" flag (every error <= tol).
    """
    rng = np.random.default_rng(seed)
    x, xi, Gamma = point.x, point.xi, point.Gamma
    errs = {}

    def rel(a, b, scale):
        return float(np.max(np.abs(a - b)) / (1.0 + scale))

    e_grad = e_jh = e_jg = e_hess = e_adj_h = e_adj_g = 0.0
    for _ in range(3):
        v = rng.standard_normal(problem.x_dim)
        v /= np.linalg.norm(v)

        fd = (problem.f(x + step * v) - problem.f(x - step * v)) / (2 * step)
        e_grad = max(e_grad, rel(fd, float(problem.grad_f(x) @ v),
                                 abs(fd)))

        if problem.eq_dim:
            fd_h = (problem.h(x + step * v) - problem.h(x - step * v)) / (2 * step)
            jh = problem.jac_h(x, v)
            e_jh = max(e_jh, rel(fd_h, jh, float(np.linalg.norm(fd_h))))
            w = rng.standard_normal(problem.eq_dim)
            lhs = float(jh @ w)
            rhs = float(problem.jac_h_adj(x, w) @ v)
            e_adj_h = max(e_adj_h, abs(lhs - rhs) / (1.0 + abs(lhs)))

        fd_g = (problem.g(x + step * v).svec()
                - problem.g(x - step * v).svec()) / (2 * step)
        jg = problem.jac_g(x, v)
        e_jg = max(e_jg, rel(fd_g, jg.svec(), float(np.linalg.norm(fd_g))))
        W = BlockSymMatrix([_random_sym(rng, n) for n in problem.cone_blocks])
        lhs = jg.inner(W)
        rhs = float(problem.jac_g_adj(x, W) @ v)
        e_adj_g = max(e_adj_g, abs(lhs - rhs) / (1.0 + abs(lhs)))

        def grad_lag(y):
            out = problem.grad_f(y) + problem.jac_g_adj(y, Gamma)
            if problem.eq_dim:
                out = out + problem.jac_h_adj(y, xi)
            return out

        fd_H = (grad_lag(x + step * v) - grad_lag(x - step * v)) / (2 * step)
        Hv = problem.hess_lagrangian(x, xi, Gamma, v)
        e_hess = max(e_hess, rel(fd_H, Hv, float(np.linalg.norm(fd_H))))

    errs["grad_f"] = e_grad
    errs["jac_h"] = e_jh
    errs["jac_g"] = e_jg
    errs["hess_lagrangian"] = e_hess
    errs["adjoint_h"] = e_adj_h
    errs["adjoint_g"] = e_adj_g
    errs["ok"] = all(v <= tol for k, v in errs.items() if k != "ok")
    return errs


def _random_sym(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def perturbed_start(z_bar, magnitude, seed):
    """Reference point plus a random direction of given size per group.

    Draw order with numpy's default_rng(seed): the x direction, then the
    equality-multiplier direction, then one full square Gaussian matrix
    per cone block (symmetrized).  Each nonempty group is normalized to
    unit length before scaling, so the start sits at distance
    magnitude * sqrt(#nonempty groups) from the reference.
    """
    rng = np.random.default_rng(seed)
    dx = rng.standard_normal(z_bar.x.size)
    dxi = rng.standard_normal(z_bar.xi.size)
    dG = [_random_sym(rng, n) for n in z_bar.Gamma.orders]

    def unit(v):
        nrm = np.linalg.norm(v)
        return v / nrm if v.size and nrm > 0 else v

    dx = unit(dx)
    dxi = unit(dxi)
    gnorm = np.sqrt(sum(np.sum(b * b) for b in dG))
    if dG and gnorm > 0:
        dG = [b / gnorm for b in dG]
    return KktPoint(
        z_bar.x + magnitude * dx,
        z_bar.xi + magnitude * dxi,
        BlockSymMatrix([G + magnitude * D
                        for G, D in zip(z_bar.Gamma.blocks, dG)]),
    )


# ---------------------------------------------------------------------------
# Quadratic problems over affine cone constraints, as JSON files.
#
# Schema: {"x_dim", "eq_dim", "cone_blocks", "Q", "c", "H", "p", "G", "q"}
# encoding  f = 0.5 x'Qx + c'x,  h = Hx - p,  g = smat(Gx - q)  blockwise,
# with G rows svec-stacked over the blocks in order.
# ---------------------------------------------------------------------------

_QSDP_KEYS = ("x_dim", "eq_dim", "cone_blocks", "Q", "c", "H", "p", "G", "q")


def _qsdp_int(key, n, least=1):
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"qsdp {key}: expected an integer, got {n!r}")
    if n < least:
        raise ValueError(f"qsdp {key}: must be "
                         f"{'positive' if least else 'nonnegative'}, got {n}")
    return int(n)


def _qsdp_array(data, key, shape=None):
    """data[key] as a float array, reshaped when a shape is given; an
    entry or a shape that does not convert names the key."""
    try:
        a = np.array(data[key], dtype=float)
        return a if shape is None else a.reshape(shape)
    except (TypeError, ValueError) as e:
        raise ValueError(f"qsdp {key}: {e}") from e


def _validate_qsdp(data):
    if not isinstance(data, dict):
        raise ValueError("qsdp data: expected an object, "
                         f"got {type(data).__name__}")
    missing = [k for k in _QSDP_KEYS if k not in data]
    if missing:
        raise ValueError(f"qsdp data missing keys: {missing}")
    x_dim = _qsdp_int("x_dim", data["x_dim"])
    eq_dim = _qsdp_int("eq_dim", data["eq_dim"], least=0)
    orders = data["cone_blocks"]
    if not isinstance(orders, list) or not orders:
        raise ValueError("qsdp cone_blocks: expected a list of positive "
                         f"orders, got {orders!r:.40}")
    blocks = [_qsdp_int("cone_blocks", n) for n in orders]
    Q = _qsdp_array(data, "Q")
    c = _qsdp_array(data, "c")
    H = _qsdp_array(data, "H", (eq_dim, x_dim))
    p = _qsdp_array(data, "p", eq_dim)
    cone_dim = sum(svec_len(n) for n in blocks)
    G = _qsdp_array(data, "G", (cone_dim, x_dim))
    q = _qsdp_array(data, "q", cone_dim)
    if Q.shape != (x_dim, x_dim):
        raise ValueError(f"qsdp Q: must be {x_dim} x {x_dim}, got {Q.shape}")
    if c.shape != (x_dim,):
        raise ValueError(f"qsdp c: must have length {x_dim}")
    for key, a in zip(("Q", "c", "H", "p", "G", "q"), (Q, c, H, p, G, q)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"qsdp {key} has a non-finite entry")
    skew = np.max(np.abs(Q - Q.T)) if Q.size else 0.0
    if skew > 1e-12 * (1.0 + np.max(np.abs(Q), initial=0.0)):
        raise ValueError("qsdp Q: must be symmetric")
    return x_dim, eq_dim, blocks, Q, c, H, p, G, q


def qsdp_problem(data, name="qsdp"):
    """Build an NlsdpProblem from validated qsdp schema data."""
    x_dim, eq_dim, blocks, Q, c, H, p, G, q = _validate_qsdp(data)
    Qs = 0.5 * (Q + Q.T)

    def g_fn(x):
        return BlockSymMatrix.from_svec(blocks, G @ x - q)

    return NlsdpProblem(
        name=name,
        x_dim=x_dim,
        eq_dim=eq_dim,
        cone_blocks=blocks,
        f=lambda x: float(0.5 * x @ (Qs @ x) + c @ x),
        grad_f=lambda x: Qs @ x + c,
        h=lambda x: H @ x - p,
        jac_h=lambda x, v: H @ v,
        jac_h_adj=lambda x, w: H.T @ w,
        g=g_fn,
        jac_g=lambda x, v: BlockSymMatrix.from_svec(blocks, G @ v),
        jac_g_adj=lambda x, W: G.T @ W.svec(),
        hess_lagrangian=lambda x, xi, Gamma, v: Qs @ v,
        jac_h_matrix=H,
        jac_g_matrix=G,
        hess_matrix_fn=lambda x, xi, Gamma: Qs,
        qsdp_data={k: data[k] for k in _QSDP_KEYS},
    )


def load_qsdp(path):
    """Read a quadratic cone problem from a JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    problem = qsdp_problem(data)
    problem.name = str(data.get("name", "qsdp"))
    return problem


def _json_default(v):
    """numpy arrays and scalars as lists and Python numbers, for json."""
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"Object of type {type(v).__name__} "
                    "is not JSON serializable")


def save_qsdp(path, data):
    """Write qsdp schema data to JSON; floats round-trip exactly.  The
    payload is serialized whole before the file is opened, so data that
    does not serialize leaves no file."""
    _validate_qsdp(data)
    payload = {k: data[k] for k in _QSDP_KEYS}
    if "name" in data:
        payload["name"] = data["name"]
    text = json.dumps(payload, sort_keys=True, indent=1,
                      default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")

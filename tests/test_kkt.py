"""Tests for the KKT residual map and its generalized derivatives."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ssnsdp.catalog import catalog
from ssnsdp.kkt import (
    assemble_U,
    clarke_combination,
    cone_decompositions,
    example2_family,
    fd_jacobian,
    kkt_residual,
    min_singular_value,
)
from ssnsdp.linalg_sym import eig_sym, smat, svec, svec_len
from ssnsdp.problem import BlockSymMatrix, KktPoint, NlsdpProblem, qsdp_problem
from ssnsdp.solver import _make_backend

SMALL = [
    ("ex1", {"l1": 4, "l2": 3}),
    ("ex2", {}),
    ("ex3", {}),
    ("ex4_primal", {}),
    ("ex4_dual", {}),
    ("ex5", {"l1": 4, "l2": 3}),
    ("ex7", {}),
]


def rand_point(problem, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    G = BlockSymMatrix(
        [scale * 0.5 * (M + M.T) for M in
         (rng.standard_normal((n, n)) for n in problem.cone_blocks)])
    return KktPoint(scale * rng.standard_normal(problem.x_dim),
                    scale * rng.standard_normal(problem.eq_dim), G)


def complementary_point(problem, seed, margin=1e-2):
    """Random point whose cone arguments keep all eigenvalues away from 0."""
    for s in range(seed, seed + 50):
        z = rand_point(problem, s)
        m = min((float(np.min(np.abs(d.lam))) if d.lam.size else np.inf)
                for d in cone_decompositions(problem, z))
        if m > margin:
            return z
    raise AssertionError("no strictly complementary sample found")


def smooth_cone_toy():
    """Tiny problem with a genuinely nonlinear cone map, solved at 0."""

    def g_fn(x):
        return BlockSymMatrix([np.array(
            [[1.0 + x[0], x[1]],
             [x[1], 1.0 + x[0] ** 2 + x[1] ** 2]])])

    def jac_g(x, v):
        return BlockSymMatrix([np.array(
            [[v[0], v[1]],
             [v[1], 2.0 * x[0] * v[0] + 2.0 * x[1] * v[1]]])])

    def jac_g_adj(x, W):
        B = W.blocks[0]
        return np.array([B[0, 0] + 2.0 * x[0] * B[1, 1],
                         2.0 * B[0, 1] + 2.0 * x[1] * B[1, 1]])

    return NlsdpProblem(
        name="toy",
        x_dim=2,
        eq_dim=0,
        cone_blocks=[2],
        f=lambda x: float(0.5 * x @ x),
        grad_f=lambda x: x.copy(),
        h=lambda x: np.zeros(0),
        jac_h=lambda x, v: np.zeros(0),
        jac_h_adj=lambda x, w: np.zeros(2),
        g=g_fn,
        jac_g=jac_g,
        jac_g_adj=jac_g_adj,
        hess_lagrangian=lambda x, xi, Gamma, v:
            v + 2.0 * Gamma.blocks[0][1, 1] * v,
    )


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_at_feasible_complementary_points():
    problem, _ = catalog("ex2")
    # X = I is feasible with zero multipliers: X_12 = 0 and X is interior
    z = KktPoint(np.array([1.0, 0.0, 1.0]), np.zeros(1),
                 BlockSymMatrix.zeros([2]))
    assert np.linalg.norm(kkt_residual(problem, z)) <= 1e-15


def test_residual_zero_on_flat_directions():
    # ex5's objective ignores the second diagonal block, so inflating it
    # keeps the KKT system satisfied as long as the matrix stays PSD
    problem, sol = catalog("ex5", l1=3, l2=2)
    X = np.eye(5)
    X[3, 3] = X[4, 4] = 0.25
    z = KktPoint(svec(X), np.zeros(0), BlockSymMatrix.zeros([5]))
    assert np.linalg.norm(kkt_residual(problem, z)) <= 1e-15


def test_residual_rows_have_expected_shapes():
    problem, sol = catalog("ex7")
    res = kkt_residual(problem, rand_point(problem, 3))
    assert res.shape == (problem.total_dim,)


@pytest.mark.parametrize("name,params", SMALL)
def test_residual_is_one_vector_in_point_layout(name, params):
    """F is a plain array laid out like KktPoint.to_vector: stationarity,
    h(x), then the svec of each cone block's -g + proj(g + Gamma)."""
    problem, sol = catalog(name, **params)
    z = rand_point(problem, 4)
    F = kkt_residual(problem, z)
    assert type(F) is np.ndarray
    assert F.shape == (problem.total_dim,)
    stat = problem.grad_f(z.x) + problem.jac_g_adj(z.x, z.Gamma)
    if problem.eq_dim:
        stat = stat + problem.jac_h_adj(z.x, z.xi)
    cone = []
    for Gb, Cb in zip(problem.g(z.x).blocks, z.Gamma.blocks):
        lam, P = np.linalg.eigh(Gb + Cb)
        cone.append(svec(-Gb + (P * np.maximum(lam, 0.0)) @ P.T))
    nx, ne = problem.x_dim, problem.eq_dim
    assert_allclose(F[:nx], stat, rtol=0, atol=1e-12)
    assert_allclose(F[nx:nx + ne], problem.h(z.x) if ne else np.zeros(0),
                    rtol=0, atol=1e-12)
    assert_allclose(F[nx + ne:], np.concatenate(cone), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,params", SMALL)
def test_residual_reads_the_shared_decompositions(name, params):
    """Without _decomps the residual decomposes through
    cone_decompositions, so both calls agree bitwise."""
    problem, sol = catalog(name, **params)
    for z in (sol.z_bar, rand_point(problem, 5)):
        own = kkt_residual(problem, z)
        given = kkt_residual(
            problem, z, _decomps=cone_decompositions(problem, z))
        assert np.array_equal(own, given)


def test_cone_decompositions_classify_as_eig_sym():
    """A one-block QSDP whose g(x) + Gamma is diag(1, 1, 1, 1, 2e-12):
    the solver's decompositions and a direct eig_sym call read the same
    beta, the near-zero eigenvalue."""
    A = np.diag([1.0] * 4 + [2e-12])
    problem = qsdp_problem({
        "x_dim": 1, "eq_dim": 0, "cone_blocks": [5], "Q": np.eye(1),
        "c": np.zeros(1), "H": np.zeros((0, 1)), "p": np.zeros(0),
        "G": np.zeros((svec_len(5), 1)), "q": -svec(A)})
    z = KktPoint(np.zeros(1), np.zeros(0), BlockSymMatrix([np.zeros((5, 5))]))
    (dec,) = cone_decompositions(problem, z)
    assert_allclose(problem.g(z.x).blocks[0], A)
    assert list(dec.beta) == list(eig_sym(A).beta) == [4]
    assert list(dec.alpha) == list(eig_sym(A).alpha) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# operator assembly and application


@pytest.mark.parametrize("name,params", SMALL)
def test_apply_matches_assembled_matrix(name, params):
    """The solver's matrix-free Newton map is the assembled matrix."""
    problem, _ = catalog(name, **params)
    rng = np.random.default_rng(11)
    for seed in range(2):
        z = rand_point(problem, 20 + seed)
        decomps = cone_decompositions(problem, z)
        for variant in ("U0", "UI"):
            U = assemble_U(problem, z, variant, _decomps=decomps)
            backend = _make_backend(problem, z, variant, decomps)
            for _ in range(3):
                d = rng.standard_normal(problem.total_dim)
                lhs = U @ d
                rhs = backend.matvec(d)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (
                    1.0 + np.max(np.abs(lhs)))


@pytest.mark.parametrize("name,params", SMALL)
def test_variants_agree_at_strict_complementarity(name, params):
    problem, _ = catalog(name, **params)
    z = complementary_point(problem, 30)
    U0 = assemble_U(problem, z, "U0")
    UI = assemble_U(problem, z, "UI")
    assert np.array_equal(U0, UI)


def test_assemble_rejects_unknown_variant():
    problem, sol = catalog("ex3")
    with pytest.raises(ValueError):
        assemble_U(problem, sol.z_bar, "U2")


# ---------------------------------------------------------------------------
# finite-difference cross-check


@pytest.mark.parametrize("name,params", SMALL)
def test_fd_jacobian_matches_operator(name, params):
    problem, _ = catalog(name, **params)
    z = complementary_point(problem, 40, margin=5e-2)
    U = assemble_U(problem, z, "U0")
    fd = fd_jacobian(problem, z, step=1e-5)
    tol = 1e-6 * (1.0 + np.max(np.abs(U)))
    assert np.max(np.abs(fd - U)) <= tol


def test_fd_jacobian_warns_at_kink():
    problem, sol = catalog("ex3")
    with pytest.warns(UserWarning, match="kink"):
        fd_jacobian(problem, sol.z_bar, step=1e-5)


# ---------------------------------------------------------------------------
# semismoothness of the residual map


@pytest.mark.parametrize("name,params", SMALL)
def test_residual_is_strongly_semismooth_at_solution(name, params):
    """|F(z+td) - F(z) - t U(z+td) d| must shrink like t^2 (or vanish)."""
    problem, sol = catalog(name, **params)
    z = sol.z_bar
    rng = np.random.default_rng(50)
    ts = np.logspace(-1, -6, 6)
    for _ in range(5):
        d = rng.standard_normal(problem.total_dim)
        d /= np.linalg.norm(d)
        rs = []
        for t in ts:
            zt = z.add_vector(t * d)
            r = (kkt_residual(problem, zt)
                 - t * (assemble_U(problem, zt, "U0") @ d))
            rs.append(np.linalg.norm(r))
        rs = np.asarray(rs)
        keep = rs > 1e-13
        if np.count_nonzero(keep) < 3:
            continue  # residual vanishes to rounding: stronger than t^2
        slope = np.polyfit(np.log(ts[keep]), np.log(rs[keep]), 1)[0]
        assert slope >= 1.9, (name, slope, rs)


def test_semismooth_slope_on_nonlinear_cone_map():
    problem = smooth_cone_toy()
    z = KktPoint(np.zeros(2), np.zeros(0), BlockSymMatrix.zeros([2]))
    assert np.linalg.norm(kkt_residual(problem, z)) <= 1e-15
    rng = np.random.default_rng(51)
    ts = np.logspace(-1, -5, 5)
    for _ in range(5):
        d = rng.standard_normal(problem.total_dim)
        d /= np.linalg.norm(d)
        rs = []
        for t in ts:
            zt = z.add_vector(t * d)
            r = (kkt_residual(problem, zt)
                 - t * (assemble_U(problem, zt, "U0") @ d))
            rs.append(np.linalg.norm(r))
        rs = np.asarray(rs)
        keep = rs > 1e-14
        assert np.count_nonzero(keep) >= 3
        slope = np.polyfit(np.log(ts[keep]), np.log(rs[keep]), 1)[0]
        assert slope >= 1.9, (slope, rs)


# ---------------------------------------------------------------------------
# singular values and the Clarke family


def test_min_singular_value_basics():
    assert_allclose(min_singular_value(np.eye(4)), 1.0)
    M = np.eye(4)
    M[:, 2] = 0.0
    assert_allclose(min_singular_value(M), 0.0, atol=1e-15)


def test_min_singular_value_golden_ratio():
    """ex5's zero-variant operator has smallest singular value
    (sqrt(5) - 1) / 2 independent of the block sizes."""
    want = (np.sqrt(5.0) - 1.0) / 2.0
    for l1, l2 in ((3, 2), (6, 4)):
        problem, sol = catalog("ex5", l1=l1, l2=l2)
        sigma = min_singular_value(assemble_U(problem, sol.z_bar, "U0"))
        assert_allclose(sigma, want, atol=1e-9)


def test_clarke_combination_endpoints_and_interior():
    A = np.eye(3)
    B = 3.0 * np.eye(3)
    assert_allclose(clarke_combination(A, B, 0.0), A)
    assert_allclose(clarke_combination(A, B, 1.0), B)
    assert_allclose(clarke_combination(A, B, 0.25), 1.5 * np.eye(3))


def test_clarke_combination_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        clarke_combination(A, A, 1.5)
    with pytest.raises(ValueError):
        clarke_combination(A, A, -0.1)
    with pytest.raises(ValueError):
        clarke_combination(A, np.eye(4), 0.5)


def test_clarke_midpoint_of_assembled_operators():
    problem, sol = catalog("ex2")
    U0 = assemble_U(problem, sol.z_bar, "U0")
    UI = assemble_U(problem, sol.z_bar, "UI")
    mid = clarke_combination(U0, UI, 0.5)
    assert_allclose(mid, 0.5 * (U0 + UI))


def test_dense_oracle_returns_arrays():
    problem, sol = catalog("ex2")
    N = problem.total_dim
    z = complementary_point(problem, 40, margin=5e-2)
    U0 = assemble_U(problem, z, "U0")
    UI = assemble_U(problem, z, "UI")
    for M in (U0, fd_jacobian(problem, z), clarke_combination(U0, UI, 0.5),
              example2_family(np.ones((2, 2)))):
        assert type(M) is np.ndarray and M.shape == (N, N)


# ---------------------------------------------------------------------------
# the example2 derivative family


def test_example2_family_corners_match_variants():
    problem, sol = catalog("ex2")
    U0 = assemble_U(problem, sol.z_bar, "U0")
    UI = assemble_U(problem, sol.z_bar, "UI")
    assert np.array_equal(example2_family(np.zeros((2, 2))), U0)
    assert_allclose(example2_family(np.ones((2, 2))), UI,
                    atol=1e-14)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_example2_family_edges_are_singular(t):
    for diag in ((0.0, 1.0), (1.0, 0.0)):
        omega = np.array([[diag[0], t], [t, diag[1]]])
        assert min_singular_value(example2_family(omega)) <= 1e-10


@pytest.mark.parametrize("omega", [
    np.zeros((2, 3)),
    np.array([[0.0, 0.4], [0.6, 1.0]]),        # asymmetric
    np.array([[0.0, 1.5], [1.5, 1.0]]),        # t out of range
    np.array([[0.5, 0.5], [0.5, 0.5]]),        # diagonal not 0/1
    np.array([[0.0, 0.5], [0.5, 0.0]]),        # zero corner needs t = 0
    np.array([[1.0, 0.3], [0.3, 1.0]]),        # ones corner needs t = 1
])
def test_example2_family_rejects_bad_masks(omega):
    with pytest.raises(ValueError):
        example2_family(omega)

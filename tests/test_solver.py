"""Solver tests: correction step, Newton systems, statuses, backends."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

import ssnsdp._reduced as reduced_mod
import ssnsdp.solver as solver_mod
from ssnsdp._reduced import (
    _LANCZOS_BASIS,
    ReducedNewtonOperator,
    WoodburyNewtonOperator,
    _BlockData,
    _lanczos_sigma_min,
    _woodbury_core,
    reuse_compatible,
    separable_diagonal,
)
from ssnsdp.catalog import catalog, example7_start
from ssnsdp.kkt import (
    assemble_U,
    cone_decompositions,
    kkt_residual,
    min_singular_value,
)
from ssnsdp.linalg_sym import eig_sym, svec, svec_len, svec_rotation, v_mask
from ssnsdp.problem import (
    BlockSymMatrix,
    KktPoint,
    NlsdpProblem,
    perturbed_start,
)
from ssnsdp.solver import (
    IterationTrace,
    SingularSystemError,
    SolverParams,
    classical_ssn_solve,
    correct,
    fitted_order,
    newton_step,
    ssn_solve,
)


def spectrum_point(problem, lam, seed=0):
    """Point with Gamma = 0 whose cone argument has the given spectrum."""
    rng = np.random.default_rng(seed)
    n = len(lam)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (Q * np.asarray(lam, dtype=float)) @ Q.T
    return KktPoint(svec(A), np.zeros(problem.eq_dim),
                    BlockSymMatrix.zeros(problem.cone_blocks))


# ---------------------------------------------------------------------------
# parameters


@pytest.mark.parametrize("kwargs", [
    {"variant": "V0"},
    {"delta": 0.0},
    {"delta": -1.0},
    {"tol": 0.0},
    {"max_iter": -1},
    {"eta": -0.1},
    {"tau": 0.0},
    {"tau": 1.5},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SolverParams(**kwargs)


def test_params_inexact_property():
    assert not SolverParams().inexact
    assert not SolverParams(eta=0.5).inexact  # exact_solve still True
    assert not SolverParams(exact_solve=False).inexact  # eta is 0
    assert SolverParams(eta=0.5, exact_solve=False).inexact


# ---------------------------------------------------------------------------
# correction step


def test_correct_clips_band_eigenvalues():
    problem, _ = catalog("ex5", l1=2, l2=1)
    z = spectrum_point(problem, [3.0, 0.1, -2.0], seed=1)
    out = correct(z, problem, 0.5)
    assert np.array_equal(out.x, z.x)
    A = problem.g(out.x).blocks[0] + out.Gamma.blocks[0]
    assert_allclose(np.sort(np.linalg.eigvalsh(A)), [-2.0, 0.0, 3.0],
                    atol=1e-12)
    # the multiplier absorbed exactly the clipped rank-one piece
    assert_allclose((out.Gamma - z.Gamma).norm(), 0.1, rtol=1e-10)


def test_correct_is_identity_outside_band():
    problem, _ = catalog("ex5", l1=2, l2=1)
    z = spectrum_point(problem, [3.0, 1.2, -2.0], seed=2)
    out = correct(z, problem, 0.5)
    assert np.array_equal(out.Gamma.blocks[0], z.Gamma.blocks[0])
    assert np.array_equal(out.x, z.x)


def test_correct_is_idempotent():
    problem, _ = catalog("ex5", l1=3, l2=2)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 5))
    z = KktPoint(svec(0.5 * (M + M.T)), np.zeros(0),
                 BlockSymMatrix.zeros([5]))
    once = correct(z, problem, 0.5)
    twice = correct(once, problem, 0.5)
    assert twice.distance_to(once) <= 1e-13


def test_correct_leaves_no_spectrum_in_band():
    problem, _ = catalog("ex5", l1=3, l2=2)
    rng = np.random.default_rng(4)
    delta = 0.7
    for seed in range(5):
        M = rng.standard_normal((5, 5))
        z = KktPoint(svec(0.5 * (M + M.T)), np.zeros(0),
                     BlockSymMatrix.zeros([5]))
        out = correct(z, problem, delta)
        A = problem.g(out.x).blocks[0] + out.Gamma.blocks[0]
        lam = np.linalg.eigvalsh(A)
        floor = 1e-10 * (1.0 + np.max(np.abs(lam)))
        assert np.all((np.abs(lam) <= floor) | (np.abs(lam) > delta))


# ---------------------------------------------------------------------------
# newton_step


def test_newton_step_identity_matrix():
    F = np.array([1.0, -2.0, 3.0])
    assert_allclose(newton_step(np.eye(3), F), -F)


def test_newton_step_diagonal_hand_case():
    d = newton_step(np.diag([2.0, 4.0]), np.array([2.0, -8.0]))
    assert_allclose(d, [-1.0, 2.0])


def test_newton_step_accepts_operator_and_residual():
    problem, sol = catalog("ex3")
    z = perturbed_start(sol.z_bar, 0.1, seed=5)
    z = correct(z, problem, 0.5)
    U = assemble_U(problem, z, "U0")
    F = kkt_residual(problem, z)
    d = newton_step(U, F)
    assert_allclose(U.matrix @ d, -F.to_vector(), atol=1e-10)


def test_newton_step_raises_on_singular_matrix():
    M = np.eye(3)
    M[2, 2] = 0.0
    with pytest.raises(SingularSystemError):
        newton_step(M, np.ones(3))


def test_newton_step_inexact_hits_relative_target():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((30, 30))
    M = M @ M.T + 30.0 * np.eye(30)
    F = rng.standard_normal(30)
    params = SolverParams(eta=0.5, tau=0.5, exact_solve=False)
    d = newton_step(M, F, params)
    fn = np.linalg.norm(F)
    target = min(params.eta, fn ** params.tau) * fn
    assert np.linalg.norm(M @ d + F) <= target * (1 + 1e-9)


# ---------------------------------------------------------------------------
# solve loop statuses


def test_solve_at_solution_stops_immediately():
    problem, sol = catalog("ex3")
    res = ssn_solve(problem, sol.z_bar, z_bar=sol.z_bar)
    assert res.status == "converged"
    assert res.iterations == 0
    row = res.trace[0]
    assert row.f_norm <= 1e-12
    assert row.dist_to_solution == 0.0
    assert row.sigma_min > 0.1
    assert row.newton_residual == 0.0


def test_degenerate_start_needs_correction():
    problem, _ = catalog("ex7")
    z0 = example7_start(0.05)
    params = SolverParams(variant="UI", delta=0.2)
    good = ssn_solve(problem, z0, params)
    assert good.status == "converged"
    assert good.iterations == 1
    bad = classical_ssn_solve(problem, z0, params)
    assert bad.status == "singular_system"
    assert bad.iterations == 0
    assert bad.trace[-1].sigma_min == 0.0


def test_max_iter_exhaustion():
    problem, sol = catalog("ex3")
    z0 = perturbed_start(sol.z_bar, 10.0, seed=1)  # takes 5 steps to finish
    res = ssn_solve(problem, z0, SolverParams(max_iter=1), z_bar=sol.z_bar)
    assert res.status == "max_iter"
    assert res.iterations == 1


def test_divergence_is_detected():
    """A deliberately inconsistent Hessian makes the first step explode;
    the loop must flag divergence instead of iterating on garbage."""
    problem = NlsdpProblem(
        name="blowup",
        x_dim=1,
        eq_dim=0,
        cone_blocks=[1],
        f=lambda x: float(0.5 * x @ x),
        grad_f=lambda x: x.copy(),
        h=lambda x: np.zeros(0),
        jac_h=lambda x, v: np.zeros(0),
        jac_h_adj=lambda x, w: np.zeros(1),
        g=lambda x: BlockSymMatrix([np.array([[x[0]]])]),
        jac_g=lambda x, v: BlockSymMatrix([np.array([[v[0]]])]),
        jac_g_adj=lambda x, W: np.array([W.blocks[0][0, 0]]),
        # wrong on purpose: the true Hessian of f is the identity
        hess_lagrangian=lambda x, xi, Gamma, v: 1e-8 * v,
    )
    z0 = KktPoint(np.array([1.0]), np.zeros(0), BlockSymMatrix.zeros([1]))
    res = ssn_solve(problem, z0, SolverParams(delta=0.25))
    assert res.status == "diverged"
    assert res.trace[-1].f_norm > 1e6
    # no Newton matrix is built for a diverged row: unknown, not singular
    assert math.isnan(res.trace[-1].sigma_min)


def set_x0_nan(z):
    z.x[0] = np.nan


def set_xi1_inf(z):
    z.xi[1] = np.inf


def set_gamma_nan(z):
    z.Gamma.blocks[2][0, 0] = np.nan


@pytest.mark.parametrize("solve", [ssn_solve, classical_ssn_solve])
@pytest.mark.parametrize("edit,field", [
    (set_x0_nan, "x"), (set_xi1_inf, "xi"), (set_gamma_nan, "Gamma")])
def test_non_finite_start_is_rejected(solve, edit, field):
    problem, sol = catalog("ex7")
    z0 = sol.z_bar.copy()
    edit(z0)
    with pytest.raises(ValueError, match=f"non-finite entry in {field}$"):
        solve(problem, z0)


def test_solver_is_deterministic():
    problem, sol = catalog("ex3")
    z0 = perturbed_start(sol.z_bar, 10.0, seed=7)
    a = ssn_solve(problem, z0, z_bar=sol.z_bar)
    b = ssn_solve(problem, z0, z_bar=sol.z_bar)
    assert a.status == b.status
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.k, ra.f_norm, ra.dist_to_solution, ra.sigma_min,
                ra.correction_shift, ra.newton_residual) == \
               (rb.k, rb.f_norm, rb.dist_to_solution, rb.sigma_min,
                rb.correction_shift, rb.newton_residual)


def test_trace_row_semantics():
    problem, sol = catalog("ex3")
    z0 = perturbed_start(sol.z_bar, 10.0, seed=8)
    res = ssn_solve(problem, z0, z_bar=sol.z_bar)
    assert res.status == "converged"
    ks = [row.k for row in res.trace]
    assert ks == list(range(len(res.trace)))
    assert res.trace[-1].newton_residual == 0.0
    for row in res.trace[:-1]:
        # exact solves: the linear residual sits at rounding level
        assert row.newton_residual <= 1e-8 * (1.0 + row.f_norm)
    for row in res.trace:
        assert row.correction_shift >= 0.0
        assert row.sigma_min > 0.0
    assert kkt_residual(problem, res.z_final).norm() < 1e-10


def test_inexact_solve_respects_forcing_term():
    problem, sol = catalog("ex3")
    z0 = perturbed_start(sol.z_bar, 10.0, seed=9)
    params = SolverParams(eta=0.1, tau=1.0, exact_solve=False, max_iter=80)
    res = ssn_solve(problem, z0, params, z_bar=sol.z_bar)
    assert res.status == "converged"
    for row in res.trace[:-1]:
        target = min(params.eta, row.f_norm ** params.tau) * row.f_norm
        assert row.newton_residual <= target * (1 + 1e-9) + 1e-15


def test_classical_equals_corrected_away_from_band():
    """While no eigenvalue enters the correction band the two iterations
    coincide; compare their first steps from a clearly split spectrum."""
    problem, _ = catalog("ex5", l1=2, l2=1)
    z0 = spectrum_point(problem, [4.0, 2.0, -3.0], seed=10)
    pa = SolverParams(variant="U0", delta=0.5, max_iter=1)
    a = ssn_solve(problem, z0, pa)
    b = classical_ssn_solve(problem, z0, pa)
    assert a.trace[0].correction_shift == 0.0
    assert a.trace[0].f_norm == b.trace[0].f_norm
    assert a.trace[0].sigma_min == b.trace[0].sigma_min
    # the classical run's final point is the raw Newton iterate; the
    # corrected run only differs by snapping it afterwards
    snapped = correct(b.z_final, problem, pa.delta)
    assert np.array_equal(a.z_final.to_vector(), snapped.to_vector())


# ---------------------------------------------------------------------------
# structured backends


def test_separable_diagonal_gate():
    p5, s5 = catalog("ex5", l1=6, l2=4)
    w = separable_diagonal(p5, s5.z_bar)
    assert w is not None
    assert w.size == p5.x_dim
    p3, s3 = catalog("ex3")
    assert separable_diagonal(p3, s3.z_bar) is None
    p1, s1 = catalog("ex1", l1=4, l2=3)
    assert separable_diagonal(p1, s1.z_bar) is None


def two_block_separable_problem():
    """Separable problem on S^4 x S^3 whose Hessian differs from the
    identity on three diagonal coordinates only, so the Woodbury support
    covers no whole index block."""
    orders = [4, 3]
    N = svec_len(4) + svec_len(3)
    w = np.ones(N)
    # svec positions of (0,0) and (2,2) in block one, (1,1) in block two
    w[[0, 7, 13]] = [0.0, 0.3, -0.5]
    return NlsdpProblem(
        name="two_block_separable",
        x_dim=N,
        eq_dim=0,
        cone_blocks=orders,
        f=lambda x: float(0.5 * x @ (w * x)),
        grad_f=lambda x: w * x,
        h=lambda x: np.zeros(0),
        jac_h=lambda x, v: np.zeros(0),
        jac_h_adj=lambda x, y: np.zeros(N),
        g=lambda x: BlockSymMatrix.from_svec(orders, x),
        jac_g=lambda x, v: BlockSymMatrix.from_svec(orders, v),
        jac_g_adj=lambda x, W: W.svec(),
        hess_lagrangian=lambda x, xi, Gamma, v: w * v,
        jac_h_matrix=sp.csr_matrix((0, N)),
        jac_g_matrix=sp.identity(N, format="csr"),
        hess_matrix_fn=lambda x, xi, Gamma: sp.diags(w).tocsr(),
    )


def two_block_start(problem, seed):
    """Random point whose cone arguments have eigenvalues inside and on
    both sides of the correction band delta = 0.5."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.x_dim)
    g = problem.g(x).blocks
    Gamma = []
    for Gb, lam in zip(g, ([1.5, 0.2, -0.1, -2.0], [0.9, 0.3, -1.1])):
        Q = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))[0]
        Gamma.append((Q * np.asarray(lam)) @ Q.T - Gb)
    return KktPoint(x, np.zeros(0), BlockSymMatrix(Gamma))


def woodbury_case(name):
    if name.startswith("ex5"):
        problem, sol = catalog("ex5", l1=6, l2=4)
        # with UI the ex5 operator is singular whenever |gamma| < l2
        magnitude, seed = (1.0, 11) if name == "ex5-U0" else (5.0, 55)
        z0 = perturbed_start(sol.z_bar, magnitude, seed=seed)
    else:
        problem = two_block_separable_problem()
        z0 = two_block_start(problem, seed=5)
    return problem, correct(z0, problem, 0.5), name[-2:]


@pytest.mark.parametrize("case", [
    "ex5-U0", "ex5-UI", "two-block-U0", "two-block-UI"])
def test_woodbury_operator_matches_dense(case):
    problem, z, variant = woodbury_case(case)
    decomps = cone_decompositions(problem, z)
    for dec in decomps:
        assert len(dec.alpha) and len(dec.beta) and len(dec.gamma)
    w = separable_diagonal(problem, z)
    assert w is not None
    op = WoodburyNewtonOperator(problem, z, variant, decomps, w)
    U = assemble_U(problem, z, variant).matrix
    assert not op.singular
    rng = np.random.default_rng(12)
    lu = np.linalg.inv(U)
    for _ in range(5):
        r = rng.standard_normal(op.dim)
        assert_allclose(op.matvec(r), U @ r, atol=1e-11)
        assert_allclose(op.solve(r), lu @ r, atol=1e-10)
        assert_allclose(op.solve_t(r), lu.T @ r, atol=1e-10)
    sigma_dense = float(np.linalg.svd(U, compute_uv=False)[-1])
    assert_allclose(op.sigma_min(), sigma_dense, rtol=1e-6)


@pytest.mark.parametrize("support", ["block", "diagonal", "scattered", "all"])
@pytest.mark.parametrize("variant", ["U0", "UI"])
def test_woodbury_core_matches_rotation_rows(support, variant):
    rng = np.random.default_rng(21)
    n = 9
    lam = np.array([2.0, 1.3, 0.7, 0.0, 0.0, -0.4, -1.1, -1.6, -2.5])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    dec = eig_sym((Q * lam) @ Q.T)
    b = _BlockData(dec, variant)
    loc = {"block": np.where(b.iu >= 5)[0],
           "diagonal": np.where(b.iu == b.ju)[0],
           "scattered": np.sort(rng.choice(b.len, 12, replace=False)),
           "all": np.arange(b.len)}[support]
    c = rng.standard_normal(loc.size)
    F, anorm = _woodbury_core(b, v_mask(dec, variant), loc, c)
    # reference: rows of the svec rotation by P', one per support pair
    R = svec_rotation(dec.P.T)[loc]
    ref = np.eye(loc.size) - (R * b.dvec) @ R.T * c
    assert F.flags.f_contiguous
    assert_allclose(F, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert_allclose(anorm, np.abs(ref).sum(axis=0).max(), rtol=1e-13)


def test_woodbury_core_builds_without_rotation_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("svec rotation rows built")

    monkeypatch.setattr(reduced_mod, "_svec_rotation_rows", refuse)
    problem, z, variant = woodbury_case("ex5-U0")
    op = WoodburyNewtonOperator(problem, z, variant,
                                cone_decompositions(problem, z))
    assert not op.singular


def test_reduced_operator_matches_dense():
    for name, variant in (("ex3", "U0"), ("ex4_dual", "U0"), ("ex7", "UI")):
        problem, sol = catalog(name)
        z = correct(perturbed_start(sol.z_bar, 0.5, seed=13), problem, 0.5)
        decomps = cone_decompositions(problem, z)
        op = ReducedNewtonOperator(problem, z, variant, decomps)
        U = assemble_U(problem, z, variant).matrix
        if op.singular:
            continue
        rng = np.random.default_rng(14)
        Ui = np.linalg.inv(U)
        for _ in range(4):
            r = rng.standard_normal(op.dim)
            assert_allclose(op.matvec(r), U @ r, atol=1e-10)
            assert_allclose(op.solve(r), Ui @ r, atol=1e-9)
            assert_allclose(op.solve_t(r), Ui.T @ r, atol=1e-9)
        sigma_dense = float(np.linalg.svd(U, compute_uv=False)[-1])
        assert_allclose(op.sigma_min(), sigma_dense, rtol=1e-6)


# (problem, catalog kwargs, variant, start magnitude, seed): corrected
# starts where every Newton matrix is well away from singular; with UI
# the ex5 operator is singular whenever |gamma| < l2
DENSE_SIGMA_CASES = [
    ("ex3", {}, "U0", 1.0, 1),
    ("ex3", {}, "UI", 1.0, 1),
    ("ex4_primal", {}, "U0", 1.0, 1),
    ("ex4_primal", {}, "UI", 1.0, 1),
    ("ex7", {}, "U0", 1.0, 1),
    ("ex7", {}, "UI", 1.0, 1),
    ("ex5", {"l1": 6, "l2": 3}, "U0", 1.0, 1),
    ("ex5", {"l1": 6, "l2": 3}, "UI", 5.0, 3),
]


def dense_backend_at(name, params, variant, magnitude, seed):
    problem, sol = catalog(name, **params)
    z = correct(perturbed_start(sol.z_bar, magnitude, seed=seed), problem,
                0.5)
    return solver_mod._DenseBackend(assemble_U(
        problem, z, variant, _decomps=cone_decompositions(problem, z)))


@pytest.mark.parametrize("case", DENSE_SIGMA_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in DENSE_SIGMA_CASES])
def test_dense_backend_sigma_matches_full_svd(case):
    backend = dense_backend_at(*case)
    assert not backend.singular
    sigma = backend.sigma_min()
    assert_allclose(sigma, min_singular_value(backend.op), rtol=1e-8)
    # fixed start, no state kept between backends: bitwise repeatable
    assert dense_backend_at(*case).sigma_min() == sigma


def test_dense_backend_flagged_singular_reads_zero():
    backend = dense_backend_at("ex7", {}, "U0", 0.5, 1)
    assert backend.singular
    assert min_singular_value(backend.op) < 1e-15
    assert backend.sigma_min() == 0.0


def lanczos_sigma_of(M, **kwargs):
    """_lanczos_sigma_min driven by LU solves of a dense matrix."""
    lu = scipy.linalg.lu_factor(M)
    return _lanczos_sigma_min(
        M.shape[0], lambda r: scipy.linalg.lu_solve(lu, r),
        lambda r: scipy.linalg.lu_solve(lu, r, trans=1), **kwargs)


def with_singular_values(s, seed):
    rng = np.random.default_rng(seed)
    n = len(s)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (U * np.asarray(s)) @ V.T


LANCZOS_CASES = {
    # bases smaller than _LANCZOS_BASIS: the Krylov space becomes
    # invariant before the basis fills
    "n3": lambda: np.random.default_rng(34).standard_normal((3, 3)),
    "n7": lambda: np.random.default_rng(38).standard_normal((7, 7)),
    "generic": lambda: np.random.default_rng(31).standard_normal((40, 40)),
    # close singular values: convergence needs a restart of the full basis
    "restart": lambda: with_singular_values(np.linspace(1.0, 1.1, 40), 34),
    # the top eigenvalue of (U' U)^{-1} has multiplicity 5
    "clustered": lambda: with_singular_values(
        np.concatenate([np.full(5, 0.3), np.linspace(0.5, 3.0, 35)]), 32),
    "near-singular": lambda: with_singular_values(
        np.concatenate([[1e-7], np.linspace(0.5, 3.0, 39)]), 33),
}


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_lanczos_sigma_min_matches_svd(case):
    M = LANCZOS_CASES[case]()
    sigma = lanczos_sigma_of(M)
    assert_allclose(sigma, np.linalg.svd(M, compute_uv=False)[-1], rtol=1e-8)
    # fixed start, no state kept between calls: bitwise repeatable
    assert lanczos_sigma_of(M) == sigma


def test_lanczos_sigma_min_restarts_on_close_spectrum():
    M = LANCZOS_CASES["restart"]()
    lu = scipy.linalg.lu_factor(M)
    applies = []

    def solve(r):
        applies.append(1)
        return scipy.linalg.lu_solve(lu, r)

    sigma = _lanczos_sigma_min(
        M.shape[0], solve, lambda r: scipy.linalg.lu_solve(lu, r, trans=1))
    assert len(applies) > _LANCZOS_BASIS
    assert_allclose(sigma, np.linalg.svd(M, compute_uv=False)[-1], rtol=1e-8)


def test_lanczos_sigma_min_reads_nan_when_not_converged():
    M = LANCZOS_CASES["clustered"]()
    assert np.isnan(lanczos_sigma_of(M, max_applies=3))


@pytest.mark.parametrize("name,params,variant,magnitude", [
    ("ex3", {}, "U0", 10.0),
    ("ex4_dual", {}, "U0", 10.0),
    ("ex5", {"l1": 6, "l2": 4}, "U0", 10.0),
    ("ex1", {"l1": 4, "l2": 3}, "UI", 1.0),
])
def test_structured_path_reproduces_dense_run(name, params, variant,
                                              magnitude, monkeypatch):
    problem, sol = catalog(name, **params)
    z0 = perturbed_start(sol.z_bar, magnitude, seed=15)
    sp_ = SolverParams(variant=variant, delta=0.5)
    dense = ssn_solve(problem, z0, sp_, z_bar=sol.z_bar)
    monkeypatch.setattr(solver_mod, "DENSE_LIMIT", 0)
    structured = ssn_solve(problem, z0, sp_, z_bar=sol.z_bar)
    assert structured.status == dense.status
    assert structured.iterations == dense.iterations
    for rd, rs in zip(dense.trace, structured.trace):
        assert_allclose(rs.f_norm, rd.f_norm, rtol=1e-8, atol=1e-12)
        assert_allclose(rs.correction_shift, rd.correction_shift,
                        rtol=1e-8, atol=1e-12)
        assert_allclose(rs.sigma_min, rd.sigma_min, rtol=1e-5, atol=1e-10)


def test_factorization_reuse_requires_matching_structure():
    problem, sol = catalog("ex7")
    # strictly positive cone arguments: all blocks are pure alpha
    z = KktPoint(np.array([0.3, 0.6, 0.1]), np.zeros(2),
                 BlockSymMatrix.zeros([1, 1, 1]))
    decomps = cone_decompositions(problem, z)
    assert all(d.beta.size == 0 and d.gamma.size == 0 for d in decomps)
    op = ReducedNewtonOperator(problem, z, "U0", decomps)
    assert op.structure_key is not None
    assert not op.singular
    z2 = KktPoint(np.array([0.5, 0.5, 0.25]), np.zeros(2),
                  BlockSymMatrix.zeros([1, 1, 1]))
    decomps2 = cone_decompositions(problem, z2)
    assert reuse_compatible(op, problem, z2, decomps2, "U0")
    assert not reuse_compatible(op, problem, z2, decomps2, "UI")
    assert not reuse_compatible(None, problem, z2, decomps2, "U0")
    # a zero eigenvalue invalidates the zero-variant structure
    decb = cone_decompositions(problem, sol.z_bar)
    assert not reuse_compatible(op, problem, sol.z_bar, decb, "U0")


# ---------------------------------------------------------------------------
# convergence order estimation


def test_fitted_order_quadratic_pairs():
    assert_allclose(fitted_order([1e-3, 1e-5, 1e-9]), 2.0, rtol=1e-12)


def test_fitted_order_single_pair_anchored_ratio():
    assert_allclose(fitted_order([0.5, 1e-4, 1e-8]), 2.0, rtol=1e-12)


def test_fitted_order_linear_sequence():
    got = fitted_order([1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    assert_allclose(got, 1.0, rtol=1e-6)


def test_fitted_order_none_cases():
    assert fitted_order([]) is None
    assert fitted_order([1e-5]) is None
    assert fitted_order([0.5, 1e-15]) is None  # transient straight to floor
    assert fitted_order([1e-2, 1e-4]) is None  # boundary is exclusive
    assert fitted_order([1e-4, 1e-12]) is None


def test_fitted_order_accepts_trace_rows():
    rows = [IterationTrace(k=i, f_norm=f, dist_to_solution=None,
                           sigma_min=1.0, correction_shift=0.0,
                           newton_residual=0.0)
            for i, f in enumerate([1e-3, 1e-5, 1e-9])]
    assert_allclose(fitted_order(rows), 2.0, rtol=1e-12)

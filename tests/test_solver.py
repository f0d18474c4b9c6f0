"""Solver tests: correction step, Newton systems, statuses, backends."""

import dataclasses
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import ssnsdp
import ssnsdp._reduced as reduced_mod
import ssnsdp.catalog as catalog_mod
import ssnsdp.solver as solver_mod
from ssnsdp._reduced import (
    _LANCZOS_BASIS,
    ReducedNewtonOperator,
    WoodburyNewtonOperator,
    _BlockData,
    _block_split,
    _border,
    _factor_solve,
    _factor_with_rcond,
    _is_identity,
    _lanczos_sigma_min,
    _sparse_diagonal,
    _woodbury_core,
    reuse_compatible,
    separable_diagonal,
)
from ssnsdp.catalog import catalog, example7_start
from ssnsdp.conditions import regularity_report
from ssnsdp.kkt import (
    assemble_U,
    clarke_combination,
    cone_decompositions,
    kkt_residual,
    min_singular_value,
)
from ssnsdp.linalg_sym import (
    SpectralDecomposition,
    _triu,
    apply_V,
    eig_sym,
    svec,
    svec_len,
    svec_rotation,
    v_mask,
)
from ssnsdp.problem import (
    BlockSymMatrix,
    KktPoint,
    NlsdpProblem,
    jac_g_matrix_of,
    jac_h_matrix_of,
    perturbed_start,
    to_dense,
)
from ssnsdp.solver import (
    IterationTrace,
    SingularSystemError,
    SolverParams,
    _DenseBackend,
    _direction,
    _make_backend,
    classical_ssn_solve,
    correct,
    fitted_order,
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
    # range() takes integers only, and nan would pass every comparison
    {"max_iter": 2.5},
    {"max_iter": math.nan},
    # non-finite values: inf clips every eigenvalue or stops at k = 0
    {"delta": math.inf},
    {"delta": math.nan},
    {"tol": math.inf},
    {"tol": math.nan},
    # a bool is an Integral, but True is no iteration count
    {"max_iter": True},
    # nor a radius or a tolerance; and values that are not real numbers
    {"delta": True},
    {"tol": True},
    {"delta": "0.5"},
    {"tol": None},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SolverParams(**kwargs)


def test_params_accept_numpy_integer_max_iter():
    assert SolverParams(max_iter=np.int64(3)).max_iter == 3


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


def classes(dec):
    return [dec.alpha.tolist(), dec.beta.tolist(), dec.gamma.tolist()]


@pytest.mark.parametrize("delta", [0.0, 1e-15])
def test_correction_below_the_tolerance_keeps_eig_sym_classes(delta):
    """Eigenvalues of about +-1e-14 lie within eig_sym's tolerance, so
    they are beta in the KKT map and the report.  A correction radius
    below them clips nothing there and keeps them in beta; at radius 0
    the point comes back unchanged, with shift 0.0."""
    problem = two_block_separable_problem()
    z = two_block_start(problem, seed=5, spectra=(
        [1.5, 1e-14, -1e-14, -2.0], [0.9, 0.0, -1.1]))
    want = cone_decompositions(problem, z)
    assert [d.beta.tolist() for d in want] == [[1, 2], [1]]
    out, shift, decomps = solver_mod._correct_with_decomps(problem, z,
                                                           delta)
    assert [classes(d) for d in decomps] == [classes(d) for d in want]
    if delta == 0.0:
        assert shift == 0.0
        assert np.array_equal(out.to_vector(), z.to_vector())


def test_correction_at_radius_zero_is_eig_sym():
    """Property: on spectra of exact and signed zeros, +-1e-14 and
    magnitudes in [1e-6, 1e6], diagonal (so that zeros are exact) or
    rotated, the correction at radius 0 keeps the point's values,
    returns shift 0.0 and returns eig_sym's classes and eigenvalues."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    magnitude = st.floats(1e-6, 1e6)
    eigenvalue = (st.sampled_from([0.0, -0.0, 1e-14, -1e-14])
                  | magnitude | magnitude.map(lambda t: -t))
    spectrum = st.integers(1, 6).flatmap(
        lambda n: st.lists(eigenvalue, min_size=n, max_size=n))

    @hyp.settings(max_examples=200, deadline=None, derandomize=True)
    @hyp.given(lam=spectrum, seed=st.integers(0, 2**16),
               rotate=st.booleans())
    @hyp.example(lam=[1e-14, 0.0, -0.0, -1e-14], seed=0, rotate=False)
    def check(lam, seed, rotate):
        n = len(lam)
        rng = np.random.default_rng(seed)
        Q = (np.linalg.qr(rng.standard_normal((n, n)))[0] if rotate
             else np.eye(n)[rng.permutation(n)])
        A = (Q * np.asarray(lam)) @ Q.T
        # the correction reads only g, so g(x) + Gamma = 0 + A
        problem = types.SimpleNamespace(
            g=lambda x: BlockSymMatrix([np.zeros((n, n))]))
        z = KktPoint(np.zeros(0), np.zeros(0), BlockSymMatrix([A]))
        out, shift, (dec,) = solver_mod._correct_with_decomps(problem, z,
                                                              0.0)
        want = eig_sym(A)
        assert shift == 0.0
        assert np.array_equal(out.Gamma.blocks[0], A)
        assert classes(dec) == classes(want)
        assert np.array_equal(dec.lam, want.lam)

    check()


# ---------------------------------------------------------------------------
# the Newton step (_direction) over a backend


class MatrixBackend:
    """The backend contract over a given matrix: LU factors with the
    shared singularity verdict, as the reference _DenseBackend holds for
    an assembled Newton matrix."""

    def __init__(self, M):
        self.matrix = np.asarray(M, dtype=float)
        self.dim = self.matrix.shape[0]
        self._lu = _factor_with_rcond(self.matrix)
        self.singular = self._lu is None

    def solve(self, r):
        return _factor_solve(self._lu, r)

    def solve_t(self, r):
        if self.singular:
            raise SingularSystemError()
        return scipy.linalg.lu_solve(self._lu, r, trans=1)

    def matvec(self, d):
        return self.matrix @ d


def newton_step(M, F):
    """The solver's step U d = -F, over the dense backend of M."""
    return _direction(MatrixBackend(M), F)


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
    decomps = cone_decompositions(problem, z)
    U = assemble_U(problem, z, "U0")
    F = kkt_residual(problem, z)
    for backend in (_make_backend(problem, z, "U0", decomps),
                    _DenseBackend(problem, z, "U0", decomps)):
        d = _direction(backend, F)
        assert_allclose(U @ d, -F, atol=1e-10)
        assert_allclose(backend.matvec(d), -F, atol=1e-10)


def test_newton_step_raises_on_singular_matrix():
    M = np.eye(3)
    M[2, 2] = 0.0
    backend = MatrixBackend(M)
    assert backend.singular
    with pytest.raises(SingularSystemError):
        backend.solve(np.ones(3))
    with pytest.raises(SingularSystemError):
        backend.solve_t(np.ones(3))


def test_structured_solve_t_raises_when_flagged_singular():
    """ex2 at its solution: both variants' reduced systems are singular,
    and the transpose solve raises as the forward solve does."""
    problem, sol = catalog("ex2")
    decomps = cone_decompositions(problem, sol.z_bar)
    for variant in ("U0", "UI"):
        op = ReducedNewtonOperator(problem, sol.z_bar, variant, decomps)
        assert op.singular
        for f in (op.solve, op.solve_t):
            with pytest.raises(SingularSystemError):
                f(np.ones(op.dim))


def test_singular_system_error_is_one_exception():
    assert ssnsdp.SingularSystemError is ssnsdp.solver.SingularSystemError
    assert SingularSystemError is reduced_mod.SingularSystemError


# ---------------------------------------------------------------------------
# the singularity verdict (_factor_with_rcond), LU and Cholesky


def test_lu_with_rcond_hand_case():
    M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    kept = M.copy()
    factors = _factor_with_rcond(M)
    assert factors is not None
    assert np.array_equal(M, kept)  # not overwritten by default
    # M^{-1} = [[1, -2, 0], [0, 1, 0], [0, 0, 1/2]]
    assert_allclose(_factor_solve(factors, np.ones(3)), [-1.0, 1.0, 0.5])


def test_lu_with_rcond_exact_zero_pivot():
    # dgetrf stops with info > 0 on the zero column
    assert _factor_with_rcond(np.diag([1.0, 0.0, 1.0])) is None


def test_lu_with_rcond_measures_against_the_scale_given():
    """A core I - A whose terms cancel to rounding noise is well
    conditioned relative to its own norm, singular against the scale of
    the terms that cancelled."""
    R = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    F = 1e-16 * R
    A = np.eye(3) - F
    scale = 1.0 + float(np.abs(A).sum(axis=0).max())
    assert _factor_with_rcond(F.copy()) is not None
    assert _factor_with_rcond(F.copy(), anorm=scale) is None


def test_cholesky_with_rcond_hand_case():
    M = np.array([[4.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    kept = M.copy()
    factors = _factor_with_rcond(M, definite=True)
    assert factors is not None and factors[1] is None
    assert np.array_equal(M, kept)  # not overwritten by default
    # M^{-1} = [[1/2, -1/2, 0], [-1/2, 1, 0], [0, 0, 1/2]]
    assert_allclose(_factor_solve(factors, np.ones(3)), [0.0, 0.5, 0.5])
    assert_allclose(_factor_solve(factors, np.eye(3)), np.linalg.inv(M))
    # only the lower triangle is read
    lower = np.tril(M) + np.triu(np.full((3, 3), np.nan), 1)
    factors = _factor_with_rcond(lower, anorm=6.0, definite=True)
    assert_allclose(_factor_solve(factors, np.ones(3)), [0.0, 0.5, 0.5])


def test_cholesky_with_rcond_breakdown():
    # dpotrf stops with info > 0 on the zero pivot
    assert _factor_with_rcond(np.diag([1.0, 0.0, 1.0]), definite=True) is None


def test_cholesky_with_rcond_measures_against_the_scale_given():
    """The definite branch of test_lu_with_rcond_measures_against_the_
    scale_given: R is positive definite, and so is 1e-16 R."""
    R = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    F = 1e-16 * R
    A = np.eye(3) - F
    scale = 1.0 + float(np.abs(A).sum(axis=0).max())
    assert _factor_with_rcond(F.copy(), definite=True) is not None
    assert _factor_with_rcond(F.copy(), anorm=scale, definite=True) is None


@pytest.mark.parametrize("definite", [False, True])
@pytest.mark.parametrize("order", ["F", "C"])
def test_factor_measures_against_the_column_sums(monkeypatch, order,
                                                 definite):
    """The default scale is ||M||_1, the largest column sum of |M|, in
    either memory order, to rounding."""
    name = "dpocon" if definite else "dgecon"
    real = getattr(reduced_mod.lapack, name)
    seen = []

    def spy(factor, anorm, **kwargs):
        seen.append(anorm)
        return real(factor, anorm, **kwargs)

    monkeypatch.setattr(reduced_mod.lapack, name, spy)
    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 60):
        A = rng.standard_normal((n, n)) * rng.lognormal(0.0, 3.0, n)
        M = np.asarray(A @ A.T + np.eye(n) if definite else A, order=order)
        kept = M.copy()
        assert _factor_with_rcond(M, definite=definite) is not None
        assert np.array_equal(M, kept)
        assert_allclose(seen[-1], np.abs(kept).sum(axis=0).max(),
                        rtol=1e-14)
    assert len(seen) == 4


@pytest.mark.parametrize("definite", [False, True])
def test_factor_in_place_allocates_no_matrix(definite):
    """Factoring a Fortran-order matrix in place takes its 1-norm with no
    copy: far less than the matrix's own bytes are allocated."""
    n = 2000
    M = np.asfortranarray(np.random.default_rng(32).standard_normal((n, n)))
    M += M.T
    M[np.diag_indices(n)] += 4.0 * n
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        factors = _factor_with_rcond(M, overwrite=True, definite=definite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factors is not None and factors[0] is M
    assert peak < M.nbytes / 50


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
    assert np.linalg.norm(kkt_residual(problem, res.z_final)) < 1e-10


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


def stored(G):
    """What a sparse matrix stores, in storage order and to the last bit
    (repr of Python floats), which a read must not change."""
    if G.format == "lil":
        return repr((G.rows.tolist(), G.data.tolist()))
    if G.format == "dok":
        return repr(sorted(G.items()))
    return repr([getattr(G, name).tolist() for name in
                 ("data", "indices", "indptr", "row", "col")
                 if hasattr(G, name)])


def test_identity_check_matches_the_difference():
    """Property: _is_identity gives the verdict of (G.tocsr() -
    I).count_nonzero() == 0, with duplicates that cancel (or do not, by
    rounding), explicit zeros, nan, inf, unsorted indices and every
    format, and leaves G as it was."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16,
                             math.nan, math.inf, -math.inf])

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(n=st.integers(0, 4), data=st.data(),
               fmt=st.sampled_from(["coo", "csr-raw", "csc-raw", "csr",
                                    "csr_array", "bsr", "dok", "lil"]))
    def check(n, data, fmt):
        entries = data.draw(st.lists(st.tuples(
            st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
            value), max_size=0 if n == 0 else 12))
        # a diagonal of 1s, or of some other value, under the entries
        diag = data.draw(st.sampled_from([None, 1.0, 2.0]))
        if diag is not None:
            entries = [(i, i, diag) for i in range(n)] + entries
        rows, cols, vals = (
            np.array([e[i] for e in entries], dtype=t)
            for i, t in enumerate((np.int32, np.int32, float)))
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
        if fmt.endswith("-raw"):
            # stored in the entries' order: duplicates and unsorted indices
            major, minor = (rows, cols) if fmt == "csr-raw" else (cols,
                                                                   rows)
            order = np.argsort(major, kind="stable")
            ptr = np.concatenate([[0], np.cumsum(np.bincount(
                major, minlength=n))]).astype(np.int32)
            cls = sp.csr_matrix if fmt == "csr-raw" else sp.csc_matrix
            G = cls((vals[order], minor[order], ptr), shape=(n, n))
        elif fmt == "csr_array":
            G = sp.csr_array(coo)
        else:
            G = coo.asformat(fmt)
        before = stored(G)
        # inf and -inf duplicates sum to nan, on both sides
        with np.errstate(invalid="ignore"):
            want = not (G.copy().tocsr()
                        - sp.identity(n, format="csr")).count_nonzero()
            assert _is_identity(G) == want
        assert stored(G) == before

    check()
    assert _is_identity(sp.identity(3, format="csr"))
    assert not _is_identity(sp.diags([1.0, 1.0, math.nan]).tocsr())
    # raw CSR (unsorted, duplicates): 5 and -5 cancel beside an explicit
    # zero; whether the 1e16 duplicates cancel depends on the order in
    # which they are summed, which the check leaves to the difference
    for data, indices, indptr, identity in [
            ([5.0, 1.0, -5.0, 1.0, 0.0, 1.0], [2, 0, 2, 1, 0, 2],
             [0, 3, 5, 6], True),
            ([1e16, 1.0, -1e16, 1.0, 1.0, 1.0], [1, 1, 1, 0, 1, 2],
             [0, 4, 5, 6], None)]:
        G = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
        assert not G.has_canonical_format
        for form in (G, G.tocoo(), G.tocsc()):
            want = not (form.tocsr()
                        - sp.identity(3, format="csr")).count_nonzero()
            assert _is_identity(form) == want
            assert identity is None or want == identity


def two_block_separable_problem(support=([0, 7, 13], [0.0, 0.3, 0.5])):
    """Separable problem on S^4 x S^3 whose Hessian differs from the
    identity on the support coordinates only, by default three, so the
    Woodbury support covers no whole index block."""
    # by default svec positions of (0,0) and (2,2) in block one, (1,1) in
    # block two
    return separable_problem([4, 3], support)


def separable_problem(orders, support):
    """Separable problem on the cone blocks of the given orders, with
    Hessian diagonal w = 1 except w[support[0]] = support[1]."""
    N = sum(svec_len(n) for n in orders)
    w = np.ones(N)
    w[support[0]] = support[1]
    return NlsdpProblem(
        name="separable",
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


def quadratic_cone_problem(W, G, orders):
    """min x'Wx/2 subject to smat(G x) in the PSD cone, with W and G
    handed out in the storage given (sparse or dense)."""
    Wd, Gd = to_dense(W), to_dense(G)
    N = Wd.shape[0]
    return NlsdpProblem(
        name="quadratic_cone",
        x_dim=N,
        eq_dim=0,
        cone_blocks=orders,
        f=lambda x: float(0.5 * x @ (Wd @ x)),
        grad_f=lambda x: Wd @ x,
        h=lambda x: np.zeros(0),
        jac_h=lambda x, v: np.zeros(0),
        jac_h_adj=lambda x, y: np.zeros(N),
        g=lambda x: BlockSymMatrix.from_svec(orders, Gd @ x),
        jac_g=lambda x, v: BlockSymMatrix.from_svec(orders, Gd @ v),
        jac_g_adj=lambda x, Gamma: Gd.T @ Gamma.svec(),
        hess_lagrangian=lambda x, xi, Gamma, v: Wd @ v,
        jac_h_matrix=sp.csr_matrix((0, N)),
        jac_g_matrix=G,
        hess_matrix_fn=lambda x, xi, Gamma: W,
    )


def unconstrained_qp(W):
    """min x'Qx/2 + c'x over R^2, c = (1, -1): no equality rows and no
    cone blocks, with the Hessian handed out as W (Q, sparse or dense).
    At Q = diag(1, 2) the minimizer is (-1, 0.5)."""
    Q = to_dense(W)
    c = np.array([1.0, -1.0])
    none = BlockSymMatrix([])
    return NlsdpProblem(
        name="unconstrained_qp",
        x_dim=2,
        eq_dim=0,
        cone_blocks=[],
        f=lambda x: float(0.5 * x @ (Q @ x) + c @ x),
        grad_f=lambda x: Q @ x + c,
        h=lambda x: np.zeros(0),
        jac_h=lambda x, v: np.zeros(0),
        jac_h_adj=lambda x, y: np.zeros(2),
        g=lambda x: none,
        jac_g=lambda x, v: none,
        jac_g_adj=lambda x, Gamma: np.zeros(2),
        hess_lagrangian=lambda x, xi, Gamma, v: Q @ v,
        jac_g_matrix=sp.csr_matrix((0, 2)),
        hess_matrix_fn=lambda x, xi, Gamma: W,
    )


@pytest.mark.parametrize("sparse_hessian", [False, True],
                         ids=["dense", "sparse"])
def test_problem_without_constraints_solves(sparse_hessian):
    """With no equality rows and no cone blocks the border of R has no
    rows at all: R = K = Q, one Newton step solves the QP, and the
    report reads the curvature of Q on the whole space."""
    Q = np.diag([1.0, 2.0])
    problem = unconstrained_qp(sp.csr_matrix(Q) if sparse_hessian else Q)
    z0 = KktPoint(np.array([0.3, 0.7]), np.zeros(0), BlockSymMatrix([]))
    res = ssn_solve(problem, z0)
    assert res.status == "converged" and res.iterations == 1
    assert_allclose(res.z_final.x, [-1.0, 0.5], rtol=0, atol=1e-15)
    report = regularity_report(problem, res.z_final)
    assert report.w_soc.margin == 1.0
    assert report.cn.margin == math.inf


@pytest.mark.parametrize("sparse_hessian", [False, True],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("q,status,iterations", [
    (1e-14, "converged", 1), (5e-15, "singular_system", 0)])
def test_singular_below_the_threshold_in_either_storage(
        sparse_hessian, q, status, iterations):
    """R = K = Q = diag(1, q): the LU condition estimate of the dense R
    and the pivot ratio of the sparse R are both q, and both read
    singular exactly below 1e-14, not at it."""
    Q = np.diag([1.0, q])
    problem = unconstrained_qp(sp.csr_matrix(Q) if sparse_hessian else Q)
    z0 = KktPoint(np.array([0.3, 0.7]), np.zeros(0), BlockSymMatrix([]))
    res = ssn_solve(problem, z0)
    assert (res.status, res.iterations) == (status, iterations)


def fallback_case(name):
    """(problem, corrected point, variant): a problem one structural fact
    short of the Woodbury backend, at a point where that variant's Newton
    operator is nonsingular."""
    N = svec_len(4) + svec_len(3)
    w = np.ones(N)
    w[[0, 7, 13]] = [0.0, 0.3, -0.5]
    W, G = sp.diags(w).tocsr(), sp.identity(N, format="csr")
    if name == "sparse-G":
        G = sp.diags(np.where(np.arange(N) == 2, 2.0, 1.0)).tocsr()
    elif name == "dense-W":
        W = np.diag(w)
    elif name == "off-diagonal-W":
        W = (W + 0.2 * (sp.eye(N, k=1) + sp.eye(N, k=-1))).tocsr()
    problem = quadratic_cone_problem(W, G, [4, 3])
    return problem, correct(two_block_start(problem, seed=5), problem,
                            0.5), "UI"


@pytest.mark.parametrize("name", ["sparse-G", "dense-W", "off-diagonal-W"])
def test_backend_choice_falls_back_to_block_elimination(name):
    problem, z, variant = fallback_case(name)
    assert separable_diagonal(problem, z) is None
    decomps = cone_decompositions(problem, z)
    op = _make_backend(problem, z, variant, decomps)
    dense = _DenseBackend(problem, z, variant, decomps)
    assert isinstance(op, ReducedNewtonOperator)
    assert not op.singular and not dense.singular
    for r in np.random.default_rng(3).standard_normal((3, op.dim)):
        assert_allclose(op.solve(r), dense.solve(r), atol=1e-10)
    assert_allclose(op.sigma_min(), dense.sigma_min(), atol=1e-10)


@pytest.mark.parametrize("variant", ["U0", "UI"])
def test_backend_choice_takes_woodbury_at_any_support_size(variant):
    """ex5 at 1/4 has 10 non-unit Hessian entries among 15 unknowns, so
    its core has more rows than half the unknowns: the Woodbury backend
    still takes it and answers as the assembled operator under U0, and
    reads singular with it under UI."""
    problem, sol = catalog("ex5", l1=1, l2=4)
    z = correct(perturbed_start(sol.z_bar, 1.0, seed=11), problem, 0.5)
    w = separable_diagonal(problem, z)
    assert np.count_nonzero(w != 1.0) == 10 and w.size == 15
    decomps = cone_decompositions(problem, z)
    op = _make_backend(problem, z, variant, decomps)
    dense = _DenseBackend(problem, z, variant, decomps)
    assert isinstance(op, WoodburyNewtonOperator)
    if variant == "UI":
        assert op.singular and dense.singular
        return
    assert not op.singular and not dense.singular
    for r in np.random.default_rng(3).standard_normal((3, op.dim)):
        assert_allclose(op.solve(r), dense.solve(r), atol=1e-10)
    assert_allclose(op.sigma_min(), dense.sigma_min(), atol=1e-10)


def test_a_diagonal_with_stored_zeros_takes_woodbury():
    """A Hessian whose only off-diagonal entries are an explicit zero and
    a duplicate pair that cancels, stored as raw CSR (unsorted, with the
    duplicates), is diagonal: the Woodbury backend takes it and answers
    as the assembled operator."""
    N = svec_len(4) + svec_len(3)
    w = np.ones(N)
    w[[0, 7, 13]] = [0.0, 0.3, 0.5]
    rows = np.concatenate([np.arange(N), [0, 1, 1]])
    cols = np.concatenate([np.arange(N), [1, 2, 2]])
    vals = np.concatenate([w, [0.0, 1.5, -1.5]])
    order = np.argsort(rows, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=N))])
    W = sp.csr_matrix((vals[order], cols[order], ptr), shape=(N, N))
    assert not W.has_canonical_format
    before = stored(W)
    assert np.array_equal(_sparse_diagonal(W), w)
    assert stored(W) == before
    problem = quadratic_cone_problem(W, sp.identity(N, format="csr"),
                                     [4, 3])
    z = correct(two_block_start(problem, seed=5), problem, 0.5)
    decomps = cone_decompositions(problem, z)
    op = _make_backend(problem, z, "UI", decomps)
    dense = _DenseBackend(problem, z, "UI", decomps)
    assert isinstance(op, WoodburyNewtonOperator)
    assert not op.singular and not dense.singular
    for r in np.random.default_rng(3).standard_normal((3, op.dim)):
        assert_allclose(op.solve(r), dense.solve(r), rtol=1e-12,
                        atol=1e-12)
        assert_allclose(op.solve_t(r), np.linalg.solve(dense.matrix.T, r),
                        rtol=1e-12, atol=1e-12)
    assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-12)


def two_block_start(problem, seed,
                    spectra=([1.5, 0.2, -0.1, -2.0], [0.9, 0.3, -1.1])):
    """Random point whose cone arguments have the given eigenvalues; by
    default inside and on both sides of the correction band delta = 0.5."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.x_dim)
    g = problem.g(x).blocks
    Gamma = []
    for Gb, lam in zip(g, spectra):
        Q = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))[0]
        Gamma.append((Q * np.asarray(lam)) @ Q.T - Gb)
    return KktPoint(x, np.zeros(0), BlockSymMatrix(Gamma))


def woodbury_case(name):
    if name.startswith("ex5"):
        problem, sol = catalog("ex5", l1=6, l2=4)
        # with UI the ex5 operator is singular whenever |gamma| < l2
        magnitude, seed = (1.0, 11) if name == "ex5-U0" else (5.0, 55)
        z0 = perturbed_start(sol.z_bar, magnitude, seed=seed)
    elif name.startswith("unit-block"):
        # the second block's Hessian is the identity: it has no core
        problem = two_block_separable_problem(([0, 7], [0.0, 0.3]))
        z0 = two_block_start(problem, seed=5)
    else:
        problem = two_block_separable_problem()
        z0 = two_block_start(problem, seed=5)
    return problem, correct(z0, problem, 0.5), name[-2:]


def core_kind(core):
    """How WoodburyNewtonOperator holds one block's core."""
    if isinstance(core, np.ndarray):
        return "diagonal"
    if isinstance(core, reduced_mod._KroneckerCore):
        return "kronecker"
    return "cholesky" if core[1] is None else "lu"


@pytest.mark.parametrize("case", [
    "ex5-U0", "ex5-UI", "two-block-U0", "two-block-UI", "unit-block-U0",
    "unit-block-UI"])
def test_woodbury_operator_matches_dense(case):
    problem, z, variant = woodbury_case(case)
    decomps = cone_decompositions(problem, z)
    for dec in decomps:
        assert len(dec.alpha) and len(dec.beta) and len(dec.gamma)
    w = separable_diagonal(problem, z)
    assert w is not None
    op = WoodburyNewtonOperator(problem, z, variant, decomps, w)
    U = assemble_U(problem, z, variant)
    assert not op.singular
    # a block whose Hessian is the identity has no core; every other core
    # has c in (0, 1] and factors by Cholesky (ex5: c = 1, two-block:
    # c = (1, 0.7) and 0.5)
    kinds = {"ex5": ["cholesky"], "two-block": ["cholesky", "cholesky"],
             "unit-block": ["cholesky"]}[case[:-3]]
    assert [core_kind(core) for core, _ in op._cores] == kinds
    rng = np.random.default_rng(12)
    lu = np.linalg.inv(U)
    for _ in range(5):
        r = rng.standard_normal(op.dim)
        assert_allclose(op.matvec(r), U @ r, atol=1e-11)
        assert_allclose(op.solve(r), lu @ r, atol=1e-10)
        assert_allclose(op.solve_t(r), lu.T @ r, atol=1e-10)
    sigma_dense = float(np.linalg.svd(U, compute_uv=False)[-1])
    assert_allclose(op.sigma_min(), sigma_dense, rtol=1e-6)


SEGMENT = [("ex2", {}), ("ex1", {"l1": 6, "l2": 4}), ("ex3", {}), ("ex7", {}),
           ("ex5", {"l1": 6, "l2": 4}), ("two-block", None)]


def segment_points(name, params):
    """(problem, points): a catalog problem at its solution and at starts
    of magnitude 0.3 and 1 corrected at radius 0.5, or
    two_block_separable_problem at two corrected random points; the
    corrected points have beta nonempty."""
    if params is None:
        problem = two_block_separable_problem()
        return problem, [correct(two_block_start(problem, seed), problem, 0.5)
                         for seed in (5, 6)]
    problem, sol = catalog(name, **params)
    return problem, [sol.z_bar] + [
        correct(perturbed_start(sol.z_bar, m, seed=3), problem, 0.5)
        for m in (0.3, 1.0)]


def segment_backends(problem, z, variant, decomps):
    """Block elimination, and the Woodbury backend where it applies."""
    ops = [ReducedNewtonOperator(problem, z, variant, decomps)]
    w = separable_diagonal(problem, z)
    if w is not None:
        ops.append(WoodburyNewtonOperator(problem, z, variant, decomps, w))
    return ops


@pytest.mark.parametrize("name, params", SEGMENT, ids=[n for n, _ in SEGMENT])
def test_segment_backends_match_the_assembled_combination(name, params):
    """At t in {0.25, 0.5, 0.75} both structured backends built at variant
    t are clarke_combination(U0, UI, t) of the assembled matrices: the
    same matvec, solve and solve_t on vectors and on stacks (judged by
    backward error, since some points are ill conditioned), the same
    singular verdict as the dense LU, and the same sigma_min.  ex2's
    solution has diagonal beta x beta pairs, which a solve weights by
    half; ex5 and the two-block problem run both backends."""
    problem, points = segment_points(name, params)
    rng = np.random.default_rng(34)
    for z in points:
        decomps = cone_decompositions(problem, z)
        UI, U0 = (assemble_U(problem, z, v, _decomps=decomps)
                  for v in ("UI", "U0"))
        for t in (0.25, 0.5, 0.75):
            M = clarke_combination(U0, UI, t)
            norm = np.abs(M).sum(axis=1).max()
            singular = _factor_with_rcond(M) is None
            sigma = min_singular_value(M)
            for op in segment_backends(problem, z, t, decomps):
                assert op.singular == singular
                for r in (rng.standard_normal(op.dim),
                          rng.standard_normal((op.dim, 3))):
                    err = np.abs(op.matvec(r) - M @ r).max()
                    assert err <= 1e-13 * norm * np.abs(r).max()
                    if singular:
                        continue
                    for A, solve in ((M, op.solve), (M.T, op.solve_t)):
                        d = solve(r)
                        assert d.shape == r.shape
                        err = np.abs(A @ d - r).max()
                        assert err <= 1e-12 * (norm * np.abs(d).max()
                                               + np.abs(r).max())
                if singular:
                    assert op.sigma_min() == 0.0 and sigma <= 1e-12 * norm
                else:
                    assert_allclose(op.sigma_min(), sigma, rtol=1e-9)


def same_bits(a, b):
    """a and b hold the same bits: arrays of one dtype and shape, tuples
    item by item, anything else by identity or equality."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return a is b or a == b


@pytest.mark.parametrize("name, params", SEGMENT, ids=[n for n, _ in SEGMENT])
def test_segment_ends_are_the_named_variants(name, params):
    """t = 0 and t = 1, as floats or ints, build "U0" and "UI" bit for bit:
    every _BlockData field, and every backend's verdict, solve, solve_t
    on vectors and stacks, and sigma_min."""
    problem, points = segment_points(name, params)
    rng = np.random.default_rng(35)
    for z in points:
        decomps = cone_decompositions(problem, z)
        for t, variant in ((0.0, "U0"), (1.0, "UI"), (0, "U0"), (1, "UI")):
            for dec in decomps:
                got, want = vars(_BlockData(dec, t)), vars(_BlockData(
                    dec, variant))
                assert got.keys() == want.keys()
                for key in want:
                    assert same_bits(got[key], want[key]), key
            for got, want in zip(segment_backends(problem, z, t, decomps),
                                 segment_backends(problem, z, variant,
                                                  decomps)):
                assert got.singular == want.singular
                assert same_bits(np.float64(got.sigma_min()),
                                 np.float64(want.sigma_min()))
                if want.singular:
                    continue
                for r in (rng.standard_normal(want.dim),
                          rng.standard_normal((want.dim, 2))):
                    assert same_bits(got.solve(r), want.solve(r))
                    assert same_bits(got.solve_t(r), want.solve_t(r))


@pytest.mark.parametrize("w", [1.5, -0.5])
@pytest.mark.parametrize("variant", ["U0", "UI"])
def test_hessian_outside_unit_interval_routes_to_block_elimination(
        w, variant):
    """A Hessian diagonal entry outside [0, 1] would give a core with c
    outside (0, 1], which need not be definite: the Woodbury gate
    refuses it, and the exact block elimination answers as the
    assembled operator."""
    problem = two_block_separable_problem(([0, 7, 13], [0.0, 0.3, w]))
    z = correct(two_block_start(problem, seed=5), problem, 0.5)
    assert separable_diagonal(problem, z) is None
    decomps = cone_decompositions(problem, z)
    op = _make_backend(problem, z, variant, decomps)
    dense = _DenseBackend(problem, z, variant, decomps)
    assert isinstance(op, ReducedNewtonOperator)
    assert not op.singular and not dense.singular
    for r in np.random.default_rng(4).standard_normal((3, op.dim)):
        assert_allclose(op.solve(r), dense.solve(r), atol=1e-10)
    assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-10)


@pytest.mark.parametrize("t_empty", [False, True], ids=["core", "diagonal"])
@pytest.mark.parametrize("variant", ["U0", "UI"])
def test_woodbury_tiny_c_reads_nonsingular(variant, t_empty):
    """w = 1 - 2^-53 gives c = 1.1e-16 beside c = 0.5 in one block:
    measured unscaled, its 1/c = 9e15 swamped the rest of the core and
    read a well-conditioned operator singular."""
    values = (0.5, 1.0 - 2.0**-53, 0.2)
    if t_empty:
        problem, z = t_empty_case(values)
    else:
        problem = two_block_separable_problem(([0, 7, 13], list(values)))
        z = correct(two_block_start(problem, seed=5), problem, 0.5)
    decomps = cone_decompositions(problem, z)
    op = WoodburyNewtonOperator(problem, z, variant, decomps,
                                separable_diagonal(problem, z))
    dense = _DenseBackend(problem, z, variant, decomps)
    assert not op.singular and dense.sigma_min() > 1e-2
    for r in np.random.default_rng(6).standard_normal((3, op.dim)):
        assert_allclose(op.solve(r), dense.solve(r), atol=1e-10)
    assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-8)


def test_woodbury_cores_are_definite_and_match_dense():
    """Property: for any Hessian diagonal in [0, 1] (exact 0s and 1s
    included) at any corrected iterate, every core is Cholesky,
    diagonal or closed form, and the operator gives the assembled one's
    verdict, solves and sigma_min."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    N = svec_len(4) + svec_len(3)
    eigenvalue = st.floats(-2.0, 2.0)

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(
        support=st.lists(st.integers(0, N - 1), min_size=1,
                         max_size=N // 2, unique=True),
        values=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                        min_size=N // 2, max_size=N // 2),
        spectra=st.tuples(st.lists(eigenvalue, min_size=4, max_size=4),
                          st.lists(eigenvalue, min_size=3, max_size=3)),
        seed=st.integers(0, 2**16),
        variant=st.sampled_from(["U0", "UI"]))
    def check(support, values, spectra, seed, variant):
        problem = two_block_separable_problem(
            (support, values[:len(support)]))
        z = correct(two_block_start(problem, seed, spectra), problem, 0.5)
        decomps = cone_decompositions(problem, z)
        w = separable_diagonal(problem, z)
        assert w is not None
        op = WoodburyNewtonOperator(problem, z, variant, decomps, w)
        dense = _DenseBackend(problem, z, variant, decomps)
        assert {core_kind(core) for core, _ in op._cores} <= {
            "cholesky", "diagonal", "kronecker"}
        assert op.singular == dense.singular
        if op.singular:
            return
        # both sides are accurate to about eps cond(U), relative: the
        # tolerances hold as stated up to cond(U) = 1e3
        slack = max(1.0, 1e-3 * np.linalg.cond(dense.matrix))
        for r in np.random.default_rng(seed).standard_normal((3, op.dim)):
            x = dense.solve(r)
            assert np.linalg.norm(op.solve(r) - x) <= 1e-10 * slack * max(
                1.0, np.linalg.norm(x))
        assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-6 * slack)

    check()


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
    D = b.D[b.iu, b.ju]
    # c in (0, 1], the definite core, and Gaussian c
    for c in (1.0 - rng.random(loc.size), rng.standard_normal(loc.size)):
        M, vnorm, order, _ = _woodbury_core(b, v_mask(dec, variant), loc,
                                            c)
        # support pairs sorted by (second index, first index)
        assert np.array_equal(np.sort(order), np.arange(loc.size))
        pairs = np.c_[b.ju[loc[order]], b.iu[loc[order]]]
        assert np.all(np.diff(pairs[:, 0] * b.n + pairs[:, 1]) > 0)
        # reference: rows of the svec rotation by P', one per support pair
        R = svec_rotation(dec.P.T)[loc[order]]
        V = (R * D) @ R.T
        ref = np.diag(1.0 / c[order]) - V
        assert M.flags.f_contiguous
        assert_allclose(np.tril(M), np.tril(ref), rtol=0,
                        atol=1e-13 * np.abs(ref).max())
        # ||V[S, S]||_1, the scale of the core's terms before they cancel
        # less the 1 of the scaled core's identity
        assert_allclose(vnorm, np.abs(V).sum(axis=0).max(), rtol=1e-13)


def test_woodbury_core_builds_without_rotation_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("svec rotation rows built")

    monkeypatch.setattr(reduced_mod, "_svec_rotation_rows", refuse)
    problem, z, variant = woodbury_case("ex5-U0")
    op = WoodburyNewtonOperator(problem, z, variant,
                                cone_decompositions(problem, z),
                                separable_diagonal(problem, z))
    assert not op.singular


def two_v_apply_solve(op, r):
    """WoodburyNewtonOperator's solve as two applications of V over whole
    blocks: dx = -(b + V t), b = r3 - V r1, t = M^{-1} b on the support,
    dGamma = r1 - W dx."""
    r1, r3 = op._split(r)
    b = r3 - op._v_apply(r1)
    t = np.zeros_like(b)
    for core, (at, *_) in op._cores:
        t[at] = (core[:, None] * b[at] if isinstance(core, np.ndarray)
                 else _factor_solve(core, b[at]))
    dx = -(b + op._v_apply(t))
    return np.concatenate([dx, r1 - op.w[:, None] * dx]).reshape(np.shape(r))


def two_v_apply_solve_t(op, r):
    """The transpose solve over two_v_apply_solve (module docstring of
    _reduced, with G = I)."""
    r1, r3 = op._split(r)
    d1, d3 = op._split(two_v_apply_solve(op, np.concatenate([r1 - r3, -r3])))
    return np.concatenate([d1, -(d3 + d1)]).reshape(np.shape(r))


def test_woodbury_fused_solve_matches_two_v_applications():
    """The solve that rotates each block once equals the two-V formula to
    1e-12 relative, column by column and on a (dim, 3) stack, on blocks
    with a Cholesky core, a diagonal core (T empty) and no core (V != I
    but the Hessian is the identity there)."""
    cases = [woodbury_case(c)
             for c in ("ex5-U0", "two-block-UI", "unit-block-U0")]
    cases.append(t_empty_case() + ("U0",))
    kinds = set()
    for problem, z, variant in cases:
        op = WoodburyNewtonOperator(problem, z, variant,
                                    cone_decompositions(problem, z),
                                    separable_diagonal(problem, z))
        assert not op.singular
        kinds.update(core_kind(core) for core, _ in op._cores)
        kinds.update("no core" for _ in op._bare)
        R = np.random.default_rng(23).standard_normal((op.dim, 3))
        for f, ref in ((op.solve, two_v_apply_solve),
                       (op.solve_t, two_v_apply_solve_t)):
            got = f(R)
            cols = np.column_stack([f(R[:, k]) for k in range(3)])
            want = ref(op, R)
            assert got.shape == (op.dim, 3)
            assert np.linalg.norm(got - cols) <= 1e-13 * np.linalg.norm(cols)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            for k in range(3):
                assert np.linalg.norm(cols[:, k] - want[:, k]) <= (
                    1e-12 * np.linalg.norm(want[:, k]))
    assert kinds == {"cholesky", "diagonal", "no core"}


def t_empty_case(values=(0.5, 0.3, 0.2)):
    """Two-block separable problem with support coordinates in both
    blocks, at a start whose spectra are all positive: every eigenvalue
    is alpha, so T is empty and V = I in both blocks."""
    problem = two_block_separable_problem(([0, 7, 13], list(values)))
    z0 = two_block_start(problem, seed=5, spectra=([1.5, 1.2, 0.9, 2.0],
                                                   [0.9, 1.3, 1.1]))
    return problem, correct(z0, problem, 0.5)


@pytest.mark.parametrize("variant", ["U0", "UI"])
def test_woodbury_t_empty_core_is_diagonal(variant, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("core built for a block with T empty")

    monkeypatch.setattr(reduced_mod, "_woodbury_core", refuse)
    problem, z = t_empty_case()
    decomps = cone_decompositions(problem, z)
    op = WoodburyNewtonOperator(problem, z, variant, decomps,
                                separable_diagonal(problem, z))
    assert [b.T.size for b in op.blocks] == [0, 0]
    assert not op.singular
    assert [core_kind(core) for core, _ in op._cores] == ["diagonal"] * 2
    U = assemble_U(problem, z, variant)
    Ui = np.linalg.inv(U)
    for r in np.random.default_rng(8).standard_normal((3, op.dim)):
        assert_allclose(op.solve(r), Ui @ r, atol=1e-12)
        assert_allclose(op.solve_t(r), Ui.T @ r, atol=1e-12)
    assert_allclose(op.sigma_min(),
                    np.linalg.svd(U, compute_uv=False)[-1], rtol=1e-10)


@pytest.mark.parametrize("variant", ["U0", "UI"])
def test_woodbury_t_empty_core_reads_singular(variant):
    """w = 0 on a support coordinate of a block with V = I: the diagonal
    core has an exact zero, as the assembled matrix has a zero column."""
    problem, z = t_empty_case((0.0, 0.3, 0.2))
    decomps = cone_decompositions(problem, z)
    op = WoodburyNewtonOperator(problem, z, variant, decomps,
                                separable_diagonal(problem, z))
    assert op.singular and op.sigma_min() == 0.0
    assert _DenseBackend(problem, z, variant, decomps).singular


def kronecker_matrix(core):
    """The dense core that a _KroneckerCore inverts, in its support order:
    column a is U ((U' X U) / inv) U' for X the matrix of unit column a."""
    U, maps = core.U, core.maps
    X = maps.smat(np.eye(maps.w.size))
    return maps.svec(U @ ((U.T @ X @ U) / core.inv) @ U.T)


def full_pattern_support(n, idx):
    """svec positions of every pair (i, j), i <= j, of idx in S^n."""
    at = _triu(n)[4]
    return sorted({int(at[i * n + j]) for i in idx for j in idx})


def test_kronecker_cores_match_the_dense_core_and_backend():
    """Property: on a block with alpha or gamma empty (so no alpha-gamma
    pair), a support of every pair of a random index set and one c0 in
    (0, 1], the core is closed form under both variants.  It equals
    _woodbury_core's dense core, gives the assembled operator's verdict,
    and its solves and sigma_min match the assembled operator's."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    n = 5
    # clear of the correction band delta = 0.5 or inside it (clipped to 0)
    eigenvalue = st.sampled_from([0.0]) | st.floats(-0.4, 0.4) | st.floats(
        0.6, 2.0)
    cases = set()

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(
        idx=st.sets(st.integers(0, n - 1), min_size=1),
        c0=st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 1.0),
        lam=st.lists(eigenvalue, min_size=n, max_size=n),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(0, 2**16),
        variant=st.sampled_from(["U0", "UI"]))
    def check(idx, c0, lam, sign, seed, variant):
        support = full_pattern_support(n, idx)
        problem = separable_problem([n], (support, 1.0 - c0))
        # sign 1: gamma empty; sign -1: alpha empty
        spectra = (sign * np.asarray(lam),)
        z = correct(two_block_start(problem, seed, spectra), problem, 0.5)
        decomps = cone_decompositions(problem, z)
        (dec,) = decomps
        assert dec.alpha.size == 0 or dec.gamma.size == 0
        op = WoodburyNewtonOperator(problem, z, variant, decomps,
                                    separable_diagonal(problem, z))
        dense = _DenseBackend(problem, z, variant, decomps)
        assert op.singular == dense.singular
        if op.singular:
            return
        (b,) = op.blocks
        (core, (at, _, _)), = op._cores
        assert core_kind(core) == ("kronecker" if b.T.size else "diagonal")
        if b.T.size:
            cases.add((variant, dec.alpha.size > 0))
            loc = np.sort(at)
            M, _, order, _ = _woodbury_core(b, b.D, loc, op.c[loc])
            assert np.array_equal(loc[order], at)
            got = kronecker_matrix(core)
            assert np.max(np.abs(np.tril(got - M))) <= 1e-13 * np.max(
                np.abs(np.tril(M)))
        slack = max(1.0, 1e-3 * np.linalg.cond(dense.matrix))
        for r in np.random.default_rng(seed).standard_normal((3, op.dim)):
            for f, g in ((op.solve, dense.solve),
                         (op.solve_t, lambda v: np.linalg.solve(
                             dense.matrix.T, v))):
                x = g(r)
                assert np.linalg.norm(f(r) - x) <= 1e-10 * slack * max(
                    1.0, np.linalg.norm(x))
        assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-6 * slack)

    check()
    # (1, -1) under U0 with alpha nonempty, (0, 0) under U0 with alpha
    # empty, (0, 1) under UI
    assert cases == {("U0", True), ("U0", False), ("UI", False)}


@pytest.mark.parametrize("c0", [1.0, 0.5])
def test_kronecker_core_reads_a_rank_deficient_projection_singular(c0):
    """U0 with gamma empty and c = 1 on every pair of idx = {0, 1, 2}: the
    core is B (x)_s B, B = Q_beta Q_beta' of rank |beta| = 2 < |idx|, so
    it is singular, and so is the assembled operator.  With c = 1/2 the
    core is I + B (x)_s B / 2, well conditioned."""
    problem = separable_problem([4, 3], (full_pattern_support(4, [0, 1, 2]),
                                         1.0 - c0))
    z = correct(two_block_start(problem, seed=5,
                                spectra=([1.5, 1.2, 0.1, -0.2],
                                         [0.9, 0.3, -1.1])), problem, 0.5)
    decomps = cone_decompositions(problem, z)
    assert [(d.alpha.size, d.beta.size, d.gamma.size)
            for d in decomps] == [(2, 2, 0), (1, 1, 1)]
    op = WoodburyNewtonOperator(problem, z, "U0", decomps,
                                separable_diagonal(problem, z))
    dense = _DenseBackend(problem, z, "U0", decomps)
    if c0 == 1.0:
        assert op.singular and dense.singular and op.sigma_min() == 0.0
        return
    assert not op.singular and not dense.singular
    assert [core_kind(core) for core, _ in op._cores] == ["kronecker"]
    assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-10)


def test_woodbury_core_runs_only_with_an_alpha_gamma_pair(monkeypatch):
    """At ex5 6/4's reference point (classes (6, 4, 0)) the U0 core is
    closed form and _woodbury_core never runs; at an iterate with
    alpha-gamma pairs it runs once per block with a core."""
    calls = []
    real = reduced_mod._woodbury_core

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(reduced_mod, "_woodbury_core", spy)
    problem, sol = catalog("ex5", l1=6, l2=4)
    decomps = cone_decompositions(problem, sol.z_bar)
    assert [(d.alpha.size, d.beta.size, d.gamma.size)
            for d in decomps] == [(6, 4, 0)]
    # _make_backend takes U's split here; the core is built directly
    op = WoodburyNewtonOperator(problem, sol.z_bar, "U0", decomps,
                                separable_diagonal(problem, sol.z_bar))
    dense = _DenseBackend(problem, sol.z_bar, "U0", decomps)
    assert calls == [] and not op.singular
    assert [core_kind(core) for core, _ in op._cores] == ["kronecker"]
    for r in np.random.default_rng(9).standard_normal((3, op.dim)):
        assert_allclose(op.solve(r), dense.solve(r), atol=1e-12)
    assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-10)

    problem, z, variant = woodbury_case("ex5-U0")
    op = WoodburyNewtonOperator(problem, z, variant,
                                cone_decompositions(problem, z),
                                separable_diagonal(problem, z))
    assert len(op.blocks[0].ag) and calls == [op.blocks[0]]
    assert [core_kind(core) for core, _ in op._cores] == ["cholesky"]


def test_ex5_ui_report_reads_the_diagonal_core_singular():
    """At the ex5 reference point the UI mask is all ones, so U splits
    and _make_backend takes the split, which reads singular; the Woodbury
    backend, whose core is diagonal there, reads it singular too, and so
    does the report."""
    problem, sol = catalog("ex5", l1=6, l2=4)
    decomps = cone_decompositions(problem, sol.z_bar)
    op = _make_backend(problem, sol.z_bar, "UI", decomps)
    assert isinstance(op, ReducedNewtonOperator) and op.split is not None
    assert op.singular and op.sigma_min() == 0.0
    op = WoodburyNewtonOperator(problem, sol.z_bar, "UI", decomps,
                                separable_diagonal(problem, sol.z_bar))
    assert all(b.T.size == 0 for b in op.blocks) and op.singular
    assert regularity_report(problem, sol.z_bar).ui_sigma_min == 0.0


def reduced_cases():
    """(problem, corrected point, variant) for the reduced-operator check:
    catalog problems, blocks of order >= 4 with alpha, beta and gamma all
    nonempty (so UI has beta x gamma zero-mask pairs), and a block whose
    UI mask is all ones (T empty) beside one with T = gamma.  ex1 under
    UI inverts its reduced system in closed form, and the last case, with
    an off-diagonal sparse Hessian, factors it with splu."""
    for name, params, variant in (("ex3", {}, "U0"), ("ex4_dual", {}, "U0"),
                                  ("ex7", {}, "UI"),
                                  ("ex1", {"l1": 4, "l2": 3}, "UI")):
        problem, sol = catalog(name, **params)
        yield (problem, correct(perturbed_start(sol.z_bar, 0.5, seed=13),
                                problem, 0.5), variant)
    for case in ("ex5-U0", "ex5-UI", "two-block-U0", "two-block-UI"):
        yield woodbury_case(case)
    problem = two_block_separable_problem()
    z0 = two_block_start(problem, seed=5, spectra=([1.5, 0.2, -0.1, -2.0],
                                                   [0.9, 0.3, 1.1]))
    yield problem, correct(z0, problem, 0.5), "UI"
    # a sparse K off the diagonal: R goes to splu
    yield (*tiny_pivot_case(off_diagonal=True, pivot=0.5), "UI")


def test_reduced_operator_matches_dense():
    t_sizes = set()
    for problem, z, variant in reduced_cases():
        decomps = cone_decompositions(problem, z)
        op = ReducedNewtonOperator(problem, z, variant, decomps)
        U = assemble_U(problem, z, variant)
        if op.singular:
            continue
        t_sizes.update((b.n, b.T.size, len(b.dec.beta) * len(b.dec.gamma))
                       for b in op.blocks)
        rng = np.random.default_rng(14)
        Ui = np.linalg.inv(U)
        for _ in range(4):
            r = rng.standard_normal(op.dim)
            assert_allclose(op.matvec(r), U @ r, atol=1e-10)
            assert_allclose(op.solve(r), Ui @ r, atol=1e-9)
            assert_allclose(op.solve_t(r), Ui.T @ r, atol=1e-9)
        sigma_dense = float(np.linalg.svd(U, compute_uv=False)[-1])
        assert_allclose(op.sigma_min(), sigma_dense, rtol=1e-6)
    # the cases reach T empty, T partial on a block of order >= 4 with
    # beta x gamma pairs, and T whole
    assert any(n > 1 and t == 0 for n, t, _ in t_sizes)
    assert any(n >= 4 and 0 < t < n and bg for n, t, bg in t_sizes)
    assert any(t == n for n, t, _ in t_sizes)


def test_newton_matrix_is_symmetric_after_the_shear():
    """U = S Y Q with S = diag(I, I, -I), Q = [[I, 0, 0], [0, I, 0],
    [G, 0, I]] and Y symmetric, the identity that makes solve_t one
    forward solve.  reduced_cases() includes every woodbury_case."""
    for problem, z, variant in reduced_cases():
        U = assemble_U(problem, z, variant)
        G = to_dense(jac_g_matrix_of(problem, z.x))
        x, e, c = problem.x_dim, problem.eq_dim, G.shape[0]
        S = np.diag(np.r_[np.ones(x + e), -np.ones(c)])
        Qinv = np.eye(x + e + c)
        Qinv[x + e:, :x] = -G
        Y = S @ U @ Qinv
        assert np.linalg.norm(Y - Y.T) <= 1e-12 * np.linalg.norm(Y)


def assert_batch_is_columns(op, m=5):
    """solve and solve_t of a (dim, m) right-hand side equal m column
    solves, to 1e-13 relative."""
    R = np.random.default_rng(17).standard_normal((op.dim, m))
    for f in (op.solve, op.solve_t):
        got = f(R)
        want = np.column_stack([f(R[:, k]) for k in range(m)])
        assert got.shape == (op.dim, m)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def r_kind(op):
    """How a ReducedNewtonOperator solves: by the closed-form U^{-1} of a
    split, or with R."""
    if op.split is not None:
        return "closed form"
    return ("sparse R" if isinstance(getattr(op, "_lu", None), spla.SuperLU)
            else "dense R")


def test_batched_solves_match_column_solves():
    kinds = set()
    for problem, z, variant in reduced_cases():
        op = ReducedNewtonOperator(problem, z, variant,
                                   cone_decompositions(problem, z))
        if op.singular:
            continue
        assert_batch_is_columns(op)
        kinds.add(r_kind(op))
        kinds.update("ag" for b in op.blocks if len(b.ag))
        kinds.update("T empty" if b.T.size == 0 else
                     "T whole" if b.T.size == b.n else "T partial"
                     for b in op.blocks)
    assert kinds == {"closed form", "sparse R", "dense R", "ag", "T empty",
                     "T partial", "T whole"}
    for case in ("ex5-U0", "ex5-UI"):
        problem, z, variant = woodbury_case(case)
        op = WoodburyNewtonOperator(problem, z, variant,
                                    cone_decompositions(problem, z),
                                    separable_diagonal(problem, z))
        assert not op.singular
        assert_batch_is_columns(op)


@pytest.mark.parametrize("variant", ["U0", "UI"])
@pytest.mark.parametrize("lam", [
    [2.0, 1.3, 0.7, 0.4, 0.2, 1.1, 1.6, 0.9, 2.5],
    [2.0, 1.3, 0.7, 0.0, 0.0, 0.4, 1.1, 1.6, 2.5],
    [2.0, 1.3, 0.7, 0.0, 0.0, -0.4, -1.1, -1.6, -2.5],
    [0.0, 0.0, 0.0, -0.4, -1.1, -1.6, -2.5, -0.7, -0.2],
    [-2.0, -1.3, -0.7, -0.4, -0.2, -1.1, -1.6, -0.9, -2.5],
], ids=["alpha", "alpha-beta", "mixed", "beta-gamma", "gamma"])
def test_block_v_apply_matches_apply_V(lam, variant):
    """The operators' V(H) = H - P((1 - D) o P'HP)P', read through the
    T columns and applied only to blocks with T nonempty, matches the
    two-GEMM formula; the cases reach T empty, partial and whole."""
    rng = np.random.default_rng(22)
    n = 9
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    dec = eig_sym((Q * np.asarray(lam)) @ Q.T)
    b = _BlockData(dec, variant)
    assert_allclose(b.T, np.where(np.diag(v_mask(dec, variant)) != 1.0)[0])
    for _ in range(3):
        H = rng.standard_normal((n, n))
        H = H + H.T
        h = svec(H)
        got = h - b.v_defect(h[:, None])[:, 0] if b.T.size else h
        assert_allclose(got, svec(apply_V(dec, variant, H)),
                        rtol=0, atol=1e-13)


# (problem, catalog kwargs, variant, start magnitude, seed): corrected
# starts where every Newton matrix is well away from singular; with UI
# the ex5 operator is singular whenever |gamma| < l2.  The ex5 cases (90
# unknowns) run Lanczos, the others (7 or 8) take the exact path.
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


def backend_at(name, params, variant, magnitude, seed,
               backend=_make_backend):
    """(backend at a corrected start, its assembled Newton matrix)."""
    problem, sol = catalog(name, **params)
    z = correct(perturbed_start(sol.z_bar, magnitude, seed=seed), problem,
                0.5)
    decomps = cone_decompositions(problem, z)
    return (backend(problem, z, variant, decomps),
            assemble_U(problem, z, variant, _decomps=decomps))


@pytest.mark.parametrize("case", DENSE_SIGMA_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in DENSE_SIGMA_CASES])
def test_dense_backend_sigma_matches_full_svd(case):
    """The solver's backend on the small catalog cases gives the full-SVD
    sigma_min of the assembled matrix."""
    backend, U = backend_at(*case)
    assert not backend.singular
    sigma = backend.sigma_min()
    assert_allclose(sigma, min_singular_value(U), rtol=1e-8)
    # no state kept between backends: bitwise repeatable
    assert backend_at(*case)[0].sigma_min() == sigma


def splu_calls(build):
    """(build(), the number of splu calls it made)."""
    calls, splu = [], spla.splu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced_mod.spla, "splu",
                   lambda *a, **k: calls.append(1) or splu(*a, **k))
        return build(), len(calls)


def tiny_pivot_case(off_diagonal=False, pivot=1e-20):
    """(problem, corrected point): W = diag(w) in CSR with one entry
    pivot and G = 2 I in CSR, so the Woodbury gate refuses; every cone
    eigenvalue is positive, so under UI R = W, inverted in closed form.
    With off_diagonal, W also couples coordinates 0 and 1 by 0.2, so R
    is factored by splu, whose pivot on coordinate 4 is still pivot."""
    N = svec_len(4) + svec_len(3)
    w = np.ones(N)
    w[4] = pivot
    W = sp.diags(w).tocsr()
    if off_diagonal:
        W = (W + sp.csr_matrix(([0.2, 0.2], ([0, 1], [1, 0])),
                               shape=(N, N))).tocsr()
    problem = quadratic_cone_problem(W, 2.0 * sp.identity(N, format="csr"),
                                     [4, 3])
    z0 = two_block_start(problem, seed=5, spectra=([1.5, 0.9, 2.0, 0.7],
                                                   [0.9, 0.6, 1.1]))
    return problem, correct(z0, problem, 0.5)


def test_dense_backend_flagged_singular_reads_zero():
    for backend in (_make_backend, _DenseBackend):
        op, U = backend_at("ex7", {}, "U0", 0.5, 1, backend=backend)
        assert op.singular
        assert min_singular_value(U) < 1e-15
        assert op.sigma_min() == 0.0
    # the closed form's exact rule on a diagonal R, and splu's pivot
    # ratio on a sparse R that is not, give the verdict
    for off_diagonal, kind in ((False, "closed form"), (True, "sparse R")):
        problem, z = tiny_pivot_case(off_diagonal)
        decomps = cone_decompositions(problem, z)
        op, calls = splu_calls(
            lambda: _make_backend(problem, z, "UI", decomps))
        assert isinstance(op, ReducedNewtonOperator)
        assert calls == (kind == "sparse R")
        if kind == "sparse R":
            assert isinstance(op._lu, spla.SuperLU)
        for backend in (op, _DenseBackend(problem, z, "UI", decomps)):
            assert backend.singular
            assert backend.sigma_min() == 0.0


def test_sparse_r_matches_the_assembled_operator():
    """ex1 at 12/8 under UI, from a start at which the correction clips
    every eigenvalue (all beta, so V = I): W is diagonal, each row of J
    one coordinate and G = I, so U of order 552 splits and is inverted in
    closed form, and the solves and sigma_min match dense solves and the
    full SVD of the assembled U."""
    problem, sol = catalog("ex1", l1=12, l2=8)
    z = correct(perturbed_start(sol.z_bar, 0.1, seed=1), problem, 0.5)
    decomps = cone_decompositions(problem, z)
    assert all(dec.beta.size == dec.n for dec in decomps)
    op = _make_backend(problem, z, "UI", decomps)
    assert isinstance(op, ReducedNewtonOperator) and not op.singular
    assert r_kind(op) == "closed form"
    # x_dim 210, eq_dim 132 and cone_dim 210
    assert op._u_inv.shape == (552, 552)
    U = assemble_U(problem, z, "UI", _decomps=decomps)
    R = np.random.default_rng(24).standard_normal((op.dim, 3))
    assert_allclose(op.solve(R), np.linalg.solve(U, R), rtol=0, atol=1e-9)
    assert_allclose(op.solve_t(R), np.linalg.solve(U.T, R), rtol=0,
                    atol=1e-9)
    assert_allclose(op.sigma_min(), min_singular_value(U), rtol=1e-8)


@pytest.mark.parametrize("rows,kind,singular", [
    # one coordinate each, on columns of their own: closed form
    (([1.0, 2.0], [0, 2], [0, 1, 2]), "closed form", False),
    # two rows on column 1: dependent, splu reads it singular
    (([1.0, 2.0], [1, 1], [0, 1, 2]), "sparse R", True),
    # a row with two entries
    (([1.0, 0.5, 2.0], [0, 2, 1], [0, 2, 3]), "sparse R", False),
], ids=["coordinates", "shared-column", "two-entry-row"])
def test_border_rows_choose_closed_form_or_splu(rows, kind, singular):
    """min (x - t)' diag(d) (x - t) / 2 over S^2_+ with two equality rows
    J, at a point with a positive spectrum, so V = I and R = [[diag(d),
    J'], [J, 0]]: only coordinate rows on columns of their own take the
    closed form; the others reach splu, and its verdict and solves are
    those of the assembled U."""
    J = sp.csr_matrix(rows, shape=(2, 3))
    problem = catalog_mod._diagonal_quadratic(
        "rows", 2, np.array([1.0, -1.0, 2.0]), np.zeros(3), J)
    z = spectrum_point(problem, [2.0, 1.0])
    op, calls = splu_calls(lambda: _make_backend(
        problem, z, "UI", cone_decompositions(problem, z)))
    assert isinstance(op, ReducedNewtonOperator)
    assert calls == (kind == "sparse R")
    assert op.singular == singular
    U = assemble_U(problem, z, "UI")
    if singular:
        assert min_singular_value(U) < 1e-15
        return
    assert r_kind(op) == kind
    R = np.random.default_rng(25).standard_normal((op.dim, 3))
    assert_allclose(op.solve(R), np.linalg.solve(U, R), rtol=0, atol=1e-12)
    assert_allclose(op.sigma_min(), min_singular_value(U), rtol=1e-10)


def test_block_split_lays_out_coordinates_and_multipliers():
    """Property: the cs slices of _block_split tile the stacked cone
    coordinates and its ws slices the stacked zero-mask multipliers, in
    block order, and _border holds block b's rows of Gz at b.ws."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    eigenvalue = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0)
    spectrum = st.integers(1, 5).flatmap(
        lambda n: st.lists(eigenvalue, min_size=n, max_size=n))

    @hyp.settings(max_examples=100, deadline=None, derandomize=True)
    @hyp.given(spectra=st.lists(spectrum, min_size=1, max_size=4),
               seed=st.integers(0, 2**16),
               variant=st.sampled_from(["U0", "UI"]))
    def check(spectra, seed, variant):
        rng = np.random.default_rng(seed)
        decomps = []
        for lam in spectra:
            Q = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))[0]
            decomps.append(eig_sym((Q * np.asarray(lam)) @ Q.T))
        blocks = _block_split(decomps, variant)
        lens = [svec_len(len(lam)) for lam in spectra]
        zers = [b.zer.size for b in blocks]
        assert [(b.cs.start, b.cs.stop) for b in blocks] == list(zip(
            np.cumsum([0] + lens[:-1]).tolist(), np.cumsum(lens).tolist()))
        assert [(b.ws.start, b.ws.stop) for b in blocks] == list(zip(
            np.cumsum([0] + zers[:-1]).tolist(), np.cumsum(zers).tolist()))
        G = rng.standard_normal((sum(lens), 3))
        # CSR when no block has zero-mask rows
        B = to_dense(_border(sp.csr_matrix((0, 3)), blocks, G))
        assert B.shape == (sum(zers), 3)
        for b in blocks:
            want = svec_rotation(b.dec.P)[b.zer] @ G[b.cs]
            assert_allclose(B[b.ws], want, rtol=0, atol=1e-13)

    check()


@pytest.mark.parametrize("name,variant,with_rows", [
    ("ex7", "UI", [False, False, False]),
    ("ex3", "U0", [True, True]),
])
def test_border_reads_rows_only_of_blocks_with_zero_mask_pairs(
        name, variant, with_rows, monkeypatch):
    """_border asks _BlockData.s_rows only for the blocks with zero-mask
    pairs, and its border equals the stack of every block's rows."""
    problem, sol = catalog(name)
    z = sol.z_bar
    blocks = _block_split(cone_decompositions(problem, z), variant)
    assert [b.zer.size > 0 for b in blocks] == with_rows
    J, G = jac_h_matrix_of(problem, z.x), jac_g_matrix_of(problem, z.x)
    every = [J] + [b.s_rows(b.zer, G[b.cs]) for b in blocks]
    calls = []
    s_rows = _BlockData.s_rows

    def spy(self, pairs, G_block):
        calls.append(self)
        return s_rows(self, pairs, G_block)

    monkeypatch.setattr(_BlockData, "s_rows", spy)
    B = _border(J, blocks, G)
    assert calls == [b for b, rows in zip(blocks, with_rows) if rows]
    assert sp.issparse(B) == all(sp.issparse(r) for r in every)
    assert np.array_equal(to_dense(B),
                          np.vstack([to_dense(r) for r in every]))


def pairs_in_any_order(dec, variant):
    """(ag, zer, T, z_at, ag_at, z_scale) of one block built pair by pair
    from the class index sets, with no assumption on their order: the
    construction _BlockData used before it read the classes as ranges.
    A zer pair (i, j) whose j is outside T sits at its mirror (j, i)."""
    n = dec.n
    iu, ju = np.triu_indices(n)
    D = v_mask(dec, variant)
    in_a = np.zeros(n, dtype=bool)
    in_a[dec.alpha] = True
    in_g = np.zeros(n, dtype=bool)
    in_g[dec.gamma] = True
    ag = np.where(in_a[iu] & in_g[ju])[0]
    zer = np.where(D[iu, ju] == 0.0)[0]
    T = np.where(np.diag(D) != 1.0)[0]
    col = np.full(n, -1)
    col[T] = np.arange(T.size)
    zi, zj = iu[zer], ju[zer]
    j_in = col[zj] >= 0
    z_at = (np.where(j_in, zi, zj), np.where(j_in, col[zj], col[zi]))
    ag_at = (iu[ag], col[ju[ag]])
    z_scale = np.where(zi == zj, 1.0, np.sqrt(2.0))
    return ag, zer, T, z_at, ag_at, z_scale


def test_block_data_reads_the_classes_as_ranges():
    """Property: on spectra with positive, zero and negative eigenvalues,
    from eig_sym and from the correction at a random delta, alpha, beta
    and gamma are consecutive ranges in that order, and _BlockData's T,
    pair split and pair positions, which read them as ranges, equal the
    pair-by-pair construction (pairs_in_any_order)."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    magnitude = st.floats(1e-3, 10.0)
    eigenvalue = (st.sampled_from([0.0, 1e-14, -1e-14, 1.0, -1.0])
                  | magnitude | magnitude.map(lambda t: -t))
    spectrum = st.integers(1, 6).flatmap(
        lambda n: st.lists(eigenvalue, min_size=n, max_size=n))

    @hyp.settings(max_examples=200, deadline=None, derandomize=True)
    @hyp.given(lam=spectrum, seed=st.integers(0, 2**16),
               delta=st.none() | st.floats(1e-3, 2.0),
               variant=st.sampled_from(["U0", "UI"]))
    @hyp.example(lam=[2.0, 0.0, -1.0, 0.0, 3.0, -2.0], seed=0, delta=None,
                 variant="UI")
    @hyp.example(lam=[2.0, 0.3, -1.0, -0.2, 3.0, -2.0], seed=0, delta=0.5,
                 variant="U0")
    def check(lam, seed, delta, variant):
        n = len(lam)
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal(
            (n, n)))[0]
        A = (Q * np.asarray(lam)) @ Q.T
        if delta is None:
            dec = eig_sym(A)
        else:
            # the correction reads only g, so g(x) + Gamma = 0 + A
            problem = types.SimpleNamespace(
                g=lambda x: BlockSymMatrix([np.zeros((n, n))]))
            z = KktPoint(np.zeros(0), np.zeros(0), BlockSymMatrix([A]))
            dec = solver_mod._correct_with_decomps(problem, z, delta)[2][0]
        assert np.array_equal(
            np.concatenate([dec.alpha, dec.beta, dec.gamma]), np.arange(n))
        b = _BlockData(dec, variant)
        ag, zer, T, z_at, ag_at, z_scale = pairs_in_any_order(dec, variant)
        assert np.array_equal(b.ag, ag) and np.array_equal(b.zer, zer)
        assert np.array_equal(b.T, T)
        if T.size == 0:
            assert zer.size == ag.size == 0
            return
        for got, want in ((b.z_at, z_at), (b.ag_at, ag_at)):
            assert got[0] == slice(None)
            assert np.array_equal(got[1], want[0])
            assert np.array_equal(got[2], want[1])
        assert b.z_scale.tobytes() == z_scale.tobytes()

    check()


def test_rows_near_a_signed_permutation_are_dense():
    """An eigenbasis 1e-8 of a rotation away from a signed permutation:
    every column's largest entry is 1 to within 1e-13, but more than n
    entries exceed 1e-13, so it is no signed permutation, and with a
    sparse G the rotated rows come out dense and equal to the svec
    rotation rows.  The permutation itself, a 4-cycle and so not its own
    inverse, gives the same rows sparse."""
    n = 4
    perm = np.eye(n)[[2, 0, 3, 1]] * np.array([1.0, -1.0, 1.0, -1.0])
    t = 1e-8
    rot = np.eye(n)
    rot[:2, :2] = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    lam = np.array([2.0, 0.5, -0.3, -1.0])
    G = sp.random(svec_len(n), 5, density=0.5, random_state=0,
                  format="csr")
    pairs = np.arange(svec_len(n))
    for P, sparse_rows in ((perm @ rot, False), (perm, True)):
        dec = SpectralDecomposition(P=P, lam=lam, alpha=np.arange(2),
                                    beta=np.arange(0), gamma=np.arange(2, 4))
        assert np.all(np.abs(np.abs(P).max(axis=0) - 1.0) <= 1e-13)
        assert (reduced_mod._signed_permutation(P) is None) != sparse_rows
        rows = _BlockData(dec, "U0").s_rows(pairs, G)
        assert sp.issparse(rows) == sparse_rows
        assert_allclose(to_dense(rows), svec_rotation(P)[pairs] @ G.toarray(),
                        rtol=0, atol=1e-13)


@pytest.mark.parametrize("name,params,sparse_border", [
    ("ex1", {"l1": 4, "l2": 3}, True), ("ex2", {}, False),
    ("ex4_primal", {}, False), ("ex7", {}, False)])
def test_more_border_rows_than_unknowns_reads_singular_unfactored(
        name, params, sparse_border, monkeypatch):
    """Under U0 at these reference points the border [J; Gz] has more
    rows than x_dim, so R is singular by the count: no factorization
    runs, on the sparse path (ex1) or the dense one (dense G)."""
    def refuse(*args, **kwargs):
        raise AssertionError("factorization ran")

    problem, sol = catalog(name, **params)
    z = sol.z_bar
    decomps = cone_decompositions(problem, z)
    blocks = _block_split(decomps, "U0")
    J = jac_h_matrix_of(problem, z.x)
    B = _border(J, blocks, jac_g_matrix_of(problem, z.x))
    assert B.shape[0] > problem.x_dim
    assert sp.issparse(B) == sparse_border
    dense = _DenseBackend(problem, z, "U0", decomps)
    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(reduced_mod, "_factor_with_rcond", refuse)
    op = _make_backend(problem, z, "U0", decomps)
    assert isinstance(op, ReducedNewtonOperator)
    assert op.singular and dense.singular
    assert op.sigma_min() == 0.0 and dense.sigma_min() == 0.0


def test_small_operator_sigma_is_exact(monkeypatch):
    """Up to _LANCZOS_BASIS unknowns sigma_min is 1 / ||U^{-1}||_2 from
    one batched solve: no transpose solve, no cap on applies, never
    nan."""
    M = LANCZOS_CASES["n7"]()
    lu = scipy.linalg.lu_factor(M)
    calls = []

    def solve(r):
        calls.append(("solve", r.shape))
        return scipy.linalg.lu_solve(lu, r)

    def solve_t(r):
        calls.append(("solve_t", r.shape))
        return scipy.linalg.lu_solve(lu, r, trans=1)

    monkeypatch.setattr(reduced_mod, "_LANCZOS_MAX_APPLIES", 0)
    sigma = _lanczos_sigma_min(7, solve, solve_t)
    assert calls == [("solve", (7, 7))]
    assert_allclose(sigma, min_singular_value(M), rtol=1e-12)


def test_dense_trace_row_falls_back_to_svd_when_lanczos_stops(monkeypatch):
    """A trace row on ex3 (7 unknowns) with Lanczos capped at one apply
    reads the SVD value from the exact small-operator path, not nan."""
    lanczos = reduced_mod._lanczos_sigma_min
    runs = []

    def counted(dim, solve, solve_t):
        runs.append(lanczos(dim, solve, solve_t))
        return runs[-1]

    monkeypatch.setattr(reduced_mod, "_LANCZOS_MAX_APPLIES", 1)
    monkeypatch.setattr(reduced_mod, "_lanczos_sigma_min", counted)
    problem, sol = catalog("ex3")
    assert problem.total_dim <= _LANCZOS_BASIS
    start = perturbed_start(sol.z_bar, 1.0, seed=1)
    res = ssn_solve(problem, start, SolverParams(max_iter=0))
    assert len(runs) == 1 and np.isfinite(runs[0])
    _, _, decomps = solver_mod._correct_with_decomps(problem, start, 0.5)
    U = assemble_U(problem, res.z_final, "U0", _decomps=decomps)
    assert_allclose(res.trace[0].sigma_min, min_singular_value(U),
                    rtol=1e-12)


def lanczos_sigma_of(M):
    """_lanczos_sigma_min driven by LU solves of a dense matrix."""
    lu = scipy.linalg.lu_factor(M)
    return _lanczos_sigma_min(
        M.shape[0], lambda r: scipy.linalg.lu_solve(lu, r),
        lambda r: scipy.linalg.lu_solve(lu, r, trans=1))


def with_singular_values(s, seed):
    rng = np.random.default_rng(seed)
    n = len(s)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (U * np.asarray(s)) @ V.T


LANCZOS_CASES = {
    # at most _LANCZOS_BASIS unknowns: the exact value, no Lanczos run
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


@pytest.mark.parametrize("gap", [1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("seed", [40, 41, 42])
def test_lanczos_sigma_min_near_degenerate_top(gap, seed):
    """The top two eigenvalues of (U' U)^{-1} lie within `gap`, relative:
    the Krylov space resolves them late, so the Ritz gap misses the
    second one for a while.  A stop on the Ritz gap alone returned these
    about 4e-7 off at gap 1e-6; the residual cap keeps them exact."""
    s = np.concatenate([[1.0, 1.0 / math.sqrt(1.0 - gap)],
                        np.linspace(1.5, 3.0, 38)])
    M = with_singular_values(s, seed)
    assert_allclose(lanczos_sigma_of(M),
                    np.linalg.svd(M, compute_uv=False)[-1], rtol=1e-9)


def test_lanczos_gap_test_stops_early():
    """On the generic case the residual test alone stops after 6
    applies; the gap test accepts the converged value one apply before."""
    M = LANCZOS_CASES["generic"]()
    lu = scipy.linalg.lu_factor(M)
    applies = []

    def solve(r):
        applies.append(1)
        return scipy.linalg.lu_solve(lu, r)

    sigma = _lanczos_sigma_min(
        M.shape[0], solve, lambda r: scipy.linalg.lu_solve(lu, r, trans=1))
    assert len(applies) < 6
    assert_allclose(sigma, np.linalg.svd(M, compute_uv=False)[-1],
                    rtol=1e-12)


def test_lanczos_sigma_min_reads_nan_when_not_converged(monkeypatch):
    monkeypatch.setattr(reduced_mod, "_LANCZOS_MAX_APPLIES", 3)
    M = LANCZOS_CASES["clustered"]()
    assert np.isnan(lanczos_sigma_of(M))


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
    structured = ssn_solve(problem, z0, sp_, z_bar=sol.z_bar)
    monkeypatch.setattr(solver_mod, "_make_backend", _DenseBackend)
    dense = ssn_solve(problem, z0, sp_, z_bar=sol.z_bar)
    assert structured.status == dense.status
    assert structured.iterations == dense.iterations
    for rd, rs in zip(dense.trace, structured.trace):
        assert_allclose(rs.f_norm, rd.f_norm, rtol=1e-8, atol=1e-12)
        assert_allclose(rs.correction_shift, rd.correction_shift,
                        rtol=1e-8, atol=1e-12)
        assert_allclose(rs.sigma_min, rd.sigma_min, rtol=1e-5, atol=1e-10)


def ex5_63_ui_second_iterate():
    """The corrected k = 1 iterate of ex5 6/3 with UI from magnitude 10,
    seed 0: its Woodbury core cancels to rounding noise."""
    problem, sol = catalog("ex5", l1=6, l2=3)
    z0 = perturbed_start(sol.z_bar, 10.0, seed=0)
    res = ssn_solve(problem, z0, SolverParams(variant="UI", max_iter=1))
    assert res.iterations == 1
    return problem, res.z_final


def test_every_backend_flags_the_cancelled_core_singular():
    problem, z = ex5_63_ui_second_iterate()
    decomps = cone_decompositions(problem, z)
    U = assemble_U(problem, z, "UI", _decomps=decomps)
    assert min_singular_value(U) < 1e-12
    dense = _DenseBackend(problem, z, "UI", decomps)
    woodbury = WoodburyNewtonOperator(problem, z, "UI", decomps,
                                      separable_diagonal(problem, z))
    assert dense.singular and woodbury.singular
    assert dense.sigma_min() == 0.0 and woodbury.sigma_min() == 0.0
    for f in (woodbury.solve, woodbury.solve_t):
        with pytest.raises(SingularSystemError):
            f(np.ones(woodbury.dim))


@pytest.mark.parametrize("name,l1,l2", [
    ("ex1", 4, 3), ("ex1", 6, 4), ("ex5", 6, 3), ("ex5", 6, 4),
    ("ex5", 8, 4)])
def test_structured_path_reaches_the_dense_verdict(name, l1, l2,
                                                   monkeypatch):
    """Runs on the assembled reference backend and on the solver's own
    backends stop with the same status after the same number of steps,
    singular starts included."""
    problem, sol = catalog(name, l1=l1, l2=l2)
    mismatches = []
    for variant in ("U0", "UI"):
        params = SolverParams(variant=variant, delta=0.5)
        for magnitude in (1.0, 10.0):
            for seed in range(5):
                z0 = perturbed_start(sol.z_bar, magnitude, seed=seed)
                structured = ssn_solve(problem, z0, params)
                with monkeypatch.context() as m:
                    m.setattr(solver_mod, "_make_backend", _DenseBackend)
                    dense = ssn_solve(problem, z0, params)
                if (structured.status, structured.iterations) != (
                        dense.status, dense.iterations):
                    mismatches.append(
                        (variant, magnitude, seed, dense.status,
                         dense.iterations, structured.status,
                         structured.iterations))
    assert mismatches == []


def test_factorization_reuse_requires_matching_structure():
    problem, sol = catalog("ex7")
    # strictly positive cone arguments: all blocks are pure alpha
    z = KktPoint(np.array([0.3, 0.6, 0.1]), np.zeros(2),
                 BlockSymMatrix.zeros([1, 1, 1]))
    decomps = cone_decompositions(problem, z)
    assert all(d.beta.size == 0 and d.gamma.size == 0 for d in decomps)
    op = ReducedNewtonOperator(problem, z, "U0", decomps)
    assert op.reusable
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


def test_factorization_reuse_across_changed_index_sets():
    """Under UI with Gamma = 0, ex7's block 2 moves from alpha (x2 = 0.6)
    to beta (x2 = 0): V = I at both points, so the operator built at the
    first reuses at the second and answers as a fresh one, bitwise."""
    problem, _ = catalog("ex7")
    z1 = KktPoint(np.array([0.3, 0.6, 0.1]), np.zeros(2),
                  BlockSymMatrix.zeros([1, 1, 1]))
    z2 = KktPoint(np.array([0.3, 0.0, 0.1]), np.zeros(2),
                  BlockSymMatrix.zeros([1, 1, 1]))
    dec1 = cone_decompositions(problem, z1)
    dec2 = cone_decompositions(problem, z2)
    assert [d.alpha.size for d in dec1] == [1, 1, 1]
    assert [d.beta.size for d in dec2] == [0, 1, 0]
    op = ReducedNewtonOperator(problem, z1, "UI", dec1)
    assert op.reusable and not op.singular
    assert reuse_compatible(op, problem, z2, dec2, "UI")
    fresh = ReducedNewtonOperator(problem, z2, "UI", dec2)
    r = np.random.default_rng(3).standard_normal(op.dim)
    assert np.array_equal(op.solve(r), fresh.solve(r))
    assert np.array_equal(op.solve_t(r), fresh.solve_t(r))
    assert op.sigma_min() == fresh.sigma_min()
    # the zero variant zeroes beta x beta: no reuse at z2
    op0 = ReducedNewtonOperator(problem, z1, "U0", dec1)
    assert op0.reusable
    assert not reuse_compatible(op0, problem, z2, dec2, "U0")


def test_woodbury_and_dense_backends_never_reuse():
    problem, z, variant = woodbury_case("ex5-UI")
    decomps = cone_decompositions(problem, z)
    for op in (_make_backend(problem, z, variant, decomps),
               _DenseBackend(problem, z, variant, decomps)):
        assert not op.reusable
        assert not reuse_compatible(op, problem, z, decomps, variant)


def backend_lifetimes(monkeypatch):
    """Wrap solver._make_backend: (a weakref, the type and the reusable
    flag of each backend it returns; per build, whether each earlier
    backend was still alive when it was called)."""
    built, alive = [], []

    def make_backend(*args, _fn=solver_mod._make_backend):
        alive.append([ref() is not None for ref, _, _ in built])
        op = _fn(*args)
        built.append((weakref.ref(op), type(op), op.reusable))
        return op
    monkeypatch.setattr(solver_mod, "_make_backend", make_backend)
    return built, alive


@pytest.mark.parametrize("solve", [ssn_solve, classical_ssn_solve])
@pytest.mark.parametrize("name,params,kind", [
    ("ex5", {"l1": 6, "l2": 4}, WoodburyNewtonOperator),
    ("ex3", {}, ReducedNewtonOperator)])
def test_a_solve_frees_each_refused_backend_before_the_next_build(
        solve, name, params, kind, monkeypatch):
    """A backend that cannot be reused is gone before the next one is
    built, so a solve never holds two factorizations."""
    problem, sol = catalog(name, **params)
    built, alive = backend_lifetimes(monkeypatch)
    solve(problem, perturbed_start(sol.z_bar, 10.0, seed=1),
          SolverParams(variant="U0"))
    assert len(built) >= 2
    assert {(k, reusable) for _, k, reusable in built} == {(kind, False)}
    assert alive == [[False] * i for i in range(len(built))]


def alternating_format(hess_matrix_fn):
    """hess_matrix_fn whose value comes out dense on every other call."""
    calls = []

    def fn(*args):
        calls.append(None)
        W = hess_matrix_fn(*args)
        return W.toarray() if len(calls) % 2 else W
    return fn


def assert_built_once_and_reused(problem, sol, monkeypatch):
    """The UI solve from a 0.3 start builds one reusable backend and
    reuses that object on its second row."""
    built, _ = backend_lifetimes(monkeypatch)
    reused = []

    def reuse(cached, *args, _fn=solver_mod.reuse_compatible):
        ok = _fn(cached, *args)
        if ok:
            reused.append(cached is built[0][0]())
        return ok
    monkeypatch.setattr(solver_mod, "reuse_compatible", reuse)
    res = ssn_solve(problem, perturbed_start(sol.z_bar, 0.3, seed=0),
                    SolverParams(variant="UI"))
    assert res.converged and len(res.trace) == 2
    assert [(k, reusable) for _, k, reusable in built] == [
        (ReducedNewtonOperator, True)]
    assert reused == [True]


def test_a_reusable_backend_is_built_once_and_kept(monkeypatch):
    """ex1 under UI, where V = I: one build, which the next row reuses as
    the same object."""
    problem, sol = catalog("ex1", l1=6, l2=4)
    assert_built_once_and_reused(problem, sol, monkeypatch)


def test_a_hessian_that_changes_storage_is_reused(monkeypatch):
    """As test_a_reusable_backend_is_built_once_and_kept, with a Hessian
    that comes out dense at one call and CSR at the next: reuse compares
    values, so the one build is still reused."""
    problem, sol = catalog("ex1", l1=6, l2=4)
    problem = dataclasses.replace(
        problem, hess_matrix_fn=alternating_format(problem.hess_matrix_fn))
    assert_built_once_and_reused(problem, sol, monkeypatch)


@pytest.mark.parametrize("case", ["hess_matrix_fn", "jac_g_matrix",
                                  "jac_h_matrix"])
def test_reuse_refuses_matrices_that_may_change(case, monkeypatch):
    """ex1 under UI, as in test_a_reusable_backend_is_built_once_and_kept,
    with one constant matrix dropped: reuse_compatible refuses every
    reusable backend, and the solve builds once per row."""
    problem, sol = catalog("ex1", l1=6, l2=4)
    problem = dataclasses.replace(problem, **{case: None})
    built, _ = backend_lifetimes(monkeypatch)
    refused = []

    def reuse(cached, *args, _fn=solver_mod.reuse_compatible):
        ok = _fn(cached, *args)
        refused.append(cached is not None and cached.reusable and not ok)
        return ok
    monkeypatch.setattr(solver_mod, "reuse_compatible", reuse)
    res = ssn_solve(problem, perturbed_start(sol.z_bar, 0.3, seed=0),
                    SolverParams(variant="UI"))
    assert res.converged and len(res.trace) == 2
    assert [(k, reusable) for _, k, reusable in built] == [
        (ReducedNewtonOperator, True)] * 2
    assert refused == [False, True]


def test_reuse_reads_a_cached_hessian_by_value():
    """The cached Hessian is compared by value in any storage: its dense
    twin is the same matrix; another shape, one entry moved, or a nan
    is not."""
    problem, sol = catalog("ex1", l1=6, l2=4)
    z = correct(perturbed_start(sol.z_bar, 0.3, seed=0), problem, 0.5)
    decomps = cone_decompositions(problem, z)
    op = ReducedNewtonOperator(problem, z, "UI", decomps)
    assert sp.issparse(op.W)
    assert reuse_compatible(op, problem, z, decomps, "UI")
    W = op.W
    op.W = W.toarray()
    assert reuse_compatible(op, problem, z, decomps, "UI")
    for value in (1e-300, np.nan):
        moved = W.toarray()
        moved[0, 1] += value
        for cached in (moved, sp.csr_matrix(moved)):
            op.W = cached
            assert not reuse_compatible(op, problem, z, decomps, "UI")
    op.W = W[:-1, :-1]
    assert not reuse_compatible(op, problem, z, decomps, "UI")


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

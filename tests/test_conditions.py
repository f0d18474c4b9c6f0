"""Regularity condition checkers against the catalog's known flags."""

import dataclasses
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

import ssnsdp._reduced as reduced_mod
import ssnsdp.catalog as catalog_mod
import ssnsdp.conditions as conditions_mod
import ssnsdp.solver as solver_mod
from ssnsdp._reduced import (
    ReducedNewtonOperator,
    WoodburyNewtonOperator,
    _BlockData,
    _block_split,
)
from ssnsdp.catalog import catalog
from ssnsdp.conditions import (
    CHECK_TOL,
    _constraint_rows,
    _curvature_matrix,
    _row_split,
    _second_order_margin,
    check_cn,
    check_s_sosc,
    check_w_soc,
    check_w_srcq,
    regularity_report,
)
from ssnsdp.kkt import (
    assemble_U,
    cone_decompositions,
    min_singular_value,
)
from ssnsdp.linalg_sym import smat, svec, svec_len, svec_rotation
from ssnsdp.problem import (
    BlockSymMatrix,
    KktPoint,
    hess_matrix_of,
    jac_g_matrix_of,
    jac_h_matrix_of,
    perturbed_start,
    qsdp_problem,
    to_dense,
)
from ssnsdp.solver import _DenseBackend, _make_backend

SMALL = [
    ("ex1", {"l1": 6, "l2": 4}),
    ("ex2", {}),
    ("ex3", {}),
    ("ex4_primal", {}),
    ("ex4_dual", {}),
    ("ex5", {"l1": 6, "l2": 4}),
    ("ex7", {}),
]


def build(name):
    params = dict(SMALL)[name]
    return catalog(name, **params)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name, params in SMALL:
        problem, sol = catalog(name, **params)
        out[name] = (regularity_report(problem, sol.z_bar), sol)
    return out


# ---------------------------------------------------------------------------
# flags


@pytest.mark.parametrize("name", [n for n, _ in SMALL])
def test_flags_match_catalog_metadata(name, reports):
    report, sol = reports[name]
    got = {"w_soc": report.w_soc.holds, "s_sosc": report.s_sosc.holds,
           "w_srcq": report.w_srcq.holds, "cn": report.cn.holds}
    assert got == sol.expected_conditions, name


@pytest.mark.parametrize("name", [n for n, _ in SMALL])
def test_implications_between_conditions(name, reports):
    """Nondegeneracy is stronger than the strict constraint qualification,
    and the strong second-order condition is stronger than the weak one."""
    report, _ = reports[name]
    if report.cn.holds:
        assert report.w_srcq.holds
    if report.s_sosc.holds:
        assert report.w_soc.holds


@pytest.mark.parametrize("name", [n for n, _ in SMALL])
def test_certified_operators_are_nonsingular(name, reports):
    report, _ = reports[name]
    if report.w_soc.holds and report.cn.holds:
        assert report.u0_sigma_min > 1e-8
    if report.s_sosc.holds and report.w_srcq.holds:
        assert report.ui_sigma_min > 1e-8
    assert report.warnings == []


# ---------------------------------------------------------------------------
# margins (frozen values)


def test_margins_ex1(reports):
    r, _ = reports["ex1"]
    assert r.w_soc.margin == np.inf
    assert_allclose(r.s_sosc.margin, 1.0, rtol=1e-9)
    assert_allclose(r.w_srcq.margin, 1.0 / np.sqrt(2.0), rtol=1e-9)
    assert r.cn.margin == 0.0


def test_margins_ex2(reports):
    r, _ = reports["ex2"]
    assert r.w_soc.margin == np.inf
    assert abs(r.s_sosc.margin) <= 1e-10
    assert_allclose(r.w_srcq.margin, 1.0 / np.sqrt(2.0), rtol=1e-9)
    assert r.cn.margin == 0.0


def test_margins_ex3(reports):
    r, _ = reports["ex3"]
    assert_allclose(r.w_soc.margin, 4.0 / 3.0, rtol=1e-9)
    assert abs(r.s_sosc.margin) <= 1e-10
    assert r.w_srcq.margin == np.inf
    assert_allclose(r.cn.margin, 0.8349996181244668, rtol=1e-8)


def test_margins_ex4(reports):
    rp, _ = reports["ex4_primal"]
    assert rp.w_soc.margin == np.inf
    assert_allclose(rp.s_sosc.margin, 1.0, rtol=1e-9)
    assert_allclose(rp.w_srcq.margin, 0.90214152901055, rtol=1e-8)
    assert rp.cn.margin == 0.0
    rd, _ = reports["ex4_dual"]
    assert_allclose(rd.w_soc.margin, 1.0, rtol=1e-9)
    assert abs(rd.s_sosc.margin) <= 1e-10
    assert rd.w_srcq.margin == np.inf
    assert_allclose(rd.cn.margin, 0.8349996181244668, rtol=1e-8)


def test_margins_ex5(reports):
    r, _ = reports["ex5"]
    assert_allclose(r.w_soc.margin, 1.0, rtol=1e-9)
    assert abs(r.s_sosc.margin) <= 1e-10
    assert r.w_srcq.margin == np.inf
    assert_allclose(r.cn.margin, 1.0, rtol=1e-9)


def test_margins_ex7(reports):
    r, _ = reports["ex7"]
    assert r.w_soc.margin == np.inf
    assert_allclose(r.s_sosc.margin, 1.0, rtol=1e-9)
    assert_allclose(r.w_srcq.margin, 1.0, rtol=1e-9)
    assert r.cn.margin == 0.0


# ---------------------------------------------------------------------------
# Newton-matrix singular values (frozen values)


def test_sigma_values(reports):
    assert_allclose(reports["ex1"][0].ui_sigma_min, 0.3273629398710228,
                    rtol=1e-8)
    assert reports["ex1"][0].u0_sigma_min <= 1e-12
    assert reports["ex2"][0].u0_sigma_min <= 1e-12
    assert reports["ex2"][0].ui_sigma_min <= 1e-12
    assert_allclose(reports["ex3"][0].u0_sigma_min, 0.3042681058241593,
                    rtol=1e-8)
    assert reports["ex3"][0].ui_sigma_min <= 1e-12
    assert_allclose(reports["ex4_primal"][0].ui_sigma_min, 0.351717836690012,
                    rtol=1e-8)
    assert_allclose(reports["ex4_dual"][0].u0_sigma_min, 0.2756966134034377,
                    rtol=1e-8)
    assert_allclose(reports["ex5"][0].u0_sigma_min,
                    (np.sqrt(5.0) - 1.0) / 2.0, rtol=1e-8)
    assert reports["ex5"][0].ui_sigma_min <= 1e-12
    assert_allclose(reports["ex7"][0].ui_sigma_min, 0.5176380902050414,
                    rtol=1e-8)


def projection_point(n, seed):
    """The projection of a random symmetric C onto S^n_+, min 0.5 ||X -
    C||^2 over X PSD, as a separable problem (the Woodbury backend), and
    its KKT point X = proj(C), Gamma = C - X.  C has a zero eigenvalue and
    an eigenbasis that is no signed permutation, so neither Newton element
    splits into closed-form blocks and sigma_min takes Lanczos."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) % 2, 1.0, -1.0)
    lam[0] = 0.0
    N = svec_len(n)
    problem = catalog_mod._diagonal_quadratic(
        "projection", n, np.ones(N), svec((Q * lam) @ Q.T),
        sp.csr_matrix((0, N)))
    X, Gamma = ((Q * f(lam, 0.0)) @ Q.T for f in (np.maximum, np.minimum))
    return problem, KktPoint(svec(X), np.zeros(0), BlockSymMatrix([Gamma]))


def test_structured_report_repeats_exactly(monkeypatch):
    # 2 550 unknowns: above the dense cutoff, so the Woodbury path runs,
    # and Lanczos with it
    problem, z = projection_point(50, seed=4)
    applies = []
    solve_t = WoodburyNewtonOperator.solve_t

    def counted(self, r):
        applies.append(1)
        return solve_t(self, r)

    monkeypatch.setattr(WoodburyNewtonOperator, "solve_t", counted)
    runs = []
    for _ in range(3):
        before = len(applies)
        report = regularity_report(problem, z)
        runs.append((report.u0_sigma_min, len(applies) - before))
    assert runs[0][1] > 0
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("name", [n for n, _ in SMALL])
def test_report_sigma_is_the_backend_sigma(name, reports):
    report, sol = reports[name]
    problem, _ = build(name)
    decomps = cone_decompositions(problem, sol.z_bar)
    for variant, got in (("U0", report.u0_sigma_min),
                         ("UI", report.ui_sigma_min)):
        backend = _make_backend(problem, sol.z_bar, variant, decomps)
        assert got == backend.sigma_min()
        svd = min_singular_value(assemble_U(problem, sol.z_bar, variant))
        if svd > 1e-8:
            assert_allclose(got, svd, rtol=1e-8)
        elif svd < 1e-12:
            assert got == 0.0


def test_report_sigma_at_the_dense_cutoff():
    problem, sol = catalog("ex5", l1=24, l2=10)
    assert problem.total_dim == 1190
    report = regularity_report(problem, sol.z_bar)
    assert_allclose(report.u0_sigma_min, (np.sqrt(5.0) - 1.0) / 2.0,
                    rtol=1e-8)
    assert report.ui_sigma_min == 0.0


@pytest.mark.parametrize("name", [name for name, _ in SMALL])
def test_dense_report_takes_no_full_svd(name, monkeypatch):
    """No report assembles a Newton matrix or takes a full SVD, the
    Clarke-midpoint probe (ex2) included."""
    def dense(*args, **kwargs):
        raise AssertionError("dense oracle called in a report")

    for mod in (solver_mod, conditions_mod):
        monkeypatch.setattr(mod, "min_singular_value", dense)
        monkeypatch.setattr(mod, "assemble_U", dense)
    problem, sol = build(name)
    report = regularity_report(problem, sol.z_bar)
    assert np.isfinite([report.u0_sigma_min, report.ui_sigma_min]).all()
    mid = report.clarke_mid_sigma_min
    assert (mid is None) == (name != "ex2") and (mid is None or mid > 0.2)


def test_dense_report_falls_back_to_svd_when_lanczos_stops(monkeypatch):
    """With Lanczos capped at one apply, a report at the _LANCZOS_BASIS
    cutoff (30 unknowns), on a problem whose Newton elements do not split
    into closed-form blocks, reads the SVD values from the exact
    small-operator path, not nan."""
    lanczos = reduced_mod._lanczos_sigma_min
    runs = []

    def counted(dim, solve, solve_t):
        runs.append(lanczos(dim, solve, solve_t))
        return runs[-1]

    monkeypatch.setattr(reduced_mod, "_LANCZOS_MAX_APPLIES", 1)
    monkeypatch.setattr(reduced_mod, "_lanczos_sigma_min", counted)
    problem, z = projection_point(5, seed=1)
    assert problem.total_dim == reduced_mod._LANCZOS_BASIS
    report = regularity_report(problem, z)
    # both variants take the exact path
    assert len(runs) == 2 and np.isfinite(runs).all()
    for variant, got in (("U0", report.u0_sigma_min),
                         ("UI", report.ui_sigma_min)):
        assert_allclose(got, min_singular_value(
            assemble_U(problem, z, variant)), rtol=1e-12)


def test_report_probes_the_clarke_midpoint():
    # ex2: both variants singular, the midpoint is not; the report reads
    # the backend at t = 0.5, and the full SVD of the assembled midpoint,
    # 0.2233599113391941, bounds it
    problem, sol = catalog("ex2")
    report = regularity_report(problem, sol.z_bar)
    assert report.u0_sigma_min <= 1e-8 and report.ui_sigma_min <= 1e-8
    decomps = cone_decompositions(problem, sol.z_bar)
    want = _make_backend(problem, sol.z_bar, 0.5, decomps).sigma_min()
    assert report.clarke_mid_sigma_min == want
    assert_allclose(report.clarke_mid_sigma_min, 0.2233599113391941,
                    rtol=1e-12)
    # ex5: U0 is nonsingular, so no probe
    problem, sol = build("ex5")
    assert regularity_report(problem, sol.z_bar).clarke_mid_sigma_min is None


def rotated_qsdp(problem, z, seed):
    """The problem as a QSDP whose cone is rotated blockwise by a random
    orthogonal Q (G -> svec_rotation(Q) G, q the same way), with the
    point's multiplier rotated to match (Gamma -> Q' Gamma Q).  Needs a
    constant Hessian and affine h and g, as every catalog problem has."""
    rng = np.random.default_rng(seed)
    Qs = [np.linalg.qr(rng.standard_normal((n, n)))[0]
          for n in problem.cone_blocks]
    S = scipy.linalg.block_diag(*[svec_rotation(Q) for Q in Qs])
    x0 = np.zeros(problem.x_dim)
    data = {
        "x_dim": problem.x_dim, "eq_dim": problem.eq_dim,
        "cone_blocks": list(problem.cone_blocks),
        "Q": to_dense(hess_matrix_of(problem, z.x, z.xi, z.Gamma)),
        "c": problem.grad_f(x0),
        "H": to_dense(jac_h_matrix_of(problem, x0)), "p": -problem.h(x0),
        "G": S @ to_dense(jac_g_matrix_of(problem, x0)),
        "q": -S @ problem.g(x0).svec(),
    }
    Gamma = BlockSymMatrix([Q.T @ B @ Q for Q, B in zip(Qs, z.Gamma.blocks)])
    return (qsdp_problem(data, name=f"{problem.name}-rotated"),
            KktPoint(z.x.copy(), z.xi.copy(), Gamma))


@pytest.mark.parametrize("name", ["ex3", "ex5"])
def test_report_invariant_under_cone_rotation(name, reports):
    """An orthogonal change of cone basis changes neither the conditions
    nor the Newton singular values.  The rotated eigenbasis is no signed
    permutation, so the checks take their dense row branch."""
    base, sol = reports[name]
    problem, _ = build(name)
    rotated = regularity_report(*rotated_qsdp(problem, sol.z_bar, seed=7))
    for cond in ("w_soc", "s_sosc", "w_srcq", "cn"):
        got, want = getattr(rotated, cond), getattr(base, cond)
        assert got.holds == want.holds, cond
        assert_allclose(got.margin, want.margin, rtol=1e-9, atol=1e-12,
                        err_msg=cond)
    assert_allclose([rotated.u0_sigma_min, rotated.ui_sigma_min],
                    [base.u0_sigma_min, base.ui_sigma_min],
                    rtol=1e-9, atol=1e-12)
    assert rotated.warnings == base.warnings


def sparse_clone(problem):
    """The problem with its equality Jacobian, cone Jacobian and Hessian
    handed out as CSR matrices."""
    J = sp.csr_matrix(to_dense(problem.jac_h_matrix))
    G = sp.csr_matrix(to_dense(problem.jac_g_matrix))
    hess = problem.hess_matrix_fn
    return dataclasses.replace(
        problem, name=f"{problem.name}-csr", jac_h_matrix=J, jac_g_matrix=G,
        hess_matrix_fn=lambda x, xi, Gamma: sp.csr_matrix(
            to_dense(hess(x, xi, Gamma))))


@pytest.mark.parametrize("name", ["ex2", "ex3", "ex4_primal", "ex4_dual",
                                  "ex7"])
def test_report_invariant_under_sparse_storage(name, reports):
    """The catalog QSDPs with CSR Jacobians and Hessian give the same
    report, to rounding.  Their sparse rows touch several coordinates and their
    sparse curvature has off-diagonal entries, so the checks take the
    densifying branches of _row_split and _second_order_margin."""
    base, sol = reports[name]
    problem, _ = build(name)
    clone = regularity_report(sparse_clone(problem), sol.z_bar)
    for cond in ("w_soc", "s_sosc", "w_srcq", "cn"):
        got, want = getattr(clone, cond), getattr(base, cond)
        assert got.holds == want.holds, cond
        assert_allclose(got.margin, want.margin, rtol=1e-12, err_msg=cond)
    # the sparse and dense factorizations round differently
    assert_allclose([clone.u0_sigma_min, clone.ui_sigma_min],
                    [base.u0_sigma_min, base.ui_sigma_min], rtol=1e-12)
    assert clone.warnings == base.warnings


def test_report_derives_rows_and_curvature_once(monkeypatch):
    """The report builds one backend per variant, frees U0's before it
    builds UI's, and reads the rows and the curvature from their block
    data: one _BlockData per variant per cone block."""
    calls = dict.fromkeys(("_constraint_rows", "_curvature_matrix",
                           "check_w_soc", "check_s_sosc", "check_w_srcq",
                           "check_cn"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(conditions_mod, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(conditions_mod, name, counted)
    variants, built, alive = [], [], []

    def block_init(self, dec, variant, _fn=_BlockData.__init__):
        variants.append(variant)
        _fn(self, dec, variant)
    monkeypatch.setattr(_BlockData, "__init__", block_init)

    def make_backend(*args, _fn=conditions_mod._make_backend):
        alive.append([ref() is not None for ref in built])
        op = _fn(*args)
        built.append(weakref.ref(op))
        return op
    monkeypatch.setattr(conditions_mod, "_make_backend", make_backend)
    problem, sol = build("ex4_primal")
    regularity_report(problem, sol.z_bar)
    assert calls == {"_constraint_rows": 2, "_curvature_matrix": 1,
                     "check_w_soc": 1, "check_s_sosc": 1,
                     "check_w_srcq": 1, "check_cn": 1}
    blocks = len(problem.cone_blocks)
    assert variants == ["U0"] * blocks + ["UI"] * blocks
    assert alive == [[], [False]]


@pytest.mark.parametrize("name", ["ex3", "ex4_dual", "ex4_primal", "ex7"])
def test_report_decomposes_each_row_set_once(name, monkeypatch):
    """The report takes at most one SVD per variant's rows: their null
    space and their smallest singular value come from the same one, and
    rows that touch one coordinate each take none."""
    calls = []

    class SpyLinalg:
        def __getattr__(self, attr):
            return getattr(scipy.linalg, attr)

        def svd(self, C, *args, **kwargs):
            calls.append(np.array(C))
            return scipy.linalg.svd(C, *args, **kwargs)

        def svdvals(self, C, *args, **kwargs):
            calls.append(np.array(C))
            return scipy.linalg.svdvals(C, *args, **kwargs)

    problem, sol = build(name)
    z = sol.z_bar
    decomps = cone_decompositions(problem, z)
    decomposed = []
    for variant in ("U0", "UI"):
        C = _constraint_rows(problem, z, _block_split(decomps, variant),
                             jac_g_matrix_of(problem, z.x))
        if not (sp.issparse(C) and np.all(np.diff(C.indptr) <= 1)):
            decomposed.append(to_dense(C))
    monkeypatch.setattr(conditions_mod, "scipy",
                        SimpleNamespace(linalg=SpyLinalg()))
    regularity_report(problem, z)
    assert decomposed
    assert len(calls) <= len(decomposed)
    for C in calls:
        assert any(C.shape == R.shape and np.array_equal(C, R)
                   for R in decomposed)


# ---------------------------------------------------------------------------
# alpha-gamma curvature


def alpha_gamma_point(sparse):
    """A strictly complementary QSDP KKT point with alpha and gamma in one
    block: g(x) = diag(2, 0) and Gamma = diag(0, -1), so c_ag = 1/2, with
    grad f chosen so that stationarity holds.  With sparse=True the
    problem hands out G and the Hessian as scipy.sparse matrices."""
    Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    G = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    x = np.array([0.5, -1.0, 1.0])
    X, Gamma = np.diag([2.0, 0.0]), np.diag([0.0, -1.0])
    problem = qsdp_problem({
        "x_dim": 3, "eq_dim": 0, "cone_blocks": [2], "Q": Q,
        "c": -(Q @ x + G.T @ svec(Gamma)), "H": np.zeros((0, 3)),
        "p": np.zeros(0), "G": G, "q": G @ x - svec(X)}, name="ag-point")
    if sparse:
        problem = dataclasses.replace(
            problem, jac_g_matrix=sp.csr_matrix(G),
            hess_matrix_fn=lambda x, xi, Gamma: sp.csr_matrix(Q))
    return problem, KktPoint(x, np.zeros(0), BlockSymMatrix([Gamma]))


def curvature_by_loop(problem, z):
    """W + 2 sum over alpha-gamma pairs (i, j) of (-lam_j / lam_i)
    h_ij(e_k) h_ij(e_l), entry by entry, with
    h_ij(d) = (P' smat(G d) P)_ij."""
    K = to_dense(hess_matrix_of(problem, z.x, z.xi, z.Gamma)).copy()
    G = to_dense(jac_g_matrix_of(problem, z.x))
    at = 0
    for n, dec in zip(problem.cone_blocks, cone_decompositions(problem, z)):
        Gb = G[at:at + svec_len(n)]
        at += svec_len(n)
        h = [dec.P.T @ smat(Gb[:, k]) @ dec.P for k in range(problem.x_dim)]
        for i in dec.alpha:
            for j in dec.gamma:
                c = -dec.lam[j] / dec.lam[i]
                for k in range(problem.x_dim):
                    for l in range(problem.x_dim):
                        K[k, l] += 2.0 * c * h[k][i, j] * h[l][i, j]
    return K


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_alpha_gamma_curvature_matches_the_pair_loop(sparse):
    problem, z = alpha_gamma_point(sparse)
    decomps = cone_decompositions(problem, z)
    assert [(len(d.alpha), len(d.beta), len(d.gamma))
            for d in decomps] == [(1, 0, 1)]
    G = jac_g_matrix_of(problem, z.x)
    want = curvature_by_loop(problem, z)
    W = to_dense(hess_matrix_of(problem, z.x, z.xi, z.Gamma))
    assert np.abs(want - W).max() > 0.1
    for variant in ("U0", "UI"):
        blocks = _block_split(decomps, variant)
        # sparse ag rows: the eigenbasis is a signed permutation
        b = blocks[0]
        assert sp.issparse(b.s_rows(b.ag, G)) == sparse
        K = _curvature_matrix(problem, z, blocks, G)
        assert sp.issparse(K) == sparse
        assert_allclose(to_dense(K), want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_backends_at_the_alpha_gamma_point_match_dense(sparse):
    """The dense reduced build with alpha-gamma pairs, from dense and from
    sparse rows, against the assembled reference backend."""
    problem, z = alpha_gamma_point(sparse)
    decomps = cone_decompositions(problem, z)
    rng = np.random.default_rng(14)
    for variant in ("U0", "UI"):
        op = _make_backend(problem, z, variant, decomps)
        dense = _DenseBackend(problem, z, variant, decomps)
        assert isinstance(op, ReducedNewtonOperator)
        assert not op.singular and not dense.singular
        U = dense.matrix
        for r in rng.standard_normal((4, op.dim)):
            assert_allclose(op.matvec(r), U @ r, atol=1e-12)
            assert_allclose(op.solve(r), dense.solve(r), atol=1e-10)
            assert_allclose(op.solve_t(r), np.linalg.solve(U.T, r),
                            atol=1e-10)
        assert_allclose(op.sigma_min(), dense.sigma_min(), rtol=1e-10)


# ---------------------------------------------------------------------------
# subspace bases


def null_basis(problem, z, variant):
    """Orthonormal basis (columns) of the null space of the variant's
    constraint rows: the subspace of check_w_soc for U0, of check_s_sosc
    for UI."""
    blocks = _block_split(cone_decompositions(problem, z), variant)
    C = _constraint_rows(problem, z, blocks, jac_g_matrix_of(problem, z.x))
    null, _ = _row_split(C)
    return null if null.ndim == 2 else np.eye(problem.x_dim)[:, null]


def test_basis_dimensions_ex5():
    problem, sol = catalog("ex5", l1=6, l2=4)
    Bl = null_basis(problem, sol.z_bar, "U0")
    Bp = null_basis(problem, sol.z_bar, "UI")
    assert Bl.shape == (55, svec_len(10) - svec_len(4))
    assert Bp.shape == (55, 55)
    assert_allclose(Bl.T @ Bl, np.eye(Bl.shape[1]), atol=1e-12)
    assert_allclose(Bp.T @ Bp, np.eye(55), atol=1e-12)


def test_basis_dimensions_ex2():
    problem, sol = catalog("ex2")
    Bl = null_basis(problem, sol.z_bar, "U0")
    Bp = null_basis(problem, sol.z_bar, "UI")
    assert Bl.shape == (3, 0)
    assert Bp.shape == (3, 2)
    assert_allclose(Bp.T @ Bp, np.eye(2), atol=1e-12)


def test_null_basis_of_dense_rows():
    """450 unknowns, 40 dense rows of rank 25."""
    rng = np.random.default_rng(5)
    C = rng.standard_normal((40, 25)) @ rng.standard_normal((25, 450))
    N, _ = _row_split(C)
    assert N.ndim == 2
    assert N.shape == (450, 450 - 25)
    assert_allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)
    assert np.abs(C @ N).max() <= 1e-10 * np.abs(C).max()


@pytest.mark.parametrize("rows", [
    # an empty row
    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    # two rows on one coordinate
    [[0.0, 2.0, 0.0, 0.0], [0.0, -3.0, 0.0, 0.0]],
    # rows that touch several coordinates
    [[1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 0.0, 3.0], [1.0, 0.0, 1.0, 0.0]],
], ids=["empty-row", "shared-coordinate", "several-coordinates"])
def test_independence_margin_of_sparse_rows(rows):
    C = sp.csr_matrix(np.array(rows))
    want = scipy.linalg.svdvals(np.array(rows))[-1]
    assert_allclose(_row_split(C)[1], want, rtol=1e-12, atol=1e-15)


def test_independence_margin_of_dependent_dense_rows():
    """Dense rows of deficient rank read a margin at rounding level, not
    the square root of it that the eigenvalues of C C' would give."""
    rng = np.random.default_rng(6)
    for _ in range(200):
        C = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 12))
        assert _row_split(C)[1] < 1e-12 * np.linalg.norm(C, 2)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_rows_read_null_exactly_at_check_tol(sparse, monkeypatch):
    """A direction is null for the second-order margin exactly when the
    rows' singular value on it is at most CHECK_TOL, as read at call
    time, the zero test of the independence margin: rows with a singular
    value of 1e-9 read dependent and leave Q's -1 direction to the
    curvature form; at 1e-7, or at CHECK_TOL 1e-10, they read
    independent and the null space is zero."""
    def rows(t):
        C = np.array([[t, 0.0], [0.0, 1.0]] if sparse
                     else [[1.0, 0.0], [1.0, t]])
        return sp.csr_matrix(C) if sparse else C

    Q = np.diag([-1.0, 1.0] if sparse else [1.0, -1.0])
    assert _row_split(rows(1e-9))[0].ndim == (1 if sparse else 2)
    assert _row_split(rows(1e-9))[1] <= CHECK_TOL
    assert _second_order_margin(_row_split(rows(1e-9))[0], Q) == -1.0
    assert _row_split(rows(1e-7))[1] > CHECK_TOL
    assert _second_order_margin(_row_split(rows(1e-7))[0], Q) == np.inf
    monkeypatch.setattr(conditions_mod, "CHECK_TOL", 1e-10)
    assert _second_order_margin(_row_split(rows(1e-9))[0], Q) == np.inf


def dependent_rows_point(s):
    """A QSDP with dependent equality rows H = [h; 3h], h = s (1, 0.3 s,
    0.7), at its KKT point (x*, 0, 0): x* = (1, 0, 1), Q = I, c = -x*,
    G = I, q = 0, p = H x*, one cone block of order 2.  Returns the
    problem, the point and H."""
    x = np.array([1.0, 0.0, 1.0])
    h = np.array([s, 0.3 * s * s, 0.7 * s])
    H = np.array([h, 3.0 * h])
    data = {"x_dim": 3, "eq_dim": 2, "cone_blocks": [2], "Q": np.eye(3),
            "c": -x, "H": H, "p": H @ x, "G": np.eye(3), "q": np.zeros(3)}
    z = KktPoint(x, np.zeros(2), BlockSymMatrix([np.zeros((2, 2))]))
    return qsdp_problem(data), z, H


@pytest.mark.parametrize("s", [1.0, 5.0])
def test_dependent_rows_fail_cn_and_w_srcq(s):
    """CN and W-SRCQ fail on dependent equality rows, with a margin at
    rounding level, so neither certificate holds and the singular Newton
    matrices raise no warning."""
    problem, z, H = dependent_rows_point(s)
    report = regularity_report(problem, z)
    for r in (report.cn, report.w_srcq):
        assert not r.holds
        assert r.margin < 1e-12 * np.linalg.norm(H, 2)
    assert report.u0_sigma_min <= CHECK_TOL
    assert report.ui_sigma_min <= CHECK_TOL
    # the midpoint is singular too, and its backend says so exactly
    assert report.clarke_mid_sigma_min == 0.0
    assert report.warnings == []


@pytest.mark.parametrize("name", ["ex3", "ex4_primal", "ex5", "ex7"])
def test_soc_subspace_contained_in_sosc_subspace(name):
    problem, sol = build(name)
    Bl = null_basis(problem, sol.z_bar, "U0")
    Bp = null_basis(problem, sol.z_bar, "UI")
    if Bl.shape[1] == 0:
        return
    resid = Bl - Bp @ (Bp.T @ Bl)
    assert np.max(np.abs(resid)) <= 1e-10


# ---------------------------------------------------------------------------
# guards


def test_checks_reject_non_kkt_points():
    problem, sol = catalog("ex3")
    z = perturbed_start(sol.z_bar, 0.5, seed=1)
    with pytest.raises(ValueError, match="KKT"):
        check_w_soc(problem, z)
    with pytest.raises(ValueError, match="KKT"):
        regularity_report(problem, z)
    with pytest.raises(ValueError, match="KKT"):
        check_s_sosc(problem, z)


def test_check_tol_raises_the_bar(monkeypatch):
    problem, sol = catalog("ex3")
    assert check_w_soc(problem, sol.z_bar).holds
    assert check_cn(problem, sol.z_bar).holds
    monkeypatch.setattr(conditions_mod, "CHECK_TOL", 2.0)
    assert not check_w_soc(problem, sol.z_bar).holds
    monkeypatch.setattr(conditions_mod, "CHECK_TOL", 1.0)
    assert not check_cn(problem, sol.z_bar).holds


def test_report_reads_check_tol_for_its_sigma_tests(monkeypatch):
    """The certificate warnings and the Clarke-midpoint probe test the
    sigmas against CHECK_TOL as it stands when the report runs: on
    ex5 6/4 U0 is certified (w_soc and cn) with sigma_min 0.618, which
    counts as zero once CHECK_TOL is 0.7; on ex7 UI is certified (s_sosc
    and w_srcq, margin 1.0) with sigma_min 0.518, zero at 0.6.  The probe
    runs at any size: ex5 25/10 has 1 260 unknowns, and its midpoint, as
    at 6/4, has sigma_min (sqrt(5) - 1) / (2 sqrt(2))."""
    ex5_mid = (np.sqrt(5.0) - 1.0) / (2.0 * np.sqrt(2.0))
    for name, params, check_tol, variant, sigma, clarke_mid in (
            ("ex5", {"l1": 6, "l2": 4}, 0.7, "U0", "6.180e-01",
             0.4370160244488208),
            ("ex5", {"l1": 25, "l2": 10}, 0.7, "U0", "6.180e-01", ex5_mid),
            ("ex7", {}, 0.6, "UI", "5.176e-01", 0.33411283519328155)):
        monkeypatch.setattr(conditions_mod, "CHECK_TOL", check_tol)
        problem, sol = catalog(name, **params)
        report = regularity_report(problem, sol.z_bar)
        if variant == "U0":
            assert report.w_soc.holds and report.cn.holds
        else:
            assert report.s_sosc.margin == report.w_srcq.margin == 1.0
            assert report.ui_sigma_min == 0.5176380902050416
        assert (f"{variant} certified nonsingular but sigma_min is {sigma}"
                in report.warnings)
        assert report.clarke_mid_sigma_min is not None
        assert_allclose(report.clarke_mid_sigma_min, clarke_mid,
                        rtol=1e-12)


def test_default_check_tol_value():
    assert CHECK_TOL == 1e-8


def test_flags_invariant_under_problem_scaling():
    """Scaling the objective by s > 0 scales the multipliers by s and
    must not flip any condition flag."""
    s = 7.3
    for name in ("ex3", "ex4_primal"):
        problem, sol = build(name)
        data = dict(problem.qsdp_data)
        data["Q"] = (s * np.asarray(data["Q"], dtype=float)).tolist()
        data["c"] = (s * np.asarray(data["c"], dtype=float)).tolist()
        scaled = qsdp_problem(data, name=f"{name}-scaled")
        z = KktPoint(sol.z_bar.x.copy(), s * sol.z_bar.xi,
                     sol.z_bar.Gamma * s)
        report = regularity_report(scaled, z)
        got = {"w_soc": report.w_soc.holds, "s_sosc": report.s_sosc.holds,
               "w_srcq": report.w_srcq.holds, "cn": report.cn.holds}
        assert got == sol.expected_conditions, name

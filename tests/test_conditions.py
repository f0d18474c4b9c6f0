"""Regularity condition checkers against the catalog's known flags."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ssnsdp.conditions as conditions_mod
import ssnsdp.solver as solver_mod
from ssnsdp._reduced import WoodburyNewtonOperator
from ssnsdp.catalog import catalog
from ssnsdp.conditions import (
    CHECK_TOL,
    app_basis,
    appl_basis,
    check_cn,
    check_s_sosc,
    check_w_soc,
    check_w_srcq,
    regularity_report,
)
from ssnsdp.kkt import assemble_U, cone_decompositions, min_singular_value
from ssnsdp.linalg_sym import svec_len
from ssnsdp.problem import KktPoint, perturbed_start, qsdp_problem
from ssnsdp.solver import DENSE_LIMIT, _make_backend

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


def test_structured_report_repeats_exactly(monkeypatch):
    # 2 550 unknowns: above the dense cutoff, so the Woodbury path runs
    problem, sol = catalog("ex5", l1=30, l2=20)
    applies = []
    solve_t = WoodburyNewtonOperator.solve_t

    def counted(self, r):
        applies.append(1)
        return solve_t(self, r)

    monkeypatch.setattr(WoodburyNewtonOperator, "solve_t", counted)
    runs = []
    for _ in range(3):
        before = len(applies)
        report = regularity_report(problem, sol.z_bar)
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
    assert problem.total_dim == 1190 <= DENSE_LIMIT
    report = regularity_report(problem, sol.z_bar)
    assert_allclose(report.u0_sigma_min, (np.sqrt(5.0) - 1.0) / 2.0,
                    rtol=1e-8)
    assert report.ui_sigma_min == 0.0


@pytest.mark.parametrize("name", ["ex5", "ex1"])
def test_dense_report_takes_no_full_svd(name, monkeypatch):
    def no_svd(op):
        raise AssertionError("full SVD in a report below the dense cutoff")

    monkeypatch.setattr(conditions_mod, "min_singular_value", no_svd)
    problem, sol = build(name)
    report = regularity_report(problem, sol.z_bar)
    assert np.isfinite([report.u0_sigma_min, report.ui_sigma_min]).all()


def test_dense_report_falls_back_to_svd_when_lanczos_stops(monkeypatch):
    lanczos = solver_mod._lanczos_sigma_min
    runs = []

    def capped(dim, solve, solve_t):
        runs.append(lanczos(dim, solve, solve_t, max_applies=1))
        return runs[-1]

    monkeypatch.setattr(solver_mod, "_lanczos_sigma_min", capped)
    problem, sol = build("ex5")
    report = regularity_report(problem, sol.z_bar)
    # UI is flagged singular and runs no Lanczos; U0 stops at the cap
    assert len(runs) == 1 and np.isnan(runs[0])
    assert report.u0_sigma_min == min_singular_value(
        assemble_U(problem, sol.z_bar, "U0"))
    assert report.ui_sigma_min == 0.0


# ---------------------------------------------------------------------------
# subspace bases


def test_basis_dimensions_ex5():
    problem, sol = catalog("ex5", l1=6, l2=4)
    Bl = appl_basis(problem, sol.z_bar)
    Bp = app_basis(problem, sol.z_bar)
    assert Bl.shape == (55, svec_len(10) - svec_len(4))
    assert Bp.shape == (55, 55)
    assert_allclose(Bl.T @ Bl, np.eye(Bl.shape[1]), atol=1e-12)
    assert_allclose(Bp.T @ Bp, np.eye(55), atol=1e-12)


def test_basis_dimensions_ex2():
    problem, sol = catalog("ex2")
    Bl = appl_basis(problem, sol.z_bar)
    Bp = app_basis(problem, sol.z_bar)
    assert Bl.shape == (3, 0)
    assert Bp.shape == (3, 2)
    assert_allclose(Bp.T @ Bp, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("name", ["ex3", "ex4_primal", "ex5", "ex7"])
def test_soc_subspace_contained_in_sosc_subspace(name):
    problem, sol = build(name)
    Bl = appl_basis(problem, sol.z_bar)
    Bp = app_basis(problem, sol.z_bar)
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
        appl_basis(problem, z)


def test_check_tol_raises_the_bar():
    problem, sol = catalog("ex3")
    assert check_w_soc(problem, sol.z_bar).holds
    assert not check_w_soc(problem, sol.z_bar, check_tol=2.0).holds
    assert check_cn(problem, sol.z_bar).holds
    assert not check_cn(problem, sol.z_bar, check_tol=1.0).holds


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

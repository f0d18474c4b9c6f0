"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured numbers so a
`pytest -s` run doubles as the acceptance report.  Thresholds are pinned
here, not imported, so a library change that moves them fails loudly.
"""

import time

import numpy as np
import pytest

from ssnsdp.catalog import catalog, example7_start
from ssnsdp.conditions import check_w_soc, check_w_srcq, regularity_report
from ssnsdp.kkt import (
    assemble_U,
    clarke_combination,
    cone_decompositions,
    example2_family,
    fd_jacobian,
    min_singular_value,
)
from ssnsdp.linalg_sym import (
    apply_V,
    dproj_psd,
    eig_sym,
    project_psd,
    smat,
    svec,
    svec_len,
)
from ssnsdp.problem import BlockSymMatrix, KktPoint, perturbed_start
from ssnsdp.solver import (
    SolverParams,
    classical_ssn_solve,
    fitted_order,
    ssn_solve,
)

SINGULAR_TOL = 1e-10      # sigma_min at or below this counts as singular
NONSINGULAR_TOL = 1e-8    # sigma_min above this counts as nonsingular

CATALOG_SMALL = [
    ("ex1", {"l1": 4, "l2": 3}),
    ("ex2", {}),
    ("ex3", {}),
    ("ex4_primal", {}),
    ("ex4_dual", {}),
    ("ex5", {"l1": 4, "l2": 3}),
    ("ex7", {}),
]

# name, sizes, perturbation, variant, iteration cap, min converged of 20
CONVERGENCE_TABLE = [
    ("ex3", {}, 10.0, "U0", 8, 19),
    ("ex4_dual", {}, 10.0, "U0", 10, 19),
    ("ex5", {"l1": 60, "l2": 40}, 10.0, "U0", 4, 20),
    ("ex1", {"l1": 60, "l2": 40}, 1.0, "UI", 2, 20),
]

# final sigma_min levels the solver is expected to plateau at (soft check)
SIGMA_PLATEAU = {"ex3": 0.304, "ex4_dual": 0.276, "ex5": 0.618, "ex1": 0.327}


def _verdict(num, label, failures, detail):
    ok = not failures
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} [{detail}]"
    if failures:
        line += " :: " + "; ".join(failures)
    print(line, flush=True)
    assert ok, line


def _rand_point(problem, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    G = BlockSymMatrix(
        [scale * 0.5 * (M + M.T) for M in
         (rng.standard_normal((n, n)) for n in problem.cone_blocks)])
    return KktPoint(scale * rng.standard_normal(problem.x_dim),
                    scale * rng.standard_normal(problem.eq_dim), G)


def _complementary_point(problem, seed, margin):
    for s in range(seed, seed + 50):
        z = _rand_point(problem, s)
        m = min((float(np.min(np.abs(d.lam))) if d.lam.size else np.inf)
                for d in cone_decompositions(problem, z))
        if m > margin:
            return z
    raise AssertionError("no strictly complementary sample found")


# ---------------------------------------------------------------------------
# criterion 1: projection derivative core


def _operator_matvec(dec, variant):
    return lambda v: svec(apply_V(dec, variant, smat(v)))


def _dense_operator(dec, variant, N):
    T = np.empty((N, N))
    mv = _operator_matvec(dec, variant)
    e = np.zeros(N)
    for j in range(N):
        e[j] = 1.0
        T[:, j] = mv(e)
        e[j] = 0.0
    return T


def _krylov_ritz(dec, variant, N, rng, m=30):
    """Ritz values of the derivative operator from one Krylov subspace.

    Rayleigh-Ritz values always lie inside the operator's spectrum, so
    any Ritz value outside [0, 1] proves a bound violation, while Krylov
    spaces lock onto extremal eigenvalues fast enough that a violation
    of visible size cannot hide from them.
    """
    mv = _operator_matvec(dec, variant)
    V = np.empty((N, m + 1))
    v = rng.standard_normal(N)
    V[:, 0] = v / np.linalg.norm(v)
    cols = m + 1
    for j in range(m):
        w = mv(V[:, j])
        # re-orthogonalize twice: the spectrum's 0/1 clusters make single
        # Gram-Schmidt lose orthogonality quickly
        w -= V[:, :j + 1] @ (V[:, :j + 1].T @ w)
        w -= V[:, :j + 1] @ (V[:, :j + 1].T @ w)
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            cols = j + 1
            break
        V[:, j + 1] = w / nw
    V = V[:, :cols]
    M = V.T @ np.column_stack([mv(V[:, j]) for j in range(cols)])
    return np.linalg.eigvalsh((M + M.T) / 2)


def test_criterion_1_projection_core_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(910)
    worst_moreau = worst_lo = worst_hi = 0.0
    worst_slope = np.inf
    for n in (1, 2, 5, 20, 100):
        N = svec_len(n)
        for trial in range(100):
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            if n > 1 and rng.random() < 0.4:
                # force exact zero eigenvalues to hit the nonsmooth sector
                lam, Q = np.linalg.eigh(A)
                lam[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
                A = (Q * lam) @ Q.T
                A = (A + A.T) / 2
            dec = eig_sym(A)
            pos = project_psd(dec)
            neg = project_psd(eig_sym(-A))
            tol = 1e-10 * (1.0 + np.linalg.norm(A))
            worst_moreau = max(worst_moreau,
                               np.linalg.norm(A - (pos - neg)) / tol,
                               abs(np.tensordot(pos, neg)) / tol)
            variant = "U0" if trial % 2 else "UI"
            if n <= 20:
                ev = np.linalg.eigvalsh(_dense_operator(dec, variant, N))
            else:
                ev = _krylov_ritz(dec, variant, N, rng)
            worst_lo = max(worst_lo, -float(ev[0]))
            worst_hi = max(worst_hi, float(ev[-1]) - 1.0)
            H = rng.standard_normal((n, n))
            H = (H + H.T) / 2
            D = dproj_psd(dec, H)
            ts = np.logspace(-3, -7, 5)
            errs = np.array([np.linalg.norm(
                project_psd(eig_sym(A + t * H)) - pos - t * D) for t in ts])
            keep = errs > 1e-14
            if keep.sum() >= 2:
                slope = np.polyfit(np.log(ts[keep]),
                                   np.log(errs[keep]), 1)[0]
                worst_slope = min(worst_slope, slope)
    elapsed = time.perf_counter() - t0
    failures = []
    if worst_moreau > 1.0:
        failures.append(f"moreau decomposition off by {worst_moreau:.2f}x tol")
    if worst_lo > 1e-10 or worst_hi > 1e-10:
        failures.append(f"operator eigenvalue outside [0,1]: "
                        f"-{worst_lo:.2e}/+{worst_hi:.2e}")
    if worst_slope < 0.9:
        failures.append(f"directional-derivative slope {worst_slope:.3f}")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s over 30s budget")
    _verdict(1, "projection core on 500 random matrices", failures,
             f"moreau<= {worst_moreau:.2f}x tol, eig slack "
             f"{max(worst_lo, worst_hi):.1e}, slope>= {worst_slope:.2f}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: assembled derivative matches finite differences


def test_criterion_2_jacobian_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        name, kw = CATALOG_SMALL[i % len(CATALOG_SMALL)]
        problem, _ = catalog(name, **kw)
        z = _complementary_point(problem, seed=300 + 7 * i, margin=5e-2)
        variant = "U0" if i % 2 else "UI"
        U = assemble_U(problem, z, variant)
        fd = fd_jacobian(problem, z)
        err = np.max(np.abs(U - fd))
        tol = 1e-6 * (1.0 + np.max(np.abs(U)))
        worst = max(worst, err / tol)
    elapsed = time.perf_counter() - t0
    failures = []
    if worst > 1.0:
        failures.append(f"derivative mismatch {worst:.2f}x tolerance")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s over 60s budget")
    _verdict(2, "derivative vs finite differences at 20 points", failures,
             f"worst {worst:.1e}x tol, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: regularity flags and certified nonsingularity at full size


def test_criterion_3_condition_truth_table():
    t0 = time.perf_counter()
    entries = [
        ("ex1", {"l1": 60, "l2": 40}),
        ("ex2", {}),
        ("ex3", {}),
        ("ex4_dual", {}),
        ("ex5", {"l1": 60, "l2": 40}),
        ("ex7", {}),
    ]
    failures = []
    for name, kw in entries:
        problem, sol = catalog(name, **kw)
        rep = regularity_report(problem, sol.z_bar)
        flags = {"w_soc": rep.w_soc.holds, "s_sosc": rep.s_sosc.holds,
                 "w_srcq": rep.w_srcq.holds, "cn": rep.cn.holds}
        if flags != sol.expected_conditions:
            failures.append(f"{name} flags {flags}")
        if rep.warnings:
            failures.append(f"{name} warnings {rep.warnings}")
        if (rep.w_soc.holds and rep.cn.holds
                and rep.u0_sigma_min <= NONSINGULAR_TOL):
            failures.append(f"{name} certified zero-sided operator has "
                            f"sigma {rep.u0_sigma_min:.1e}")
        if (rep.s_sosc.holds and rep.w_srcq.holds
                and rep.ui_sigma_min <= NONSINGULAR_TOL):
            failures.append(f"{name} certified identity-sided operator has "
                            f"sigma {rep.ui_sigma_min:.1e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s over 60s budget")
    _verdict(3, "condition truth table at full size", failures,
             f"6 reports, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: the whole derivative family is singular, its Clarke
# midpoint is not


def test_criterion_4_singularity_lattice():
    t0 = time.perf_counter()
    masks = [np.zeros((2, 2)), np.ones((2, 2))]
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        masks.append(np.array([[0.0, t], [t, 1.0]]))
        masks.append(np.array([[1.0, t], [t, 0.0]]))
    failures = []
    worst = 0.0
    for m in masks:
        s = min_singular_value(example2_family(m))
        worst = max(worst, s)
        if s > SINGULAR_TOL:
            failures.append(f"mask {m.tolist()} sigma {s:.1e}")
    mid = clarke_combination(example2_family(np.zeros((2, 2))),
                             example2_family(np.ones((2, 2))), 0.5)
    s_mid = min_singular_value(mid)
    if s_mid <= NONSINGULAR_TOL:
        failures.append(f"midpoint sigma {s_mid:.1e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s over 1s budget")
    _verdict(4, "derivative family singular, Clarke midpoint regular",
             failures,
             f"lattice max sigma {worst:.1e}, midpoint {s_mid:.3f}, "
             f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 5/6/8 share one batch of solver runs


@pytest.fixture(scope="module")
def convergence_runs():
    t0 = time.perf_counter()
    runs = {}
    for name, kw, mag, variant, _cap, _need in CONVERGENCE_TABLE:
        problem, sol = catalog(name, **kw)
        params = SolverParams(variant=variant, delta=0.5)
        results = []
        for seed in range(20):
            z0 = perturbed_start(sol.z_bar, mag, seed)
            results.append(ssn_solve(problem, z0, params, z_bar=sol.z_bar))
        runs[name] = results
    return runs, time.perf_counter() - t0


def test_criterion_5_convergence_reproduction(convergence_runs):
    runs, elapsed = convergence_runs
    failures = []
    n_fitted = 0
    worst_order = np.inf
    for name, _kw, _mag, _variant, cap, need in CONVERGENCE_TABLE:
        converged = [r for r in runs[name] if r.converged]
        if len(converged) < need:
            failures.append(f"{name} converged {len(converged)}/20")
        over = [r.iterations for r in converged if r.iterations > cap]
        if over:
            failures.append(f"{name} iteration counts {over} over cap {cap}")
        for r in converged:
            fo = fitted_order(r.trace)
            if fo is not None:
                n_fitted += 1
                worst_order = min(worst_order, fo)
    if worst_order < 1.8:
        failures.append(f"fitted convergence order {worst_order:.2f}")
    if n_fitted < 10:
        # the two multi-step families must expose a measurable tail
        failures.append(f"only {n_fitted} runs had a fittable tail")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s over 600s budget")
    counts = {name: sum(r.converged for r in rs) for name, rs in runs.items()}
    _verdict(5, "perturbed-start convergence table", failures,
             f"converged {counts}, order>= "
             f"{worst_order if n_fitted else float('nan'):.2f} "
             f"on {n_fitted} tails, {elapsed:.1f}s")


def test_criterion_6_sigma_min_diagnostics(convergence_runs):
    runs, _ = convergence_runs
    failures = []
    notes = []
    for name, _kw, _mag, _variant, _cap, _need in CONVERGENCE_TABLE:
        finals = []
        for r in runs[name]:
            if not r.converged:
                continue
            final = r.trace[-1].sigma_min
            finals.append(final)
            if final <= 0.1:
                failures.append(f"{name} final sigma {final:.3f}")
            # the plateau is only visible once two iterates sit in the
            # quadratic tail; one-step runs legitimately skip it
            if len(r.trace) >= 2 and r.trace[-2].f_norm < 1e-2:
                prev = r.trace[-2].sigma_min
                rel = abs(final - prev) / prev
                if rel > 0.05:
                    failures.append(f"{name} sigma jump {rel:.1%}")
        dev = abs(np.median(finals) - SIGMA_PLATEAU[name]) / SIGMA_PLATEAU[name]
        if dev > 0.15:
            notes.append(f"{name} plateau off table by {dev:.0%}")
    if notes:
        # soft comparison: reported, not failed
        print("NOTE criterion 6: " + "; ".join(notes), flush=True)
    meds = {name: round(float(np.median(
        [r.trace[-1].sigma_min for r in rs if r.converged])), 4)
        for name, rs in runs.items()}
    _verdict(6, "sigma_min plateau above 0.1 and stable", failures,
             f"medians {meds}")


def test_criterion_8_error_bound_band(convergence_runs):
    runs, _ = convergence_runs
    failures = []
    worst = 0.0
    for name, rs in runs.items():
        for r in rs:
            if not r.converged:
                continue
            ratios = [row.f_norm / row.dist_to_solution for row in r.trace
                      if row.dist_to_solution and row.f_norm > 0]
            if not ratios:
                failures.append(f"{name} run with no residual/distance rows")
                continue
            band = max(ratios) / min(ratios)
            worst = max(worst, band)
            if band > 100.0:
                failures.append(f"{name} ratio band {band:.0f}")
    _verdict(8, "residual tracks distance within a factor band", failures,
             f"worst band {worst:.1f} of 100 allowed")


# ---------------------------------------------------------------------------
# criterion 7: the multiplier correction rescues degenerate starts


def test_criterion_7_correction_necessity():
    t0 = time.perf_counter()
    problem, _ = catalog("ex7")
    params = SolverParams(variant="UI", delta=0.2)
    failures = []
    for eps in (0.01, 0.05, 0.09):
        z0 = example7_start(eps)
        plain = classical_ssn_solve(problem, z0, params)
        if plain.status != "singular_system" or plain.iterations != 0:
            failures.append(f"eps={eps} uncorrected gave {plain.status} "
                            f"after {plain.iterations} steps")
        fixed = ssn_solve(problem, z0, params)
        if not (fixed.converged and fixed.iterations == 1):
            failures.append(f"eps={eps} corrected gave {fixed.status} "
                            f"in {fixed.iterations} steps")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s over 1s budget")
    _verdict(7, "correction turns a singular start into one-step "
             "convergence", failures, f"3 start sizes, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 9: primal curvature condition mirrors the dual constraint
# qualification


def test_criterion_9_primal_dual_property():
    t0 = time.perf_counter()
    primal, psol = catalog("ex4_primal")
    dual, dsol = catalog("ex4_dual")
    soc = check_w_soc(primal, psol.z_bar)
    srcq = check_w_srcq(dual, dsol.z_bar)
    failures = []
    if soc.holds != srcq.holds:
        failures.append(f"holds mismatch {soc.holds} vs {srcq.holds}")
    if not soc.holds:
        failures.append("primal curvature condition fails")
    if not (soc.margin > 0 and srcq.margin > 0):
        failures.append(f"margins {soc.margin:.3f}/{srcq.margin:.3f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s over 1s budget")
    _verdict(9, "primal curvature equals dual qualification", failures,
             f"holds {soc.holds}/{srcq.holds}, margins "
             f"{soc.margin:.3g}/{srcq.margin:.3g}, {elapsed:.2f}s")

"""Answer checks made apart from the solver.

Every quantity a solve or a report is checked against is computed here from
the paper's examples by hand: the closed-form KKT points, the smallest
singular values of the certified Newton elements, the regularity flags and
the local convergence order.  Nothing here calls into ssnsdp, so a fault in
the package cannot hide by also moving the reference.
"""

import math

import numpy as np

# a converged iterate must lie this close to the closed-form KKT point
DIST_TOL = 1e-8
# hand-derived smallest singular values must match to this relative error
SIGMA_RTOL = 1e-6
# a certified Newton element must have a smallest singular value above this
NONSINGULAR_TOL = 1e-8
# local quadratic convergence, fitted on residuals inside ORDER_WINDOW
ORDER_MIN = 1.8
ORDER_WINDOW = (1e-12, 1e-2)

# Regularity flags at the KKT point of each example, as the paper states
# them: weak second-order condition, strong second-order condition, weak
# strict Robinson qualification, constraint nondegeneracy.
PAPER_FLAGS = {
    "ex1": {"w_soc": True, "s_sosc": True, "w_srcq": True, "cn": False},
    "ex3": {"w_soc": True, "s_sosc": False, "w_srcq": True, "cn": True},
    "ex4_primal": {"w_soc": True, "s_sosc": True, "w_srcq": True,
                   "cn": False},
    "ex4_dual": {"w_soc": True, "s_sosc": False, "w_srcq": True, "cn": True},
    "ex5": {"w_soc": True, "s_sosc": False, "w_srcq": True, "cn": True},
    "ex7": {"w_soc": True, "s_sosc": True, "w_srcq": True, "cn": False},
}


def certified(name, variant):
    """True when the paper's conditions certify the variant's Newton element:
    w_soc with cn for the zero-sided U0, s_sosc with w_srcq for UI."""
    f = PAPER_FLAGS[name]
    if variant == "U0":
        return f["w_soc"] and f["cn"]
    return f["s_sosc"] and f["w_srcq"]


def hand_sigma(name, variant):
    """Smallest singular value of the Newton element at the KKT point, where
    it has been derived by hand; None elsewhere.

    ex5 with U0 decouples into one block [[1, 1], [0, 1]] per coordinate,
    whose smallest singular value is (sqrt(5) - 1) / 2.  ex1 with UI reduces
    to the 3 x 3 block below, whatever the sizes l1 and l2.
    """
    if (name, variant) == ("ex5", "U0"):
        return (math.sqrt(5.0) - 1.0) / 2.0
    if (name, variant) == ("ex1", "UI"):
        r = 1.0 / math.sqrt(2.0)
        block = np.array([[-1.0, r, 1.0], [r, 0.0, 0.0], [0.0, 0.0, 1.0]])
        return float(np.linalg.svd(block, compute_uv=False)[-1])
    return None


def _svec_diagonal(n, entries):
    """svec of diag(entries, 0, ..., 0): the upper triangle read row by row
    puts diagonal entry i at position i * n - i * (i - 1) / 2."""
    v = np.zeros(n * (n + 1) // 2)
    for i, a in enumerate(entries):
        v[i * n - i * (i - 1) // 2] = a
    return v


def reference_point(name, x_dim, eq_dim, cone_blocks, l1=None):
    """Closed-form KKT point (x, xi, Gamma blocks) of a catalog example.

    The dimensions are the problem's; the values come from the paper.
    """
    zeros = [np.zeros((n, n)) for n in cone_blocks]
    if name == "ex1":
        x = np.zeros(x_dim)
    elif name == "ex5":
        # X = blkdiag(I_l1, 0)
        x = _svec_diagonal(cone_blocks[0], np.ones(l1))
    elif name in ("ex3", "ex4_dual"):
        # X = e1 e1' in S^2
        x = np.array([1.0, 0.0, 0.0])
    elif name == "ex7":
        x = np.array([0.0, 1.0, 0.0])
    elif name == "ex4_primal":
        B = np.array([[1.5, -2.0], [-2.0, 3.0]])
        lam, P = np.linalg.eigh(B)
        B12 = (P * np.sqrt(lam)) @ P.T
        b = np.linalg.solve(B12, np.array([2.5, -1.0]))
        x = np.concatenate([-b + B12[:, 0], [0.0]])
        zeros[0] = np.diag([-1.0, 0.0])
    else:
        raise ValueError(f"no closed-form point for {name!r}")
    if x.size != x_dim:
        raise ValueError(f"{name}: closed-form x has {x.size} entries, "
                         f"the problem {x_dim}")
    return x, np.zeros(eq_dim), zeros


def distance(z, ref):
    """Euclidean distance of a KktPoint to a reference (x, xi, Gamma)."""
    x, xi, gamma = ref
    sq = np.sum((z.x - x) ** 2) + np.sum((z.xi - xi) ** 2)
    sq += sum(np.sum((a - b) ** 2) for a, b in zip(z.Gamma.blocks, gamma))
    return float(math.sqrt(sq))


def observed_order(f_norms):
    """Convergence order of a residual sequence, or None.

    Uses consecutive pairs whose residuals both lie inside ORDER_WINDOW:
    the least-squares slope of log f_{k+1} against log f_k for two or more
    pairs, the ratio log f_{k+1} / log f_k for one.
    """
    f = np.asarray(f_norms, dtype=float)
    lo, hi = ORDER_WINDOW
    inside = (f > lo) & (f < hi)
    pairs = [k for k in range(f.size - 1) if inside[k] and inside[k + 1]]
    if not pairs:
        return None
    xs = np.log(f[pairs])
    ys = np.log(f[np.array(pairs) + 1])
    if len(pairs) == 1:
        return float(ys[0] / xs[0])
    return float(np.polyfit(xs, ys, 1)[0])


def check_solve(result, name, variant, ref):
    """Faults of one converged solve; an empty list means it is right."""
    faults = []
    d = distance(result.z_final, ref)
    if not d <= DIST_TOL:
        faults.append(f"final iterate {d:.2e} from the KKT point")
    sigma = result.trace[-1].sigma_min
    want = hand_sigma(name, variant)
    if want is not None and not abs(sigma - want) <= SIGMA_RTOL * want:
        faults.append(f"final sigma_min {sigma:.10g}, derived {want:.10g}")
    if certified(name, variant) and not sigma > NONSINGULAR_TOL:
        faults.append(f"certified {variant} but final sigma_min {sigma:.2e}")
    order = observed_order([row.f_norm for row in result.trace])
    if order is not None and order < ORDER_MIN:
        faults.append(f"observed order {order:.3f} below {ORDER_MIN}")
    return faults


def check_report(report, name):
    """Faults of one regularity report at the KKT point."""
    faults = []
    for flag, want in PAPER_FLAGS[name].items():
        got = getattr(report, flag).holds
        if got != want:
            faults.append(f"{flag} {got}, paper {want}")
    sigmas = {"U0": report.u0_sigma_min, "UI": report.ui_sigma_min}
    holds = {flag: getattr(report, flag).holds for flag in PAPER_FLAGS[name]}
    if holds["w_soc"] and holds["cn"] and not sigmas["U0"] > NONSINGULAR_TOL:
        faults.append(f"U0 certificate but sigma_min {sigmas['U0']:.2e}")
    if holds["s_sosc"] and holds["w_srcq"] \
            and not sigmas["UI"] > NONSINGULAR_TOL:
        faults.append(f"UI certificate but sigma_min {sigmas['UI']:.2e}")
    for variant, sigma in sigmas.items():
        want = hand_sigma(name, variant)
        if want is not None and not abs(sigma - want) <= SIGMA_RTOL * want:
            faults.append(f"{variant} sigma_min {sigma:.10g}, "
                          f"derived {want:.10g}")
    return faults

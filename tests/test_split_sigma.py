"""Newton matrices that split into one 2x2 or 3x3 block per x coordinate
(_reduced._split_blocks): the closed-form sigma_min matches the full SVD
of the assembled matrix wherever U splits, and its block solves have a
small backward error; the split replaces Lanczos, and every
factorization, on ex1 under UI and on the ex1 and ex5 reports at their
KKT points, and it leaves the rows that do not split to Lanczos, bit
for bit."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ssnsdp._reduced as reduced_mod  # noqa: E402
import ssnsdp.conditions as conditions_mod  # noqa: E402
import ssnsdp.solver as solver_mod  # noqa: E402
from ssnsdp._reduced import (  # noqa: E402
    ReducedNewtonOperator,
    WoodburyNewtonOperator,
)
from ssnsdp.catalog import catalog  # noqa: E402
from ssnsdp.conditions import regularity_report  # noqa: E402
from ssnsdp.kkt import assemble_U, cone_decompositions  # noqa: E402
from ssnsdp.linalg_sym import (  # noqa: E402
    _classified,
    smat,
    svec_len,
)
from ssnsdp.problem import (  # noqa: E402
    BlockSymMatrix,
    KktPoint,
    NlsdpProblem,
    perturbed_start,
)
from ssnsdp.solver import SolverParams, ssn_solve  # noqa: E402

EPS = np.finfo(float).eps


def backends(problem, z, variant, decomps):
    """Block elimination built directly, which looks for the split in its
    build, and the backend _make_backend chooses, which looks for it with
    the Woodbury gate's diagonal where that applies: both on block
    elimination."""
    ops = [ReducedNewtonOperator(problem, z, variant, decomps),
           reduced_mod._make_backend(problem, z, variant, decomps)]
    assert all(isinstance(op, ReducedNewtonOperator) for op in ops)
    return ops


def assert_split_matches_svd(problem, z, variant, decomps):
    """U splits, and on both backends: the split's sigma_min is the
    smallest singular value of the assembled matrix to 1e-12 relative, or
    to the SVD's own accuracy, a few eps ||U||_2, where U is (nearly)
    singular; the build's verdict is the split's (a build that reads
    singular by its count of border rows looks for no split); the cached
    sigma_min is the split's value, or 0.0 where the build reads
    singular; and where it does not, the closed-form solves have a
    backward error below 1e-12 ||U||_2."""
    U = assemble_U(problem, z, variant, _decomps=decomps)
    s = scipy.linalg.svdvals(U)
    r = np.random.default_rng(3).standard_normal(U.shape[0])
    for op in backends(problem, z, variant, decomps):
        split = reduced_mod._split_blocks(
            op.blocks, reduced_mod._sparse_diagonal(op.W), op.J, op.G)
        assert split is not None
        assert abs(split.sigma - s[-1]) <= max(1e-12 * s[-1], 8 * EPS * s[0])
        assert op.singular == split.singular
        count = op.eq_dim + sum(b.zer.size for b in op.blocks) > op.x_dim
        assert (op.split is None) == count
        assert op.sigma_min() == (0.0 if op.singular else split.sigma)
        if op.singular:
            continue
        for M, d in ((U, op.solve(r)), (U.T, op.solve_t(r))):
            assert (np.linalg.norm(M @ d - r)
                    <= 1e-12 * s[0] * np.linalg.norm(d))


def signed_permutation_decomp(rng, lam, tol=1e-12):
    """A decomposition of the diagonal matrix P diag(lam) P' in a random
    signed permutation eigenbasis P, lam sorted by _classified."""
    n = lam.size
    P = np.zeros((n, n))
    P[rng.permutation(n), np.arange(n)] = rng.choice([-1.0, 1.0], n)
    return _classified(P, lam, tol)


def random_spectrum(rng, n):
    """n eigenvalues, each positive, zero or negative at random."""
    kind = rng.integers(0, 3, n)
    mag = rng.uniform(0.2, 3.0, n)
    return np.where(kind == 0, mag, np.where(kind == 1, 0.0, -mag))


VARIANTS = st.sampled_from(["U0", "UI", 0.5]) | st.floats(0.05, 0.95)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sizes=st.sampled_from([(6, 4), (12, 8)]),
       seed=st.integers(0, 2**32 - 1), rank=st.integers(0, 20))
def test_split_sigma_on_ex1_ui_rows_with_v_identity(sizes, seed, rank):
    """ex1 under UI at random points whose cone argument B is PSD: gamma
    is empty, so V = I, whatever B's eigenbasis."""
    problem, _ = catalog("ex1", l1=sizes[0], l2=sizes[1])
    n = sum(sizes)
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, min(rank, n)))
    x = rng.standard_normal(problem.x_dim)
    z = KktPoint(x, rng.standard_normal(problem.eq_dim),
                 BlockSymMatrix([F @ F.T - smat(x)]))
    decomps = cone_decompositions(problem, z)
    assert decomps[0].gamma.size == 0
    assert_split_matches_svd(problem, z, "UI", decomps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["ex1", "ex5"]), variant=VARIANTS,
       seed=st.integers(0, 2**32 - 1), kkt=st.booleans())
def test_split_sigma_at_signed_permutation_points(name, variant, seed, kkt):
    """ex1 and ex5 at 6/4, V diagonal but not I: at the KKT point, its
    eigenbasis re-signed and its ties permuted at random, or at a random
    diagonal spectrum in a random signed permutation basis."""
    problem, sol = catalog(name, l1=6, l2=4)
    rng = np.random.default_rng(seed)
    if kkt:
        lam = cone_decompositions(problem, sol.z_bar)[0].lam
    else:
        lam = random_spectrum(rng, 10)
    decomps = [signed_permutation_decomp(rng, lam)]
    assert_split_matches_svd(problem, sol.z_bar, variant, decomps)


def coordinate_problem(n, w, pins, a, perm, g):
    """min 0.5 x' diag(w) x subject to J x = 0, row r of J reading a[r] at
    column pins[r], and smat(G x) PSD, cone coordinate i of G x reading
    g[i] x[perm[i]]: the structure under which U splits."""
    N = svec_len(n)
    W = sp.diags(w).tocsr()
    J = sp.csr_matrix((a, (np.arange(len(pins)), pins)), shape=(len(pins), N))
    G = sp.csr_matrix((g, (np.arange(N), perm)), shape=(N, N))
    return NlsdpProblem(
        name="coordinate", x_dim=N, eq_dim=len(pins), cone_blocks=[n],
        f=lambda x: float(0.5 * x @ (w * x)),
        grad_f=lambda x: w * x,
        h=lambda x: J @ x,
        jac_h=lambda x, v: J @ v,
        jac_h_adj=lambda x, y: J.T @ y,
        g=lambda x: BlockSymMatrix.from_svec([n], G @ x),
        jac_g=lambda x, v: BlockSymMatrix.from_svec([n], G @ v),
        jac_g_adj=lambda x, M: G.T @ M.svec(),
        hess_lagrangian=lambda x, xi, Gamma, v: w * v,
        jac_h_matrix=J,
        jac_g_matrix=G,
        hess_matrix_fn=lambda x, xi, Gamma: W)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), variant=VARIANTS, seed=st.integers(0, 2**32 - 1),
       separable=st.booleans())
def test_split_sigma_on_random_coordinate_problems(n, variant, seed,
                                                   separable):
    """A random sparse diagonal W (zeros included), random coordinate pins
    of either sign on distinct columns, and a random signed scaled
    permutation G; or, separable, no pins, G = I and W in [0, 1], where
    the Woodbury backend runs too."""
    rng = np.random.default_rng(seed)
    N = svec_len(n)
    w = rng.uniform(-2.0, 2.0, N) * (rng.random(N) < 0.8)
    if separable:
        w = np.abs(w) / 2.0
        pins, a, perm, g = [], [], np.arange(N), np.ones(N)
    else:
        pins = rng.permutation(N)[:rng.integers(0, N + 1)]
        a = rng.uniform(0.3, 2.0, pins.size) * rng.choice([-1.0, 1.0],
                                                           pins.size)
        perm = rng.permutation(N)
        g = rng.uniform(0.3, 2.0, N) * rng.choice([-1.0, 1.0], N)
    problem = coordinate_problem(n, w, pins, a, perm, g)
    z = KktPoint(np.zeros(N), np.zeros(problem.eq_dim),
                 BlockSymMatrix.zeros([n]))
    decomps = [signed_permutation_decomp(rng, random_spectrum(rng, n))]
    assert_split_matches_svd(problem, z, variant, decomps)


# -- where the closed form replaces Lanczos, and where it does not ----------

@pytest.fixture()
def lanczos_calls(monkeypatch):
    """Every _lanczos_sigma_min call, as its returned value."""
    lanczos = reduced_mod._lanczos_sigma_min
    calls = []

    def spy(dim, solve, solve_t):
        calls.append(lanczos(dim, solve, solve_t))
        return calls[-1]

    monkeypatch.setattr(reduced_mod, "_lanczos_sigma_min", spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ex1_ui_solve_near_its_solution_runs_no_lanczos(seed,
                                                        lanczos_calls):
    problem, sol = catalog("ex1", l1=20, l2=10)
    res = ssn_solve(problem, perturbed_start(sol.z_bar, 0.3, seed),
                    SolverParams(variant="UI"), z_bar=sol.z_bar)
    assert res.converged and problem.total_dim > reduced_mod._LANCZOS_BASIS
    assert lanczos_calls == []


@pytest.mark.parametrize("name", ["ex1", "ex5"])
def test_reports_at_kkt_points_run_no_lanczos(name, lanczos_calls):
    problem, sol = catalog(name, l1=20, l2=10)
    report = regularity_report(problem, sol.z_bar)
    assert lanczos_calls == []
    assert report.u0_sigma_min > 0.0 or report.ui_sigma_min > 0.0


# what a build makes when U does not split
BUILD_PARTS = ("_curvature", "_border", "_woodbury_core", "_kronecker_core",
               "_lanczos_sigma_min")


@pytest.fixture()
def build_parts(monkeypatch):
    """The name of every BUILD_PARTS or splu call of the backends, and
    every backend that _make_backend returns."""
    calls, ops = [], []

    def spy(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for name in BUILD_PARTS:
        monkeypatch.setattr(reduced_mod, name,
                            spy(name, getattr(reduced_mod, name)))
    monkeypatch.setattr(reduced_mod.spla, "splu",
                        spy("splu", reduced_mod.spla.splu))
    make = reduced_mod._make_backend
    for module in (solver_mod, conditions_mod):
        monkeypatch.setattr(module, "_make_backend",
                            lambda *a: ops.append(make(*a)) or ops[-1])
    return calls, ops


def test_ex1_ui_rows_that_split_build_nothing_else(build_parts):
    """ex1 12/8 under UI near its solution: every row splits, and no K,
    border, R factorization, Woodbury core or Lanczos run is made; nor,
    after a solve and a transpose solve, does a split row hold a matrix
    of U's order (its blocks are all it keeps)."""
    calls, ops = build_parts
    problem, sol = catalog("ex1", l1=12, l2=8)
    res = ssn_solve(problem, perturbed_start(sol.z_bar, 0.3, 0),
                    SolverParams(variant="UI"))
    assert res.converged and ops
    z, _, decomps = solver_mod._correct_with_decomps(
        problem, perturbed_start(sol.z_bar, 0.1, 1), 0.5)
    ops.append(reduced_mod._make_backend(problem, z, "UI", decomps))
    assert all(isinstance(op, ReducedNewtonOperator)
               and op.split is not None for op in ops)
    assert calls == []
    for op in ops:
        r = np.random.default_rng(5).standard_normal(op.dim)
        op.solve(r)
        op.solve_t(r)
        held = [*vars(op).values(), *vars(op.split).values()]
        assert all(getattr(h, "shape", None) != (op.dim, op.dim)
                   for h in held)


@pytest.mark.parametrize("name", ["ex1", "ex5"])
def test_reports_that_split_build_nothing_else(name, build_parts):
    """The ex1 and ex5 20/10 reports at their KKT points: both variants
    split, ex5's on the Woodbury gate's problem too, or read singular by
    the count of border rows first (ex1 under U0), and no K, border, R
    factorization, Woodbury core or Lanczos run is made."""
    calls, ops = build_parts
    problem, sol = catalog(name, l1=20, l2=10)
    regularity_report(problem, sol.z_bar)
    assert [op.variant for op in ops] == ["U0", "UI"]
    assert all(isinstance(op, ReducedNewtonOperator)
               and (op.split is not None or op.singular) for op in ops)
    assert sum(op.split is not None for op in ops) == {"ex1": 1, "ex5": 2}[
        name]
    assert calls == []


def test_rows_that_do_not_split_keep_lanczos(lanczos_calls):
    """ex5 60/40 from magnitude 10 (the ex5-woodbury benchmark's case):
    every row's eigenbasis is no signed permutation, so every trace row
    reads Lanczos, and row 0 reads exactly what Lanczos gives on a
    backend built at that row."""
    problem, sol = catalog("ex5", l1=60, l2=40)
    start = perturbed_start(sol.z_bar, 10.0, 1)
    res = ssn_solve(problem, start, SolverParams(variant="U0"))
    assert res.converged
    assert [row.sigma_min for row in res.trace] == lanczos_calls
    z, _, decomps = solver_mod._correct_with_decomps(problem, start, 0.5)
    op = reduced_mod._make_backend(problem, z, "U0", decomps)
    # no split, so the Woodbury gate's backend
    assert isinstance(op, WoodburyNewtonOperator)
    want = reduced_mod._lanczos_sigma_min(op.dim, op.solve, op.solve_t)
    assert res.trace[0].sigma_min == want
    assert lanczos_calls[0] == want


# -- the values at the solutions, derived by hand ---------------------------

def sqrt_smallest_root(c2, c1, c0):
    """Square root of the smallest root, to 50 digits, of p(l) = l^3 -
    c2 l^2 + c1 l - c0 with rational coefficients and three positive
    roots (the characteristic polynomial of a nonsingular Gram matrix):
    Newton from l = 0.  Below that root p is negative, increasing and
    concave, so the iterates rise to it monotonically."""
    with localcontext() as ctx:
        ctx.prec = 60
        c2, c1, c0 = (Decimal(c.numerator) / Decimal(c.denominator)
                      for c in (c2, c1, c0))
        t = Decimal(0)
        for _ in range(200):
            step = (((t - c2) * t + c1) * t - c0) / (
                (3 * t - 2 * c2) * t + c1)
            t -= step
            if -step < Decimal(10) ** -55:
                return t.sqrt()
    raise AssertionError("Newton did not converge")


def pinned_block_sigma(w, A, g):
    """sigma_min of [[w, a, g], [a, 0, 0], [0, 0, 1]], a^2 = A: the
    square root of the smallest eigenvalue of its Gram matrix M'M =
    [[w^2 + A, w a, w g], [w a, A, a g], [w g, a g, g^2 + 1]], whose
    characteristic polynomial has the trace, the principal 2x2 minors
    and det M^2 = A^2 as coefficients, all rational in A."""
    c2 = w * w + 2 * A + g * g + 1
    c1 = ((w * w + A) * A - w * w * A
          + (w * w + A) * (g * g + 1) - w * w * g * g
          + A * (g * g + 1) - A * g * g)
    return sqrt_smallest_root(c2, c1, A * A)


def golden():
    """sigma_min of [[1, 1], [0, 1]], and of [[1, 1], [-1, 0]]: (sqrt(5)
    - 1) / 2."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(5).sqrt() - 1) / 2


def hand_ex1_ui():
    """ex1 under UI at its solution (V = I, G = I): a free coordinate of
    X_11 is [[1, 1], [0, 1]], and a pinned one [[w, a, 1], [a, 0, 0],
    [0, 0, 1]], with (w, a^2) = (0, 1/2) on X_12, (-1, 1) on the
    diagonal of X_22 and (-1, 1/2) off it."""
    half = Fraction(1, 2)
    return min([golden()] + [
        pinned_block_sigma(Fraction(w), Fraction(A), Fraction(1))
        for w, A in ((0, half), (-1, 1), (-1, half))])


def hand_ex5_u0():
    """ex5 under U0 at its solution (G = I, no pins): a coordinate of X_11
    or X_12 is [[1, 1], [0, 1]] (w = 1, v = 1), one of X_22 is [[0, 1],
    [-1, 0]] (w = 0, v = 0), with singular values 1."""
    return min(golden(), Decimal(1))


def within_4_ulp(got, want):
    want = float(want)
    return abs(got - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("sizes", [(6, 4), (20, 10), (60, 40)])
def test_solution_values_match_the_hand_derived_blocks(sizes):
    l1, l2 = sizes
    problem, sol = catalog("ex1", l1=l1, l2=l2)
    res = ssn_solve(problem, perturbed_start(sol.z_bar, 0.3, 0),
                    SolverParams(variant="UI"))
    assert res.converged
    assert within_4_ulp(res.trace[-1].sigma_min, hand_ex1_ui())
    problem, sol = catalog("ex5", l1=l1, l2=l2)
    report = regularity_report(problem, sol.z_bar)
    assert within_4_ulp(report.u0_sigma_min, hand_ex5_u0())


def test_hand_values_agree_with_the_svd():
    """The two derivations above against LAPACK on the blocks themselves."""
    r = 1.0 / math.sqrt(2.0)
    block = np.array([[-1.0, r, 1.0], [r, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert math.isclose(float(hand_ex1_ui()),
                        scipy.linalg.svdvals(block)[-1], rel_tol=1e-14)
    assert math.isclose(float(hand_ex5_u0()), scipy.linalg.svdvals(
        np.array([[1.0, 1.0], [0.0, 1.0]]))[-1], rel_tol=1e-14)


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-6])
def test_pinned_blocks_with_a_nearly_double_smallest_value(eps):
    """[[w, a, g], [a, 0, 0], [(v - 1) g, 0, v]] with v the smallest
    singular value of [[w, a], [a, 0]] and g = eps: the two smallest
    singular values coincide at eps = 0 and split by about eps, where the
    trigonometric formula alone would lose half the digits."""
    rng = np.random.default_rng(5)
    w = rng.uniform(-2.0, 2.0, 50)
    a = rng.uniform(0.3, 2.0, 50) * rng.choice([-1.0, 1.0], 50)
    v = (np.sqrt(w * w + 4.0 * a * a) - np.abs(w)) / 2.0
    v *= rng.choice([-1.0, 1.0], 50)
    g = np.full(50, eps)
    got = reduced_mod._sigma_3x3(reduced_mod._pinned_inverse(w, a, g, v))
    for k in range(50):
        M = np.array([[w[k], a[k], g[k]], [a[k], 0.0, 0.0],
                      [(v[k] - 1.0) * g[k], 0.0, v[k]]])
        want = scipy.linalg.svdvals(M)[-1]
        assert abs(got[k] - want) <= 1e-13 * want


def test_an_overflowing_block_leaves_sigma_min_to_lanczos():
    """A pin of 1e-300 overflows the explicit inverse (1 / a^2 = inf), so
    its block reads nan; U then does not split, rather than read the
    smallest value of the other blocks, and splu judges R: its last
    pivot, -a^2, underflows to zero, so it reads singular."""
    problem = coordinate_problem(2, np.ones(3), [0], [1e-300], np.arange(3),
                                 np.ones(3))
    z = KktPoint(np.zeros(3), np.zeros(1), BlockSymMatrix.zeros([2]))
    decomps = cone_decompositions(problem, z)
    calls = []
    splu = reduced_mod.spla.splu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced_mod.spla, "splu",
                   lambda *a, **k: calls.append(1) or splu(*a, **k))
        op = ReducedNewtonOperator(problem, z, "UI", decomps)
    assert op.split is None and calls == [1]
    assert op.singular and op.sigma_min() == 0.0

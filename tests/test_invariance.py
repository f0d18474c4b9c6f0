"""Invariance properties: transform a problem and its points, and the
solver and the regularity report give the same answer.

The first two act on the Newton matrix by an orthogonal map, U' = T U
T', so every sigma_min stays too:

- cone rotation: each cone block by a seeded orthogonal Q, g -> Q'gQ,
  Gamma -> Q'Gamma Q, and the cone Jacobian G -> svec_rotation(Q) G.  G
  becomes dense, so every row leaves its closed forms (the split of U,
  the sparse reduced system, the Woodbury cores) for the general path,
  which cross-checks them;
- reordering: permute the x coordinates and the equality rows.  Every
  structure survives it, so a split U then reads a cone Jacobian that
  is a permutation other than the identity;
- storage: every constant matrix, the equality and cone Jacobians and
  the Hessian's value, swapped between dense and CSR.  U does not change
  at all, and structure, not storage, picks the backend, so the backend
  class and whether U splits must agree too, and where an eigenbasis is
  a signed permutation, the rotated rows of G are read exactly in
  either storage.

Statuses, step counts, singularity verdicts and report flags must agree
exactly, and every sigma_min to 1e-10 relative.  A problem rebuilt from
its dense matrices through qsdp_problem takes the catalog's backend.

Row scaling, the equality rows by positive factors s, is no orthogonal
map: U' = diag(I, S, I) U diag(I, 1/S, I).  Statuses, step counts and
flags stay, and a sigma_min reads zero on both sides or on neither, but
its value may move.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ssnsdp._reduced import _block_split, _border, _curvature  # noqa: E402
from ssnsdp.catalog import catalog  # noqa: E402
from ssnsdp.conditions import regularity_report  # noqa: E402
from ssnsdp.linalg_sym import svec_rotation  # noqa: E402
from ssnsdp.problem import (  # noqa: E402
    BlockSymMatrix,
    KktPoint,
    hess_matrix_of,
    jac_g_matrix_of,
    jac_h_matrix_of,
    perturbed_start,
    qsdp_problem,
    to_dense,
)
from ssnsdp.solver import (  # noqa: E402
    SolverParams,
    _correct_with_decomps,
    _make_backend,
    ssn_solve,
)

CASES = [("ex1", {"l1": 6, "l2": 4}), ("ex5", {"l1": 6, "l2": 4}),
         ("ex2", {}), ("ex3", {}), ("ex4_primal", {}), ("ex4_dual", {}),
         ("ex7", {})]
CASE = st.sampled_from(CASES)


def rotated(problem, seed):
    """(problem, point map) for the cone blocks rotated by seeded
    orthogonal Q: g -> Q'gQ and Gamma -> Q'Gamma Q, so the Lagrangian,
    and with it the Hessian, read the same at mapped points."""
    rng = np.random.default_rng(seed)
    Qs = [np.linalg.qr(rng.standard_normal((n, n)))[0]
          for n in problem.cone_blocks]

    def fwd(M):
        return BlockSymMatrix([Q.T @ B @ Q for Q, B in zip(Qs, M.blocks)])

    def back(M):
        return BlockSymMatrix([Q @ B @ Q.T for Q, B in zip(Qs, M.blocks)])

    G, hess = problem.jac_g_matrix, problem.hess_matrix_fn
    R = scipy.linalg.block_diag(*[svec_rotation(Q) for Q in Qs])
    new = dataclasses.replace(
        problem,
        g=lambda x: fwd(problem.g(x)),
        jac_g=lambda x, v: fwd(problem.jac_g(x, v)),
        jac_g_adj=lambda x, M: problem.jac_g_adj(x, back(M)),
        hess_lagrangian=lambda x, xi, Gam, v: problem.hess_lagrangian(
            x, xi, back(Gam), v),
        jac_g_matrix=None if G is None else R @ to_dense(G),
        hess_matrix_fn=None if hess is None else (
            lambda x, xi, Gam: hess(x, xi, back(Gam))),
        qsdp_data=None)
    return new, lambda z: KktPoint(z.x, z.xi, fwd(z.Gamma))


def reordered(problem, seed):
    """(problem, point map) for the x coordinates taken in the seeded order
    p and the equality rows in the order s: x' = x[p], xi' = xi[s]."""
    rng = np.random.default_rng(seed)
    p, s = rng.permutation(problem.x_dim), rng.permutation(problem.eq_dim)
    ip, is_ = np.argsort(p), np.argsort(s)
    J, G, hess = (problem.jac_h_matrix, problem.jac_g_matrix,
                  problem.hess_matrix_fn)
    old = problem
    new = dataclasses.replace(
        problem,
        f=lambda x: old.f(x[ip]),
        grad_f=lambda x: old.grad_f(x[ip])[p],
        h=lambda x: np.asarray(old.h(x[ip]))[s],
        jac_h=lambda x, v: np.asarray(old.jac_h(x[ip], v[ip]))[s],
        jac_h_adj=lambda x, w: old.jac_h_adj(x[ip], w[is_])[p],
        g=lambda x: old.g(x[ip]),
        jac_g=lambda x, v: old.jac_g(x[ip], v[ip]),
        jac_g_adj=lambda x, M: old.jac_g_adj(x[ip], M)[p],
        hess_lagrangian=lambda x, xi, Gam, v: old.hess_lagrangian(
            x[ip], xi[is_], Gam, v[ip])[p],
        jac_h_matrix=None if J is None else J[s][:, p],
        jac_g_matrix=None if G is None else G[:, p],
        hess_matrix_fn=None if hess is None else (
            lambda x, xi, Gam: hess(x[ip], xi[is_], Gam)[p][:, p]),
        qsdp_data=None)
    return new, lambda z: KktPoint(z.x[p], z.xi[s], z.Gamma)


def flip(M):
    """M in the other storage: CSR for a dense M, dense for a sparse one."""
    return to_dense(M) if sp.issparse(M) else sp.csr_matrix(M)


def swapped(problem, seed):
    """(problem, point map) with the equality and cone Jacobians and the
    Hessian's value swapped between dense and CSR storage; points map to
    themselves.  seed is unused: the swap has no choice to make."""
    J, G, hess = (problem.jac_h_matrix, problem.jac_g_matrix,
                  problem.hess_matrix_fn)
    new = dataclasses.replace(
        problem,
        jac_h_matrix=None if J is None else flip(J),
        jac_g_matrix=None if G is None else flip(G),
        hess_matrix_fn=None if hess is None else (
            lambda x, xi, Gam: flip(hess(x, xi, Gam))),
        qsdp_data=None)
    return new, lambda z: z


TRANSFORMS = [rotated, reordered, swapped]
TRANSFORM = st.sampled_from(TRANSFORMS)


def assert_same_sigma(a, b):
    """Equal verdicts (0.0 reads singular) and values to 1e-10 relative."""
    assert (a == 0.0) == (b == 0.0)
    assert abs(a - b) <= 1e-10 * max(a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=CASE, transform=TRANSFORM, variant=st.sampled_from(["U0", "UI"]),
       magnitude=st.sampled_from([0.1, 1.0, 3.0]), seed=st.integers(0, 7))
def test_solves_are_invariant(case, transform, variant, magnitude, seed):
    """The same status, step count and trace sigma_min row by row."""
    problem, sol = catalog(case[0], **case[1])
    new, move = transform(problem, seed)
    start = perturbed_start(sol.z_bar, magnitude, seed)
    params = SolverParams(variant=variant)
    a = ssn_solve(problem, start, params)
    b = ssn_solve(new, move(start), params)
    assert a.status == b.status and len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert_same_sigma(ra.sigma_min, rb.sigma_min)


# storage swaps that always run, whatever the search draws: ex5's
# separable Hessian and ex2's split U must be read in either storage
@example(case=CASES[1], transform=swapped, magnitude=0.1, seed=0)
@example(case=CASES[2], transform=swapped, magnitude=3.0, seed=1)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=CASE, transform=TRANSFORM,
       magnitude=st.sampled_from([0.1, 1.0, 3.0]), seed=st.integers(0, 7))
def test_clarke_midpoint_is_invariant(case, transform, magnitude, seed):
    """The backend at t = 0.5 on a corrected start: the same verdict and
    sigma_min, and under a storage swap the same backend class and
    split."""
    problem, sol = catalog(case[0], **case[1])
    new, move = transform(problem, seed)
    start = perturbed_start(sol.z_bar, magnitude, seed)
    ops = []
    for p, z in ((problem, start), (new, move(start))):
        z, _, decomps = _correct_with_decomps(p, z, 0.5)
        ops.append(_make_backend(p, z, 0.5, decomps))
    assert ops[0].singular == ops[1].singular
    assert_same_sigma(ops[0].sigma_min(), ops[1].sigma_min())
    if transform is swapped:
        assert_same_backend(*ops)


def assert_same_backend(a, b):
    """The same backend class, and a split U on both or on neither."""
    assert type(a) is type(b)
    assert (getattr(a, "split", None) is None) == (
        getattr(b, "split", None) is None)


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_reports_are_invariant(case, transform):
    """The report at the mapped KKT point: the same four flags, the same
    warnings count, and the same Newton sigma_min values, the Clarke
    midpoint's included."""
    problem, sol = catalog(case[0], **case[1])
    new, move = transform(problem, 3)
    a = regularity_report(problem, sol.z_bar)
    b = regularity_report(new, move(sol.z_bar))
    for flag in ("w_soc", "s_sosc", "w_srcq", "cn"):
        assert getattr(a, flag).holds == getattr(b, flag).holds
    assert len(a.warnings) == len(b.warnings)
    assert_same_sigma(a.u0_sigma_min, b.u0_sigma_min)
    assert_same_sigma(a.ui_sigma_min, b.ui_sigma_min)
    assert (a.clarke_mid_sigma_min is None) == (b.clarke_mid_sigma_min
                                                is None)
    if a.clarke_mid_sigma_min is not None:
        assert_same_sigma(a.clarke_mid_sigma_min, b.clarke_mid_sigma_min)


def points(problem, sol):
    """The KKT point and starts from magnitudes 0.1 and 1, seeds 0-2, each
    corrected as a solve's first row corrects it, with its decompositions."""
    out = []
    for z in [sol.z_bar] + [perturbed_start(sol.z_bar, magnitude, seed)
                            for magnitude in (0.1, 1.0) for seed in range(3)]:
        z, _, decomps = _correct_with_decomps(problem, z, SolverParams().delta)
        out.append((z, decomps))
    return out


def rotated_rows(problem, z, blocks):
    """_border and _curvature at z, dense."""
    G = jac_g_matrix_of(problem, z.x)
    return (to_dense(_border(jac_h_matrix_of(problem, z.x), blocks, G)),
            to_dense(_curvature(hess_matrix_of(problem, z.x, z.xi, z.Gamma),
                                blocks, G)))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_signed_permutation_rows_are_exact_in_either_storage(case):
    """Wherever every block with T nonempty has a signed-permutation
    eigenbasis, each rotated row is exactly +-1 times a row of G, so the
    border and the curvature of a problem and of its storage twin are
    equal entry for entry, under U0, UI and t = 0.5."""
    problem, sol = catalog(case[0], **case[1])
    twin, _ = swapped(problem, 0)
    read = 0
    for z, decomps in points(problem, sol):
        for variant in ("U0", "UI", 0.5):
            blocks = _block_split(decomps, variant)
            if any(b.T.size and b.perm is None for b in blocks):
                continue
            read += 1
            for a, b in zip(rotated_rows(problem, z, blocks),
                            rotated_rows(twin, z, blocks)):
                np.testing.assert_array_equal(a, b)
    assert read


def scaled(problem, seed):
    """(problem, point map) for the equality rows scaled by seeded
    s = exp(U(-2, 2)): h -> s o h and J -> diag(s) J, so xi -> xi / s, and
    the Hessian reads the old one at s o xi."""
    rng = np.random.default_rng(seed)
    s = np.exp(rng.uniform(-2.0, 2.0, problem.eq_dim))
    J, hess = problem.jac_h_matrix, problem.hess_matrix_fn
    old = problem
    new = dataclasses.replace(
        problem,
        h=lambda x: s * np.asarray(old.h(x)),
        jac_h=lambda x, v: s * np.asarray(old.jac_h(x, v)),
        jac_h_adj=lambda x, w: old.jac_h_adj(x, s * w),
        hess_lagrangian=lambda x, xi, Gam, v: old.hess_lagrangian(
            x, s * xi, Gam, v),
        jac_h_matrix=None if J is None else sp.diags(s) @ J,
        hess_matrix_fn=None if hess is None else (
            lambda x, xi, Gam: hess(x, s * xi, Gam)),
        qsdp_data=None)
    return new, lambda z: KktPoint(z.x, z.xi / s, z.Gamma)


def same_zero(a, b):
    """A sigma_min that reads zero (singular) on both sides or on neither."""
    assert (a == 0.0) == (b == 0.0)


@pytest.mark.parametrize("case", [
    ("ex1", {"l1": 6, "l2": 4}), ("ex1", {"l1": 12, "l2": 8}), ("ex2", {}),
    ("ex7", {})], ids=["ex1-6-4", "ex1-12-8", "ex2", "ex7"])
def test_row_scaling_keeps_statuses_steps_and_flags(case):
    """Equality rows scaled by seeded factors, seeds 0-5: every solve from
    magnitudes 0.1, 1 and 3 under U0 and UI keeps its status, its step
    count and which trace rows read singular; the report at the mapped
    KKT point keeps its four flags and which sigma_min read zero."""
    problem, sol = catalog(case[0], **case[1])
    for seed in range(6):
        new, move = scaled(problem, seed)
        for magnitude in (0.1, 1.0, 3.0):
            start = perturbed_start(sol.z_bar, magnitude, seed)
            for variant in ("U0", "UI"):
                params = SolverParams(variant=variant)
                a = ssn_solve(problem, start, params)
                b = ssn_solve(new, move(start), params)
                assert a.status == b.status
                assert len(a.trace) == len(b.trace)
                for ra, rb in zip(a.trace, b.trace):
                    same_zero(ra.sigma_min, rb.sigma_min)
        a = regularity_report(problem, sol.z_bar)
        b = regularity_report(new, move(sol.z_bar))
        for flag in ("w_soc", "s_sosc", "w_srcq", "cn"):
            assert getattr(a, flag).holds == getattr(b, flag).holds
        same_zero(a.u0_sigma_min, b.u0_sigma_min)
        same_zero(a.ui_sigma_min, b.ui_sigma_min)
        assert (a.clarke_mid_sigma_min is None) == (
            b.clarke_mid_sigma_min is None)
        if a.clarke_mid_sigma_min is not None:
            same_zero(a.clarke_mid_sigma_min, b.clarke_mid_sigma_min)


def as_qsdp(problem):
    """problem rebuilt through qsdp_problem from its matrices at x = 0,
    every one of them dense, as a QSDP file holds them."""
    x = np.zeros(problem.x_dim)
    return qsdp_problem({
        "x_dim": problem.x_dim, "eq_dim": problem.eq_dim,
        "cone_blocks": problem.cone_blocks,
        "Q": to_dense(problem.hess_matrix_fn(x, None, None)),
        "c": problem.grad_f(x), "H": to_dense(jac_h_matrix_of(problem, x)),
        "p": -np.asarray(problem.h(x), dtype=float),
        "G": to_dense(problem.jac_g_matrix), "q": -problem.g(x).svec()})


@pytest.mark.parametrize("case,variant", [
    (("ex5", {"l1": 20, "l2": 10}), "U0"),
    (("ex1", {"l1": 20, "l2": 10}), "UI")], ids=["ex5", "ex1"])
def test_a_qsdp_rebuild_takes_the_catalog_backend(case, variant):
    """ex5 and ex1 at 20/10 rebuilt from dense matrices: at the solution
    and at a corrected start, the catalog's backend class and split, the
    same verdict and the same sigma_min."""
    problem, sol = catalog(case[0], **case[1])
    rebuilt = as_qsdp(problem)
    for z in (sol.z_bar, perturbed_start(sol.z_bar, 0.1, 1)):
        ops = []
        for p in (problem, rebuilt):
            zc, _, decomps = _correct_with_decomps(p, z, 0.5)
            ops.append(_make_backend(p, zc, variant, decomps))
        assert_same_backend(*ops)
        assert ops[0].singular == ops[1].singular
        assert_same_sigma(ops[0].sigma_min(), ops[1].sigma_min())

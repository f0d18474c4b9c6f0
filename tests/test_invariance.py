"""Invariance properties: transform a problem and its points, and the
solver and the regularity report give the same answer.

Both transformations act on the Newton matrix by an orthogonal map, U' =
T U T', so every sigma_min stays too:

- cone rotation: each cone block by a seeded orthogonal Q, g -> Q'gQ,
  Gamma -> Q'Gamma Q, and the cone Jacobian G -> svec_rotation(Q) G.  G
  becomes dense, so every row leaves its closed forms (the split of U,
  the sparse reduced system, the Woodbury cores) for the general path,
  which cross-checks them;
- reordering: permute the x coordinates and the equality rows.  Every
  structure survives it, so a split U then reads a cone Jacobian that
  is a permutation other than the identity.

Statuses, step counts, singularity verdicts and report flags must agree
exactly, and every sigma_min to 1e-10 relative.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ssnsdp.catalog import catalog  # noqa: E402
from ssnsdp.conditions import regularity_report  # noqa: E402
from ssnsdp.linalg_sym import svec_rotation  # noqa: E402
from ssnsdp.problem import (  # noqa: E402
    BlockSymMatrix,
    KktPoint,
    perturbed_start,
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


TRANSFORM = st.sampled_from([rotated, reordered])


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=CASE, transform=TRANSFORM,
       magnitude=st.sampled_from([0.1, 1.0, 3.0]), seed=st.integers(0, 7))
def test_clarke_midpoint_is_invariant(case, transform, magnitude, seed):
    """The backend at t = 0.5 on a corrected start: the same verdict and
    sigma_min."""
    problem, sol = catalog(case[0], **case[1])
    new, move = transform(problem, seed)
    start = perturbed_start(sol.z_bar, magnitude, seed)
    ops = []
    for p, z in ((problem, start), (new, move(start))):
        z, _, decomps = _correct_with_decomps(p, z, 0.5)
        ops.append(_make_backend(p, z, 0.5, decomps))
    assert ops[0].singular == ops[1].singular
    assert_same_sigma(ops[0].sigma_min(), ops[1].sigma_min())


@pytest.mark.parametrize("transform", [rotated, reordered])
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
